#ifndef BLAS_STORAGE_NODE_STORE_H_
#define BLAS_STORAGE_NODE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "labeling/node_record.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"

namespace blas {

/// Composite key (plabel, start) of the SP relation (clustered order of
/// the paper's BLAS relation). Packed to 4-byte alignment: internal nodes
/// are arrays of separator keys, and the 12 bytes the 16-byte plabel
/// alignment would leave after `start` cost a third of SP's fan-out.
/// Members are read by value (unaligned loads), never by address.
struct [[gnu::packed, gnu::aligned(4)]] SpKey {
  PLabel plabel;
  uint32_t start;
  friend bool operator<(const SpKey& a, const SpKey& b) {
    if (a.plabel != b.plabel) return a.plabel < b.plabel;
    return a.start < b.start;
  }
};
static_assert(sizeof(SpKey) == 20, "BLASIDX2 persists 20-byte SpKeys");
// No padding bytes: snapshot pages copy internal keys, so two builds of
// one document save identical bytes.
static_assert(std::has_unique_object_representations_v<SpKey>);

/// Composite key (tag, start) of the SD relation (clustered order of the
/// D-labeling baseline relation).
struct SdKey {
  uint32_t tag;
  uint32_t start;
  friend bool operator<(const SdKey& a, const SdKey& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.start < b.start;
  }
};

/// Composite key (plabel, data, start) of the value tree, which holds only
/// the records that carry a value. Data ids follow the dictionary's
/// collation order (ValueCollate), so on one P-label every value predicate
/// is one contiguous key range: an equality literal seeks (plabel, id,
/// window.lo) once per P-label of its part and reads records in start
/// order, and CountValues counts any id interval by leaf arithmetic.
struct [[gnu::packed, gnu::aligned(4)]] ValKey {
  PLabel plabel;
  uint32_t data;
  uint32_t start;
  friend bool operator<(const ValKey& a, const ValKey& b) {
    if (a.plabel != b.plabel) return a.plabel < b.plabel;
    if (a.data != b.data) return a.data < b.data;
    return a.start < b.start;
  }
};
static_assert(sizeof(ValKey) == 24, "BLASIDX2 persists 24-byte ValKeys");
static_assert(std::has_unique_object_representations_v<ValKey>);

struct SpKeyOf {
  static SpKey Get(const NodeRecord& r) { return SpKey{r.plabel, r.start}; }
};
struct SdKeyOf {
  static SdKey Get(const NodeRecord& r) { return SdKey{r.tag, r.start}; }
};
struct ValKeyOf {
  static ValKey Get(const NodeRecord& r) {
    return ValKey{r.plabel, r.data, r.start};
  }
};
struct StartKeyOf {
  static uint32_t Get(const NodeRecord& r) { return r.start; }
};

/// The four clustered trees of a store.
using SpTree = BPlusTree<NodeRecord, SpKey, SpKeyOf>;
using SdTree = BPlusTree<NodeRecord, SdKey, SdKeyOf>;
using ValueTree = BPlusTree<NodeRecord, ValKey, ValKeyOf>;
using DocTree = BPlusTree<NodeRecord, uint32_t, StartKeyOf>;

/// Inclusive range of start positions a windowed scan visits. The
/// windows of one scan are sorted and disjoint: the outermost intervals of
/// the anchor bindings a part joins against, outside which no record can
/// match.
struct StartWindow {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;
};

/// The one window of an unanchored scan.
inline constexpr StartWindow kWholeDocument[1] = {StartWindow{}};

/// Per-query storage access counters. `elements` is the paper's "visited
/// elements"; page counters come from the buffer pool (`io_reads` are the
/// misses that cost a real disk read — paged stores only).
struct StorageStats {
  uint64_t elements = 0;
  uint64_t page_fetches = 0;
  uint64_t page_misses = 0;
  uint64_t io_reads = 0;

  StorageStats& operator+=(const StorageStats& o) {
    elements += o.elements;
    page_fetches += o.page_fetches;
    page_misses += o.page_misses;
    io_reads += o.io_reads;
    return *this;
  }
};

/// Persisted placement of one clustered B+-tree inside a paged snapshot:
/// the pool-relative page range it occupies plus the metadata needed to
/// reattach it without reading a single page.
struct BPlusTreeMeta {
  PageId root = kInvalidPage;
  PageId first_leaf = kInvalidPage;
  uint64_t size = 0;
  int32_t height = 0;
  /// First pool page id of this tree; the tree's pages are contiguous
  /// (bulk loading allocates them in one run).
  PageId first_page = 0;
  uint32_t page_count = 0;
};

/// Everything a paged NodeStore needs from the snapshot.
struct PagedStoreMeta {
  BPlusTreeMeta sp, sd, value, doc;
  uint64_t record_count = 0;
  /// Pages occupied by the four trees (the pool may address further
  /// pages — the paged value dictionary lives in the same page space).
  uint64_t tree_pages = 0;
  /// The document's distinct P-labels, ascending: the path summary's, not
  /// persisted in the header (the summary segment carries them).
  std::vector<PLabel> plabels;
};

/// \brief The BLAS index store (section 4, index generator output).
///
/// Holds both physical designs the paper compares over one buffer pool:
///   * SP — clustered by {plabel, start} (BLAS),
///   * SD — clustered by {tag, start}   (D-labeling baseline),
/// plus a value tree clustered by {plabel, data, start} over the records
/// that carry a value (value predicates on P-label scans, and their exact
/// counts) and a document-order index clustered by
/// {start} (point lookups and subtree reconstruction for the cursor
/// projection layer).
///
/// Two storage modes share all query paths: a build-time store keeps
/// every page in memory behind the miss-counting LRU, while a store
/// reopened from a BLASIDX2 snapshot (`NodeStore(PagedFile, ...)`) pages
/// on demand — construction is O(1) in document size and each miss is a
/// real disk read bounded by the StorageOptions memory budget.
///
/// All scans count every record they read (including records later
/// rejected by a residual level or data filter), matching how the paper
/// counts visited elements. Windowed scans skip between windows with
/// BPlusTree::SkipTo; the records skipped over are not visited.
///
/// Concurrency: all scan methods and `stats` are safe for concurrent
/// callers once construction finishes (the buffer pool shards its
/// latches; the element counter is atomic). Per-thread attribution of
/// visited elements and page accesses goes through ReadCounterScope.
class NodeStore {
 public:
  /// Builds all trees from the labeler output, consuming it (the array
  /// is re-sorted in place for each tree). `data` ids must be dense
  /// dictionary ids or kNullData: the value tree is laid out by counting
  /// passes over them. `cache_pages` sizes the LRU cache of the
  /// shared buffer pool; `cache_shards` its latch sharding (0 = auto,
  /// 1 = exact global LRU; see BufferPool).
  explicit NodeStore(std::vector<NodeRecord> records,
                     size_t cache_pages = 1024, size_t cache_shards = 0);

  /// Reopens a persisted store against a snapshot file: the four trees
  /// attach to a demand-paging BufferPool sized by `options`; nothing is
  /// read until the first scan descends. `meta.plabels` must hold the
  /// document's P-labels.
  NodeStore(PagedFile file, const PagedStoreMeta& meta,
            const StorageOptions& options);

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  /// Records with plabel in [range.lo, range.hi] and start inside one of
  /// `windows` (sorted, disjoint), optionally filtered by data id and/or
  /// exact level. Result is ordered by (plabel, start). With a data id the
  /// scan runs over the value tree and reads only records carrying it,
  /// seeking each document P-label in the range once; otherwise over SP.
  /// Either way it skips from each P-label's last window to the next
  /// P-label's first, and between windows.
  std::vector<NodeRecord> ScanPlabelRange(
      const PLabelRange& range, std::optional<uint32_t> data = std::nullopt,
      std::optional<int32_t> level = std::nullopt,
      std::span<const StartWindow> windows = kWholeDocument) const;

  /// The seed read of an equality literal: the records carrying data id
  /// `data` with plabel in `range`, in (plabel, start) order, from the
  /// value tree without windows (one seek per document P-label in the
  /// range). Visits at most `cap` records: when a further match exists
  /// the read stops before it and returns nullopt (the records read stay
  /// counted as visited).
  std::optional<std::vector<NodeRecord>> ScanValueCapped(
      const PLabelRange& range, uint32_t data, uint64_t cap) const;

  /// The number of records on P-label `plabel` whose data id lies in
  /// [lo, hi): one value-tree key range, counted by BPlusTree::CountRange
  /// (at most two root descents, no record visited, every page fetched
  /// counted). Corruption when a leaf it reaches breaks the bulk-load
  /// shape the count relies on.
  Result<uint64_t> CountValues(PLabel plabel, uint32_t lo,
                               uint32_t hi) const;

  /// The batch read of return-first limit-k cursors: the `n` records with
  /// the smallest start >= `lo` whose plabel lies in one of `ranges`
  /// (non-empty, sorted, disjoint), in start order. With a data id it
  /// reads the value tree and sees only records carrying it; otherwise SP.
  /// One forward iterator skips from P-label to P-label and a max-heap
  /// keeps the `n` smallest starts: records of one P-label ascend, so once
  /// one cannot enter the full heap (or enters as its largest) the read
  /// skips to the next P-label. Every record read counts as visited, so a
  /// P-label whose first record at `lo` or later lies past the heap costs
  /// one visit.
  std::vector<NodeRecord> FirstByStart(std::span<const PLabelRange> ranges,
                                       std::optional<uint32_t> data,
                                       uint32_t lo, size_t n) const;

  /// Ancestors by floor seeks in SP. Each target (plabel, start) names a
  /// P-label on the root-to-node path of the node at `start`; records of
  /// one P-label sit at one depth and never nest, so the ancestor carrying
  /// it is the last SP record at or before the target. `targets` must be
  /// sorted; one iterator moves forward through them, and a target inside
  /// the previously found ancestor costs nothing. Each found ancestor
  /// counts as one visited element. Result in (plabel, start) order,
  /// distinct.
  std::vector<NodeRecord> SeekAncestors(std::span<const SpKey> targets) const;

  /// Records with the given tag (D-labeling access path), optionally
  /// filtered by data id. Result is ordered by start.
  std::vector<NodeRecord> ScanTag(TagId tag,
                                  std::optional<uint32_t> data =
                                      std::nullopt) const;

  /// Full scan of the SD relation (wildcard tag test), optional data
  /// filter. Ordered by (tag, start).
  std::vector<NodeRecord> ScanAll(std::optional<uint32_t> data =
                                      std::nullopt) const;

  /// The record at exactly `start` via the document-order index, or
  /// nullopt. Counts one visited element plus the tree descent's pages.
  std::optional<NodeRecord> FindByStart(uint32_t start) const;

  /// \brief Shared machinery of the incremental scans: a leaf iterator
  /// plus visited-element accounting.
  ///
  /// Pages are fetched as the scan advances, so an abandoned scan pays
  /// only for the prefix it consumed. Each advanced record counts as one
  /// visited element: added to the calling thread's ReadCounterScope as
  /// it happens (per-query attribution) and flushed to the store-wide
  /// counter in one batch on destruction.
  template <typename Key, typename KeyOf>
  class ScanBase {
   public:
    ScanBase(ScanBase&& o) noexcept
        : it_(std::move(o.it_)),
          store_(o.store_),
          rec_(o.rec_),
          visited_(o.visited_) {
      o.store_ = nullptr;
      o.visited_ = 0;
    }
    ScanBase& operator=(ScanBase&& o) noexcept {
      if (this != &o) {
        Flush();
        store_ = o.store_;
        it_ = std::move(o.it_);
        rec_ = o.rec_;
        visited_ = o.visited_;
        o.store_ = nullptr;
        o.visited_ = 0;
      }
      return *this;
    }
    ~ScanBase() { Flush(); }

    uint64_t visited() const { return visited_; }

   protected:
    using Iterator =
        typename BPlusTree<NodeRecord, Key, KeyOf>::Iterator;

    ScanBase(const NodeStore* store, Iterator it)
        : it_(std::move(it)), store_(store) {}

    /// Counts and returns the current record, then advances. The record
    /// is copied out first: advancing may unpin the page it came from,
    /// and a paged store is free to evict an unpinned page. The returned
    /// pointer stays valid until the next call.
    const NodeRecord* Step() {
      rec_ = *it_;
      ++visited_;
      if (ReadCounters* counters = ReadCounterScope::Current()) {
        ++counters->elements;
      }
      ++it_;
      return &rec_;
    }

    const NodeStore* store() const { return store_; }

    Iterator it_;

   private:
    void Flush() {
      if (store_ != nullptr && visited_ > 0) {
        store_->elements_.fetch_add(visited_, std::memory_order_relaxed);
      }
    }

    const NodeStore* store_;
    NodeRecord rec_;
    uint64_t visited_ = 0;
  };

  /// Incremental start-ordered scan of one tag's SD run — the streaming
  /// access path of limit-k cursors — restricted to `windows` (sorted,
  /// disjoint): the scan skips from one window to the next.
  class TagScan : public ScanBase<SdKey, SdKeyOf> {
   public:
    TagScan(const NodeStore* store, TagId tag,
            std::vector<StartWindow> windows);

    /// The next record with the scanned tag inside a window, in start
    /// order, or nullptr at the end of the run or past the last window.
    const NodeRecord* Next();

   private:
    TagId tag_;
    std::vector<StartWindow> windows_;
    size_t window_ = 0;
  };

  /// Incremental scan of records with start in [lo, hi], in document
  /// order (subtree reconstruction).
  class DocScan : public ScanBase<uint32_t, StartKeyOf> {
   public:
    DocScan(const NodeStore* store, uint32_t lo, uint32_t hi);

    const NodeRecord* Next();

   private:
    uint32_t hi_;
  };

  size_t record_count() const { return count_; }
  /// Pages occupied by the four trees (excludes the paged dictionary
  /// segments sharing the pool's page space in paged mode).
  size_t page_count() const { return tree_pages_; }

  /// Placement + reattach metadata of the four trees, in snapshot order
  /// (sp, sd, value, doc). Valid in both modes; persistence writes it
  /// into the BLASIDX2 header.
  PagedStoreMeta paged_meta() const;

  /// The backing pool. The paged value dictionary reads its pages through
  /// it; persistence walks it to emit the page segments.
  const BufferPool& pool() const { return pool_; }

  /// True when this store pages from a snapshot file.
  bool paged() const { return pool_.paged(); }

  /// All records in (plabel, start) order, without touching the counters
  /// (index export / persistence).
  std::vector<NodeRecord> ExportRecords() const;

  /// Snapshot of counters accumulated since the last ResetStats().
  StorageStats stats() const;
  void ResetStats();
  /// Cold-cache experiments (the paper measures cold-cache runs). Safe
  /// against concurrent scans: pinned pages survive the drop.
  void DropCache() const { pool_.DropCache(); }

 private:
  /// Pages hinted ahead of a forward scan in one ranged readahead batch.
  /// 32 × 8 KiB = 256 KiB per batch: large enough to cover a typical tag
  /// run's leaves in one hint, small enough not to flood the cache when a
  /// limit-k cursor abandons the scan early.
  static constexpr size_t kReadaheadPages = 32;

  /// The P-labels a read steps through. SP holds a record on every
  /// document P-label, so a scan steps from p to p + 1 and lands on the
  /// next one. In the value tree one id's records on a P-label are one run
  /// among other ids' runs, so a value read steps through the document's
  /// P-labels (`plabels`, ascending) instead and seeks each once.
  struct LabelWalk {
    const std::vector<PLabel>* plabels = nullptr;  // null: SP
    /// The first P-label to visit at or after `lo`.
    std::optional<PLabel> First(PLabel lo) const;
    /// The first P-label to visit after `p`.
    std::optional<PLabel> After(PLabel p) const;
  };

  /// The windowed scan behind ScanPlabelRange over `tree`: SP, or the
  /// value tree reading only records that carry `data` (`key_of(plabel,
  /// start)` builds the tree's key, `walk` steps between P-labels).
  template <typename Tree, typename KeyFn>
  std::vector<NodeRecord> ScanWindows(const Tree& tree, KeyFn key_of,
                                      LabelWalk walk,
                                      std::optional<uint32_t> data,
                                      const PLabelRange& range,
                                      std::optional<int32_t> level,
                                      std::span<const StartWindow> windows)
      const;

  /// FirstByStart over `tree` (`key_of`, `walk` and `data` as for
  /// ScanWindows).
  template <typename Tree, typename KeyFn>
  std::vector<NodeRecord> FirstByStartIn(const Tree& tree, KeyFn key_of,
                                         LabelWalk walk,
                                         std::optional<uint32_t> data,
                                         std::span<const PLabelRange> ranges,
                                         uint32_t lo, size_t n) const;

  /// Issues one batched readahead for the leaf run ahead of a scan that
  /// just seeked `tree` to `at`. Leaves are contiguous in
  /// [first_leaf, first_leaf + leaf_pages), so the window is the ids
  /// ahead of `at`, clamped to that range. No-op for in-memory stores,
  /// ended scans, and corrupt positions outside the leaf range.
  template <typename Tree>
  void ReadaheadFrom(const Tree& tree, PageId at) const {
    if (!pool_.paged() || at == kInvalidPage) return;
    const PageId first = tree.first_leaf();
    const size_t leaves = tree.leaf_pages();
    if (first == kInvalidPage || at < first || at >= first + leaves) return;
    size_t window = leaves - (at - first);
    if (window > kReadaheadPages) window = kReadaheadPages;
    pool_.Readahead(at, window);
  }

  mutable BufferPool pool_;
  SpTree sp_;
  SdTree sd_;
  ValueTree vindex_;
  DocTree doc_;
  std::array<BPlusTreeMeta, 4> tree_metas_;  // sp, sd, value, doc
  size_t count_ = 0;
  size_t tree_pages_ = 0;
  /// The document's distinct P-labels, ascending (value reads' LabelWalk).
  std::vector<PLabel> plabels_;
  mutable std::atomic<uint64_t> elements_{0};
};

}  // namespace blas

#endif  // BLAS_STORAGE_NODE_STORE_H_
