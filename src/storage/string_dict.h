#ifndef BLAS_STORAGE_STRING_DICT_H_
#define BLAS_STORAGE_STRING_DICT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "xpath/ast.h"

namespace blas {

/// On-page layout of the paged value dictionary (see persist.h for the
/// surrounding BLASIDX2 segment directory):
///
///   * value pages — `{u32 count; u32 first_id; u32 offsets[count+1];
///     char bytes[]}`: string i of the page spans
///     [offsets[i], offsets[i+1]) from the page start. Values are packed
///     in id order. A value longer than one page's payload gets a *run*
///     of consecutive pages to itself: the head page has count 1 and an
///     end offset `offsets[1]` past the page, and the following pages
///     hold the rest of its bytes raw — the run reads as one span of
///     `ceil(offsets[1] / kPageSize)` pages. The next value starts a
///     fresh page.
/// Ids follow ValueCollate, so the value pages are themselves the sorted
/// index `Find` binary-searches; no permutation is stored.
struct PagedDictLayout {
  uint64_t count = 0;
  PageId first_value_page = 0;
  uint32_t value_page_count = 0;
  /// First value id of each value page, in page order (loaded eagerly
  /// from the snapshot's value-page-index segment; 4 bytes per page).
  /// Non-decreasing: every page of a run carries the run's value id.
  std::vector<uint32_t> page_first_ids;
};

/// Header prefix of one paged value page.
struct ValuePageHeader {
  uint32_t count;
  uint32_t first_id;
  // uint32_t offsets[count + 1] follow, then the packed bytes.
};

/// Longest value a packed page holds: the page less its header and two
/// offsets. A longer value spills onto a run.
inline constexpr size_t kMaxPagedValue =
    kPageSize - sizeof(ValuePageHeader) - 2 * sizeof(uint32_t);

/// Reads page `k` (0 = the head) of a value-page group into `page`;
/// false when the page is unreadable.
using ValuePageReader = std::function<bool(uint32_t k, Page* page)>;

/// Validates and decodes one value-page group — a packed page
/// (`group_pages` == 1) or the run of one long value — appending its
/// strings to `out`, reading the pages one at a time through `read`.
/// Page payloads are untrusted (the snapshot preflight validates the
/// directory only): the count is capped by the page's capacity (and is 1
/// in a run), first_id must match `expected_first`, the id range must fit
/// `value_count`, the offsets must ascend within the head page, and the
/// end offset must end in the group's last page, so a run's length equals
/// `ceil(offsets[1] / kPageSize)`. Both read paths — the query-time paged
/// dictionary and the materializing snapshot loader — share it, so they
/// accept exactly the same pages. Returns false (appending nothing) on
/// any violation.
bool DecodeValuePages(uint32_t expected_first, uint32_t group_pages,
                      uint64_t value_count, const ValuePageReader& read,
                      std::vector<std::string>* out);

/// The one order of dictionary ids. Values that are XPath numbers
/// (XPathNumber is not NaN) come first, ascending by number, ties ("7",
/// "7.0", "07", " 7 ", or "0" and "-0") by bytes; every other value
/// follows, by bytes. It is a total order on strings, and every value
/// predicate selects one run of it: an ordered comparison a run of the
/// numeric block (non-numbers fail all of them), `=` one id and `!=` the
/// rest (see StringDict::Select).
struct ValueCollate {
  bool operator()(std::string_view a, std::string_view b) const;
};

/// The dictionary ids a value predicate selects: [lo, hi), or with
/// `negated` every id outside it. Records without a value carry no id;
/// they pass exactly when `pred.Matches("")`.
struct ValueIds {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool negated = false;

  bool Contains(uint32_t id) const { return (lo <= id && id < hi) != negated; }
};

/// \brief Dictionary encoding for PCDATA values.
///
/// The `data` column of the node relation stores dictionary ids, numbered
/// in ValueCollate order: an equality predicate is one id after one
/// lookup, and every value predicate is one id interval (Select).
///
/// Two modes:
///   * **In-memory** (build time and `FromIndexFile`): all values
///     resident, lock-free lookups.
///   * **Paged** (`AttachPaged`, BLASIDX2 snapshots): values live in
///     page-granular segments of the snapshot file and are read through
///     the store's BufferPool on demand (counted as page fetches /
///     io_reads like any index page). Decoded pages are memoized so
///     `Get` can keep returning stable references. Deliberate tradeoff:
///     because callers hold those references indefinitely, the memo is
///     never evicted and is NOT charged to the frame budget — the budget
///     bounds raw index/dictionary pages; the decoded working set grows
///     with the distinct values a query load actually projects or
///     probes (worst case the whole dictionary). Lookups serialize on
///     one latch per dictionary; value-projection-heavy concurrent
///     workloads pay that contention, index scans never do.
///     Each raw page is pinned only while it is copied out (a
///     short-lived PageRef, whose pinned frame survives DropCache), one
///     page at a time even across a run, so a 2-frame pool that already
///     pins a scan leaf still makes progress; everything returned to
///     callers is copied into the memo.
///
/// Concurrency: both modes are safe for concurrent readers once
/// construction/attachment finishes (`Intern` is build-time only).
class StringDict {
 public:
  StringDict() = default;
  /// Moves are build-time only (handing the labeler's dict to the
  /// system); the decode memo's latch is not movable and starts fresh.
  StringDict(StringDict&& other) noexcept
      : values_(std::move(other.values_)),
        ids_(std::move(other.ids_)),
        pool_(other.pool_),
        layout_(std::move(other.layout_)),
        decoded_(std::move(other.decoded_)) {
    other.pool_ = nullptr;
  }
  StringDict& operator=(StringDict&& other) noexcept {
    if (this != &other) {
      values_ = std::move(other.values_);
      ids_ = std::move(other.ids_);
      pool_ = other.pool_;
      layout_ = std::move(other.layout_);
      decoded_ = std::move(other.decoded_);
      other.pool_ = nullptr;
    }
    return *this;
  }

  /// Returns the id of `value`, inserting it if new. Build-time,
  /// in-memory mode only: ids follow insertion order until Collate.
  uint32_t Intern(std::string_view value);

  /// Renumbers the ids in ValueCollate order (build time, in-memory mode)
  /// and returns the map from old id to new id, for the caller to remap
  /// its records' data column.
  std::vector<uint32_t> Collate();

  /// Returns the id of `value` if present (query-time lookup; an absent
  /// value means the predicate selects nothing). Paged dictionaries
  /// binary-search the collation-ordered value pages.
  std::optional<uint32_t> Find(std::string_view value) const;

  /// The ids `pred` selects (see ValueIds): by binary search over the
  /// collation order, no scan of the dictionary.
  ValueIds Select(const ValuePred& pred) const;

  /// The value with id `id`. The reference stays valid for the dict's
  /// lifetime in both modes.
  const std::string& Get(uint32_t id) const;

  size_t size() const { return paged() ? layout_.count : values_.size(); }

  /// Switches this dict to paged mode: values resolve through `pool`
  /// (which must outlive the dict) according to `layout`.
  void AttachPaged(const BufferPool* pool, PagedDictLayout layout);

  bool paged() const { return pool_ != nullptr; }

 private:
  const std::string& PagedGet(uint32_t id) const;
  /// The first id whose value fails `before`, which must hold for a
  /// prefix of the collation order (size() if it holds for every id).
  template <typename Pred>
  uint32_t FirstFailing(Pred before) const;

  // In-memory mode: mutated only during the single-threaded build phase
  // (Intern); read-only once the dict is shared with readers.
  // blas-analyze: allow(guarded-coverage) -- build-phase only
  std::vector<std::string> values_;
  // blas-analyze: allow(guarded-coverage) -- build-phase only
  std::unordered_map<std::string, uint32_t> ids_;

  // Paged mode: set once by AttachPaged before any reader sees the dict.
  // blas-analyze: allow(guarded-coverage) -- set once by AttachPaged
  const BufferPool* pool_ = nullptr;
  // blas-analyze: allow(guarded-coverage) -- set once by AttachPaged
  PagedDictLayout layout_;
  /// Decoded value-page groups, keyed by the index of the group's first
  /// page within the value segment.
  /// References returned by Get point into these vectors; entries are
  /// never removed, so they stay valid. (A rehash moves the vectors, not
  /// their heap buffers.)
  mutable Mutex decode_mu_;
  mutable std::unordered_map<uint32_t, std::vector<std::string>> decoded_
      BLAS_GUARDED_BY(decode_mu_);
};

}  // namespace blas

#endif  // BLAS_STORAGE_STRING_DICT_H_
