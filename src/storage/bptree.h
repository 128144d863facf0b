#ifndef BLAS_STORAGE_BPTREE_H_
#define BLAS_STORAGE_BPTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace blas {

/// Pages, leaf pages and height of a bulk-loaded tree (BPlusTree::BulkShape).
struct TreeShape {
  uint64_t leaves = 0;
  uint64_t pages = 0;
  int height = 0;
};

/// \brief Bulk-loaded, page-resident clustered B+ tree.
///
/// Leaves store full `Record`s sorted by `KeyOf::Get(record)`; internal
/// nodes store separator keys and child page ids. The tree is built once
/// from sorted data (the BLAS index generator is build-once/query-many) and
/// then serves point and range lookups whose page accesses are counted by
/// the owning BufferPool. A tree persisted in a BLASIDX2 snapshot is
/// reattached to a paged pool via `Attach` — no page is touched until a
/// lookup descends into it.
///
/// Requirements: `Record` and `Key` are trivially copyable; `Key` has
/// `operator<`; `KeyOf` exposes `static Key Get(const Record&)`.
template <typename Record, typename Key, typename KeyOf>
class BPlusTree {
 public:
  struct LeafNode {
    uint32_t is_leaf;  // 1
    uint32_t count;
    PageId next;
    uint32_t pad_;
    Record records[1];  // actually kLeafCap entries
  };
  struct InternalNode {
    uint32_t is_leaf;  // 0
    uint32_t count;    // number of keys; children = count + 1
    Key keys[1];       // actually kInternalCap entries
    // children array lives at a fixed offset after the key array.
  };

  static constexpr size_t kLeafHeaderSize =
      (sizeof(uint32_t) * 3 + sizeof(PageId) + alignof(Record) - 1) /
      alignof(Record) * alignof(Record);
  static constexpr size_t kLeafCap =
      (kPageSize - kLeafHeaderSize) / sizeof(Record);
  static constexpr size_t kInternalHeaderSize =
      (sizeof(uint32_t) * 2 + alignof(Key) - 1) / alignof(Key) * alignof(Key);
  // Keys and children share the remaining space.
  static constexpr size_t kInternalCap =
      (kPageSize - kInternalHeaderSize - sizeof(PageId)) /
      (sizeof(Key) + sizeof(PageId));

  static_assert(kLeafCap >= 2, "record too large for a page");
  static_assert(kInternalCap >= 2, "key too large for a page");

  BPlusTree() = default;

  /// Placement of a bulk-loaded tree of `size` records: every leaf full
  /// but the last, allocated first and contiguously, then each level of
  /// internal nodes (full but its last), the root last. CountRange's leaf
  /// arithmetic relies on it; Build produces it and the BLASIDX2 preflight
  /// checks a persisted tree's metadata against it.
  static constexpr TreeShape BulkShape(uint64_t size) {
    TreeShape shape;
    uint64_t level = (size + kLeafCap - 1) / kLeafCap;
    shape.leaves = level;
    while (level > 0) {
      shape.pages += level;
      ++shape.height;
      if (level == 1) break;
      level = (level + kInternalCap) / (kInternalCap + 1);
    }
    return shape;
  }

  /// Builds the tree from records sorted ascending by key. `pool` must
  /// outlive the tree.
  void Build(BufferPool* pool, const std::vector<Record>& sorted) {
    pool_ = pool;
    root_ = kInvalidPage;
    first_leaf_ = kInvalidPage;
    size_ = sorted.size();
    height_ = 0;
    if (sorted.empty()) return;

    // Level 0: leaves.
    std::vector<PageId> level_pages;
    std::vector<Key> level_keys;  // first key of each page
    size_t i = 0;
    PageId prev = kInvalidPage;
    while (i < sorted.size()) {
      size_t take = std::min(kLeafCap, sorted.size() - i);
      PageId pid = pool_->Allocate();
      auto* leaf = LeafAt(pool_->MutablePage(pid));
      leaf->is_leaf = 1;
      leaf->count = static_cast<uint32_t>(take);
      leaf->next = kInvalidPage;
      std::memcpy(leaf->records, sorted.data() + i, take * sizeof(Record));
      if (prev != kInvalidPage) {
        LeafAt(pool_->MutablePage(prev))->next = pid;
      } else {
        first_leaf_ = pid;
      }
      prev = pid;
      level_pages.push_back(pid);
      level_keys.push_back(KeyOf::Get(sorted[i]));
      i += take;
    }
    height_ = 1;

    // Upper levels.
    while (level_pages.size() > 1) {
      std::vector<PageId> next_pages;
      std::vector<Key> next_keys;
      size_t j = 0;
      while (j < level_pages.size()) {
        size_t children = std::min(kInternalCap + 1, level_pages.size() - j);
        PageId pid = pool_->Allocate();
        Page* page = pool_->MutablePage(pid);
        auto* node = InternalAt(page);
        node->is_leaf = 0;
        node->count = static_cast<uint32_t>(children - 1);
        PageId* kids = ChildrenArray(page);
        for (size_t c = 0; c < children; ++c) {
          kids[c] = level_pages[j + c];
          if (c > 0) node->keys[c - 1] = level_keys[j + c];
        }
        next_pages.push_back(pid);
        next_keys.push_back(level_keys[j]);
        j += children;
      }
      level_pages.swap(next_pages);
      level_keys.swap(next_keys);
      ++height_;
    }
    root_ = level_pages[0];
    assert(root_ + 1 - first_leaf_ == BulkShape(size_).pages &&
           height_ == BulkShape(size_).height);
  }

  /// Reattaches a persisted tree to its (typically paged) pool: the
  /// metadata comes from the snapshot header, the pages from the pool on
  /// demand. No page access happens here.
  void Attach(BufferPool* pool, PageId root, PageId first_leaf,
              uint64_t size, int height) {
    pool_ = pool;
    root_ = root;
    first_leaf_ = first_leaf;
    size_ = size;
    height_ = height;
  }

  size_t size() const { return size_; }
  int height() const { return height_; }
  PageId root() const { return root_; }
  PageId first_leaf() const { return first_leaf_; }

  /// Number of leaf pages. Build allocates all leaves consecutively
  /// before any internal node, so they occupy exactly
  /// [first_leaf, first_leaf + leaf_pages()) — the contiguous range that
  /// bounds a forward scan's readahead window.
  size_t leaf_pages() const {
    return size_ == 0 ? 0 : (size_ + kLeafCap - 1) / kLeafCap;
  }

  /// True when the fetched page plausibly is a leaf of this tree — the
  /// snapshot preflight validates directories, not page payloads, so the
  /// tag and count are untrusted until checked (an overrun count would
  /// otherwise index far past the frame).
  static const LeafNode* ValidLeaf(const PageRef& ref) {
    if (!ref) return nullptr;
    const LeafNode* leaf = LeafAt(ref.get());
    if (leaf->is_leaf != 1 || leaf->count == 0 || leaf->count > kLeafCap) {
      assert(false && "corrupt leaf page");
      return nullptr;
    }
    return leaf;
  }

 private:
  /// Upper bound of a node's key range, copied out of its parent on a
  /// descent: every key in the node lies below `key`. kOpen bounds the
  /// rightmost node of a level; kUnknown proves nothing.
  struct Fence {
    enum class Kind : uint8_t { kUnknown, kKey, kOpen };
    Kind kind = Kind::kUnknown;
    Key key{};

    static Fence At(const Key& k) { return Fence{Kind::kKey, k}; }
    static Fence Open() { return Fence{Kind::kOpen, Key{}}; }
    /// True when `k` provably lies below the fence.
    bool Covers(const Key& k) const {
      return kind == Kind::kOpen || (kind == Kind::kKey && k < key);
    }
    /// True when `k` provably lies at or past the fence.
    bool Excludes(const Key& k) const {
      return kind == Kind::kKey && !(k < key);
    }
  };

  /// Fences of the leaf an iterator stands on, from the descent that
  /// reached it: its own upper fence, its next leaf's, and its parent page
  /// with that parent's. Copies only — no page stays pinned for them.
  struct Fences {
    Fence leaf_hi;
    Fence next_hi;
    Fence parent_hi;
    PageId parent = kInvalidPage;
  };

 public:
  /// Forward iterator over leaf records; dereference is only valid while
  /// the underlying pool exists. The iterator pins the leaf it stands on
  /// (the record it points at cannot be evicted under it); advancing
  /// across a page boundary fetches — and repins to — the next page
  /// (counted by the pool). A failed read or corrupt page ends the
  /// iteration. Move-only: the pin travels with it.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(const BufferPool* pool, PageId page, uint32_t slot)
        : pool_(pool), page_(page), slot_(slot) {
      if (page_ != kInvalidPage) {
        ref_ = pool_->Fetch(page_);
        leaf_ = ValidLeaf(ref_);
        if (leaf_ == nullptr) page_ = kInvalidPage;  // corrupt/failed read
      }
    }
    /// Positions on an already-fetched leaf (no extra page access); takes
    /// over the caller's pin.
    Iterator(const BufferPool* pool, PageId page, uint32_t slot,
             PageRef ref)
        : pool_(pool), page_(page), slot_(slot), ref_(std::move(ref)) {
      leaf_ = ValidLeaf(ref_);
      if (leaf_ == nullptr) page_ = kInvalidPage;
    }

    Iterator(Iterator&& other) noexcept
        : pool_(other.pool_),
          page_(other.page_),
          slot_(other.slot_),
          ref_(std::move(other.ref_)),
          leaf_(other.leaf_),
          fences_(other.fences_) {
      other.page_ = kInvalidPage;
      other.leaf_ = nullptr;
    }
    Iterator& operator=(Iterator&& other) noexcept {
      if (this != &other) {
        pool_ = other.pool_;
        page_ = other.page_;
        slot_ = other.slot_;
        ref_ = std::move(other.ref_);
        leaf_ = other.leaf_;
        fences_ = other.fences_;
        other.page_ = kInvalidPage;
        other.leaf_ = nullptr;
      }
      return *this;
    }

    bool at_end() const { return page_ == kInvalidPage; }

    /// Page the iterator currently stands on (kInvalidPage at end).
    /// Scans use this to anchor batched readahead: leaves are allocated
    /// consecutively by Build, so the pages ahead of a forward scan are
    /// the ids ahead of this one.
    PageId page() const { return page_; }

    const Record& operator*() const {
      assert(!at_end());
      return leaf_->records[slot_];
    }
    const Record* operator->() const { return &operator*(); }

    Iterator& operator++() {
      if (++slot_ >= leaf_->count) StepLeaf();
      return *this;
    }

   private:
    friend class BPlusTree;

    /// Moves to slot 0 of the next leaf — `next` when the caller already
    /// fetched it, else one fetch — or to the end of the chain. The old
    /// sibling fence becomes the leaf's own; the new sibling's is unknown
    /// until the next descent.
    void StepLeaf(PageRef next = PageRef()) {
      page_ = leaf_->next;
      slot_ = 0;
      fences_.leaf_hi = fences_.next_hi;
      fences_.next_hi = Fence();
      if (page_ != kInvalidPage && !next) next = pool_->Fetch(page_);
      ref_ = std::move(next);
      leaf_ = page_ == kInvalidPage ? nullptr : ValidLeaf(ref_);
      if (leaf_ == nullptr) {
        page_ = kInvalidPage;
        ref_ = PageRef();
      }
    }

    const BufferPool* pool_ = nullptr;
    PageId page_ = kInvalidPage;
    uint32_t slot_ = 0;
    PageRef ref_;
    const LeafNode* leaf_ = nullptr;
    Fences fences_;
  };

  /// Iterator positioned at the first record with key >= `key`. Touches
  /// one page per tree level, plus the next leaf when `key` falls after
  /// the last record of the leaf the descent reaches; the descent holds
  /// at most two pins at a time (hand-over-hand parent/child).
  Iterator Seek(const Key& key) const {
    Iterator it;
    if (Descend(root_, Fence::Open(), height_ - 1, key, &it)) {
      LandLowerBound(&it, key);
    }
    return it;
  }

  /// Iterator positioned at the last record with key <= `key` (end when
  /// every key is larger). Touches one page per tree level: separators
  /// are their children's first keys, so the leaf the descent reaches
  /// holds the floor whenever one exists.
  Iterator SeekFloor(const Key& key) const {
    Iterator it;
    if (Descend(root_, Fence::Open(), height_ - 1, key, &it)) {
      LandFloor(&it, key);
    }
    return it;
  }

  /// Moves `it` forward to the first record with key >= `key`; a key at or
  /// before the current record leaves it in place. Tiers, cheapest first,
  /// chosen by the fences the last descent copied out:
  ///   * inside the pinned leaf: a binary search, no page access;
  ///   * in the next leaf, unless its fence rules it out: one fetch (two
  ///     when the key falls after that leaf's last record);
  ///   * inside the pinned leaf's parent: the parent and one child, two
  ///     fetches;
  ///   * beyond: a root descent (Seek's cost).
  /// With the next leaf's fence unknown (after stepping past the leaves
  /// the descent saw), the next leaf is probed first, as without fences.
  /// `it` keeps its pin until the leaf it moves to is pinned, so the
  /// record under it stays valid until it moves.
  void SkipTo(Iterator* it, const Key& key) const {
    if (it->at_end()) return;
    const LeafNode* leaf = it->leaf_;
    if (!(KeyOf::Get(leaf->records[leaf->count - 1]) < key)) {
      it->slot_ = LowerBound(leaf, it->slot_, key);
      return;
    }
    if (!it->fences_.next_hi.Excludes(key)) {
      it->StepLeaf();
      if (it->at_end()) return;
      leaf = it->leaf_;
      if (!(KeyOf::Get(leaf->records[leaf->count - 1]) < key)) {
        it->slot_ = LowerBound(leaf, 0, key);
        return;
      }
      if (it->fences_.leaf_hi.Covers(key)) {
        it->StepLeaf();  // after the last record: the next leaf's first
        return;
      }
    }
    if (!Redescend(it, key)) return;
    LandLowerBound(it, key);
  }

  /// Moves `it` forward to the last record with key <= `key`; a floor
  /// before the current record leaves it in place. The same tiers as
  /// SkipTo: the pinned leaf holds the floor when its fence covers `key`
  /// or `key` does not pass its last record; the next leaf when the
  /// fences place `key` in it (one fetch); else the parent (two) or the
  /// root. No step goes backward.
  void SkipToFloor(Iterator* it, const Key& key) const {
    if (it->at_end() || FloorInLeaf(it, key)) return;
    if (!it->fences_.next_hi.Excludes(key)) {
      PageRef ref = pool_->Fetch(it->leaf_->next);
      const LeafNode* next = ValidLeaf(ref);
      if (next == nullptr) {
        *it = Iterator();
        return;
      }
      if (key < KeyOf::Get(next->records[0])) {
        // The next leaf starts past `key`: the floor is this leaf's last.
        it->slot_ = it->leaf_->count - 1;
        return;
      }
      it->StepLeaf(std::move(ref));
      if (FloorInLeaf(it, key)) return;
    }
    if (!Redescend(it, key)) return;
    LandFloor(it, key);
  }

  /// Number of records with key in [lo, hi), by leaf arithmetic: the rank
  /// of a position is `(leaf - first_leaf) * kLeafCap + slot`, which holds
  /// because bulk loading fills every leaf but the last and allocates the
  /// leaves contiguously (BulkShape). The lower-bound descents of `lo` and
  /// `hi` share their path until they diverge, so a count fetches at most
  /// 2 * height - 1 pages, one at a time; no record is visited. nullopt
  /// when a page it reaches breaks that shape (a corrupt snapshot): a leaf
  /// outside the leaf run, or one whose count differs from what its
  /// position implies.
  std::optional<uint64_t> CountRange(const Key& lo, const Key& hi) const {
    if (size_ == 0 || !(lo < hi)) return 0;
    PageId pid = root_;
    for (int depth = height_ - 1;; --depth) {
      PageRef ref = pool_->Fetch(pid);
      if (!ref) return std::nullopt;
      if (const LeafNode* leaf = ShapedLeaf(pid, ref)) {
        return LowerBound(leaf, 0, hi) - LowerBound(leaf, 0, lo);
      }
      std::optional<std::pair<PageId, PageId>> kids =
          ChildrenOf(ref, depth, lo, hi);
      if (!kids.has_value()) return std::nullopt;
      if (kids->first != kids->second) {
        ref = PageRef();  // one pin at a time, even in a 2-frame pool
        const std::optional<uint64_t> from = RankFrom(kids->first, depth - 1, lo);
        const std::optional<uint64_t> to = RankFrom(kids->second, depth - 1, hi);
        if (!from.has_value() || !to.has_value() || *to < *from) {
          return std::nullopt;
        }
        return *to - *from;
      }
      pid = kids->first;
    }
  }

  /// Iterator at the smallest record.
  Iterator Begin() const { return Iterator(pool_, first_leaf_, 0); }

  /// Uncounted full traversal in key order (maintenance/export paths;
  /// bypasses the buffer-pool statistics). A corrupt page or a leaf
  /// chain longer than the pool (a cycle) ends the traversal.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    PageId pid = first_leaf_;
    size_t pages_walked = 0;
    while (pid != kInvalidPage && pages_walked++ < pool_->page_count()) {
      PageRef ref = pool_->Peek(pid);
      const LeafNode* leaf = ValidLeaf(ref);
      if (leaf == nullptr) break;
      for (uint32_t i = 0; i < leaf->count; ++i) fn(leaf->records[i]);
      pid = leaf->next;
    }
  }

 private:
  /// The leaf on `ref` (page `pid`) when it is one of this tree's leaves
  /// with the count its position in the leaf run implies; nullptr for an
  /// internal page or a leaf that breaks the bulk-load shape.
  const LeafNode* ShapedLeaf(PageId pid, const PageRef& ref) const {
    const LeafNode* leaf = LeafAt(ref.get());
    if (leaf->is_leaf != 1) return nullptr;
    const uint64_t leaves = leaf_pages();
    if (pid < first_leaf_ || pid - first_leaf_ >= leaves) return nullptr;
    const uint64_t expected = pid - first_leaf_ + 1 < leaves
                                  ? kLeafCap
                                  : size_ - (leaves - 1) * kLeafCap;
    return leaf->count == expected ? leaf : nullptr;
  }

  /// The children of internal page `ref` whose ranges hold `lo` and `hi`;
  /// nullopt when the page is no internal node or sits deeper than
  /// `depth` allows.
  std::optional<std::pair<PageId, PageId>> ChildrenOf(const PageRef& ref,
                                                      int depth,
                                                      const Key& lo,
                                                      const Key& hi) const {
    const auto* node = InternalAt(ref.get());
    if (node->is_leaf != 0 || node->count > kInternalCap || depth <= 0) {
      return std::nullopt;
    }
    const Key* keys = node->keys;
    const PageId* kids = ChildrenArray(ref.get());
    auto child = [&](const Key& key) {
      return kids[std::upper_bound(keys, keys + node->count, key) - keys];
    };
    return std::make_pair(child(lo), child(hi));
  }

  /// Rank of `key`'s lower bound below page `pid` (at most `depth`
  /// internal levels): CountRange's descent once its two bounds diverged.
  std::optional<uint64_t> RankFrom(PageId pid, int depth,
                                   const Key& key) const {
    for (;; --depth) {
      PageRef ref = pool_->Fetch(pid);
      if (!ref) return std::nullopt;
      if (const LeafNode* leaf = ShapedLeaf(pid, ref)) {
        return (pid - first_leaf_) * uint64_t{kLeafCap} +
               LowerBound(leaf, 0, key);
      }
      std::optional<std::pair<PageId, PageId>> kids =
          ChildrenOf(ref, depth, key, key);
      if (!kids.has_value()) return std::nullopt;
      pid = kids->first;
    }
  }

  /// Walks from page `pid` (keys below `hi`, at most `depth` internal
  /// levels) down to the leaf whose range holds `key` — the last leaf
  /// whose first key is <= `key`, or the first leaf — and leaves `it` on
  /// it at slot 0 with the fences copied out on the way. Holds at most two
  /// pins at a time besides `it`'s own. Page payloads are untrusted (the
  /// snapshot preflight validates directories only): a node tag other
  /// than internal/leaf, an overrun key count, or a descent deeper than
  /// `depth` — a corrupt child id could otherwise cycle among internal
  /// pages forever — all end the walk with `it` at the end.
  bool Descend(PageId pid, Fence hi, int depth, const Key& key,
               Iterator* it) const {
    if (pid == kInvalidPage) {
      *it = Iterator();
      return false;
    }
    PageRef ref = pool_->Fetch(pid);
    Fences fences;
    fences.leaf_hi = hi;
    while (ref && ref->template As<uint32_t>()[0] == 0) {  // internal
      const auto* node = InternalAt(ref.get());
      if (node->count > kInternalCap || depth-- <= 0) {
        assert(false && "corrupt internal page");
        ref = PageRef();
        break;
      }
      const Key* keys = node->keys;
      const size_t count = node->count;
      const size_t idx = static_cast<size_t>(
          std::upper_bound(keys, keys + count, key) - keys);
      fences.parent = pid;
      fences.parent_hi = hi;
      fences.next_hi = idx + 1 < count    ? Fence::At(keys[idx + 1])
                       : idx + 1 == count ? hi
                                          : Fence();
      hi = idx < count ? Fence::At(keys[idx]) : hi;
      fences.leaf_hi = hi;
      pid = ChildrenArray(ref.get())[idx];
      ref = pool_->Fetch(pid);  // pins the child before the parent goes
    }
    if (!ref) {
      *it = Iterator();
      return false;
    }
    *it = Iterator(pool_, pid, 0, std::move(ref));
    it->fences_ = fences;
    return !it->at_end();
  }

  /// SkipTo's and SkipToFloor's last tiers: the pinned leaf's parent when
  /// its fence covers `key` (two fetches), else a root descent.
  bool Redescend(Iterator* it, const Key& key) const {
    const Fences& f = it->fences_;
    if (f.parent != kInvalidPage && f.parent_hi.Covers(key)) {
      return Descend(f.parent, f.parent_hi, 1, key, it);
    }
    return Descend(root_, Fence::Open(), height_ - 1, key, it);
  }

  /// Positions `it`, on the leaf holding `key`'s range, at the first
  /// record >= `key`: the next leaf's first when `key` falls after the
  /// leaf's last record.
  static void LandLowerBound(Iterator* it, const Key& key) {
    it->slot_ = LowerBound(it->leaf_, 0, key);
    if (it->slot_ >= it->leaf_->count) it->StepLeaf();
  }

  /// Moves `it` to the floor of `key` inside its leaf when the leaf
  /// provably holds it: the last leaf, a fence above `key`, or a last
  /// record at or past it. A floor before the current slot leaves `it`.
  static bool FloorInLeaf(Iterator* it, const Key& key) {
    const LeafNode* leaf = it->leaf_;
    if (leaf->next != kInvalidPage && !it->fences_.leaf_hi.Covers(key) &&
        KeyOf::Get(leaf->records[leaf->count - 1]) < key) {
      return false;
    }
    const uint32_t above = UpperBound(leaf, it->slot_, key);
    if (above > it->slot_) it->slot_ = above - 1;
    return true;
  }

  /// Positions `it`, on the leaf holding `key`'s range, at the last
  /// record <= `key`; at the end when `key` precedes the first record.
  static void LandFloor(Iterator* it, const Key& key) {
    const uint32_t above = UpperBound(it->leaf_, 0, key);
    if (above == 0) {
      *it = Iterator();
      return;
    }
    it->slot_ = above - 1;
  }

  /// First slot in [from, count) whose key is >= `key` (count if none).
  static uint32_t LowerBound(const LeafNode* leaf, uint32_t from,
                             const Key& key) {
    return FirstSlot(leaf, from, [&key](const Record& r) {
      return KeyOf::Get(r) < key;
    });
  }

  /// First slot in [from, count) whose key is > `key` (count if none).
  static uint32_t UpperBound(const LeafNode* leaf, uint32_t from,
                             const Key& key) {
    return FirstSlot(leaf, from, [&key](const Record& r) {
      return !(key < KeyOf::Get(r));
    });
  }

  /// First slot in [from, count) whose record fails `before`, which must
  /// hold for a prefix of the records.
  template <typename Pred>
  static uint32_t FirstSlot(const LeafNode* leaf, uint32_t from,
                            Pred before) {
    const Record* records = leaf->records;
    return static_cast<uint32_t>(
        std::partition_point(records + from, records + leaf->count, before) -
        records);
  }

  static LeafNode* LeafAt(Page* page) {
    return reinterpret_cast<LeafNode*>(page->bytes.data());
  }
  static const LeafNode* LeafAt(const Page* page) {
    return reinterpret_cast<const LeafNode*>(page->bytes.data());
  }
  static InternalNode* InternalAt(Page* page) {
    return reinterpret_cast<InternalNode*>(page->bytes.data());
  }
  static const InternalNode* InternalAt(const Page* page) {
    return reinterpret_cast<const InternalNode*>(page->bytes.data());
  }
  static PageId* ChildrenArray(Page* page) {
    return reinterpret_cast<PageId*>(page->bytes.data() +
                                     kInternalHeaderSize +
                                     kInternalCap * sizeof(Key));
  }
  static const PageId* ChildrenArray(const Page* page) {
    return reinterpret_cast<const PageId*>(page->bytes.data() +
                                           kInternalHeaderSize +
                                           kInternalCap * sizeof(Key));
  }

  BufferPool* pool_ = nullptr;
  PageId root_ = kInvalidPage;
  PageId first_leaf_ = kInvalidPage;
  size_t size_ = 0;
  int height_ = 0;
};

}  // namespace blas

#endif  // BLAS_STORAGE_BPTREE_H_
