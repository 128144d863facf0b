#ifndef BLAS_STORAGE_BPTREE_H_
#define BLAS_STORAGE_BPTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace blas {

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
          leaf_(other.leaf_) {
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
      ++slot_;
      if (slot_ >= leaf_->count) {
        page_ = leaf_->next;
        slot_ = 0;
        if (page_ == kInvalidPage) {
          ref_ = PageRef();
          leaf_ = nullptr;
        } else {
          ref_ = pool_->Fetch(page_);
          leaf_ = ValidLeaf(ref_);
          if (leaf_ == nullptr) page_ = kInvalidPage;
        }
      }
      return *this;
    }

   private:
    friend class BPlusTree;

    const BufferPool* pool_ = nullptr;
    PageId page_ = kInvalidPage;
    uint32_t slot_ = 0;
    PageRef ref_;
    const LeafNode* leaf_ = nullptr;
  };

  /// Iterator positioned at the first record with key >= `key`.
  /// Touches exactly one page per tree level; the descent holds at most
  /// two pins at a time (hand-over-hand parent/child). Page payloads are
  /// untrusted (the snapshot preflight validates directories only): a
  /// node tag other than internal/leaf, an overrun key count, or a
  /// descent deeper than the recorded height — a corrupt child id could
  /// otherwise cycle among internal pages forever — all end the seek.
  Iterator Seek(const Key& key) const {
    if (root_ == kInvalidPage) return Iterator();
    PageId pid = root_;
    PageRef ref = pool_->Fetch(pid);
    if (!ref) return Iterator();
    int depth = 0;
    while (ref->template As<uint32_t>()[0] == 0) {  // internal
      const auto* node = InternalAt(ref.get());
      if (node->count > kInternalCap || ++depth >= height_) {
        assert(false && "corrupt internal page");
        return Iterator();
      }
      const Key* begin = node->keys;
      const Key* end = node->keys + node->count;
      size_t idx = static_cast<size_t>(
          std::upper_bound(begin, end, key) - begin);
      pid = ChildrenArray(ref.get())[idx];
      PageRef child = pool_->Fetch(pid);
      if (!child) return Iterator();
      ref = std::move(child);
    }
    const LeafNode* leaf = ValidLeaf(ref);
    if (leaf == nullptr) return Iterator();
    uint32_t lo = LowerBound(leaf, 0, key);
    if (lo >= leaf->count) {
      // Key larger than everything in this leaf; step to the next one.
      return Iterator(pool_, leaf->next, 0);
    }
    return Iterator(pool_, pid, lo, std::move(ref));
  }

  /// Moves `it` forward to the first record with key >= `key`; a key at or
  /// before the current record leaves it in place. Three tiers, cheapest
  /// first: a binary search in the leaf `it` already pins (no page
  /// access), then in the sibling leaf (one fetch), then a root descent
  /// (Seek; after the sibling probe, height + 1 fetches in all). `it`
  /// keeps its pin until the leaf it moves to is pinned, so the record
  /// under it stays valid until it moves.
  void SkipTo(Iterator* it, const Key& key) const {
    if (it->at_end()) return;
    const LeafNode* leaf = it->leaf_;
    if (!(KeyOf::Get(leaf->records[leaf->count - 1]) < key)) {
      it->slot_ = LowerBound(leaf, it->slot_, key);
      return;
    }
    const PageId next = leaf->next;
    if (next == kInvalidPage) {
      *it = Iterator();
      return;
    }
    PageRef ref = pool_->Fetch(next);
    const LeafNode* sibling = ValidLeaf(ref);
    if (sibling == nullptr) {
      *it = Iterator();
      return;
    }
    if (!(KeyOf::Get(sibling->records[sibling->count - 1]) < key)) {
      *it = Iterator(pool_, next, LowerBound(sibling, 0, key),
                     std::move(ref));
      return;
    }
    ref = PageRef();
    *it = Seek(key);
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
  /// First slot in [from, count) whose key is >= `key` (count if none).
  static uint32_t LowerBound(const LeafNode* leaf, uint32_t from,
                             const Key& key) {
    uint32_t lo = from;
    uint32_t hi = leaf->count;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (KeyOf::Get(leaf->records[mid]) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
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
