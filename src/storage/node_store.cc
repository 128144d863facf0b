#include "storage/node_store.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace blas {

namespace {

/// Flushes a scan's visited-element count into the store-wide atomic and
/// the current thread's counter scope. One add per scan instead of one
/// atomic RMW per record keeps the hot loop cheap.
void CountVisited(std::atomic<uint64_t>* total, uint64_t visited) {
  if (visited == 0) return;
  total->fetch_add(visited, std::memory_order_relaxed);
  if (ReadCounters* counters = ReadCounterScope::Current()) {
    counters->elements += visited;
  }
}

/// Index of the first window at or after `from` that ends at or after
/// `start` (windows.size() if none). The common case — `start` still
/// inside window `from` — costs one comparison.
size_t WindowFor(std::span<const StartWindow> windows, size_t from,
                 uint32_t start) {
  if (from < windows.size() && windows[from].hi >= start) return from;
  return static_cast<size_t>(
      std::partition_point(windows.begin() + static_cast<ptrdiff_t>(from),
                           windows.end(),
                           [start](const StartWindow& w) {
                             return w.hi < start;
                           }) -
      windows.begin());
}

/// The value tree's order, (plabel, data, start) over the records that
/// carry a value, from the SP order (plabel, start) in two stable
/// counting passes: by data id, then by the P-label's rank among SP's
/// runs. No record comparison.
std::vector<NodeRecord> ValueOrder(const std::vector<NodeRecord>& by_sp) {
  std::vector<uint32_t> rank(by_sp.size());
  uint32_t ranks = 0;
  uint64_t ids = 0;
  size_t valued = 0;
  for (size_t i = 0; i < by_sp.size(); ++i) {
    if (i > 0 && by_sp[i].plabel != by_sp[i - 1].plabel) ++ranks;
    rank[i] = ranks;
    if (by_sp[i].data != kNullData) {
      ids = std::max<uint64_t>(ids, by_sp[i].data + 1ull);
      ++valued;
    }
  }
  std::vector<size_t> next(ids + 1, 0);
  for (const NodeRecord& rec : by_sp) {
    if (rec.data != kNullData) ++next[rec.data + 1];
  }
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<uint32_t> by_data(valued);  // SP positions, by data id
  for (size_t i = 0; i < by_sp.size(); ++i) {
    if (by_sp[i].data != kNullData) {
      by_data[next[by_sp[i].data]++] = static_cast<uint32_t>(i);
    }
  }
  next.assign(size_t{ranks} + 2, 0);
  for (uint32_t i : by_data) ++next[rank[i] + 1];
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<NodeRecord> out(valued);
  for (uint32_t i : by_data) out[next[rank[i]]++] = by_sp[i];
  return out;
}

}  // namespace

NodeStore::NodeStore(std::vector<NodeRecord> records, size_t cache_pages,
                     size_t cache_shards)
    : pool_(cache_pages, cache_shards), count_(records.size()) {
  // Bulk loading allocates each tree's pages in one contiguous run, so
  // recording the pool size around every Build captures the page range
  // the BLASIDX2 segment directory needs.
  auto capture = [this](const auto& tree, size_t first) {
    BPlusTreeMeta meta;
    meta.root = tree.root();
    meta.first_leaf = tree.first_leaf();
    meta.size = tree.size();
    meta.height = tree.height();
    meta.first_page = static_cast<PageId>(first);
    meta.page_count = static_cast<uint32_t>(pool_.page_count() - first);
    return meta;
  };
  auto sort_by = [&records]<typename KeyOf>(KeyOf) {
    std::sort(records.begin(), records.end(),
              [](const NodeRecord& a, const NodeRecord& b) {
                return KeyOf::Get(a) < KeyOf::Get(b);
              });
  };
  sort_by(SpKeyOf{});
  for (const NodeRecord& rec : records) {
    if (plabels_.empty() || plabels_.back() != rec.plabel) {
      plabels_.push_back(rec.plabel);
    }
  }
  size_t first = pool_.page_count();
  sp_.Build(&pool_, records);
  tree_metas_[0] = capture(sp_, first);
  std::vector<NodeRecord> by_value = ValueOrder(records);
  sort_by(SdKeyOf{});
  first = pool_.page_count();
  sd_.Build(&pool_, records);
  tree_metas_[1] = capture(sd_, first);
  first = pool_.page_count();
  vindex_.Build(&pool_, by_value);
  tree_metas_[2] = capture(vindex_, first);
  by_value = {};
  sort_by(StartKeyOf{});
  first = pool_.page_count();
  doc_.Build(&pool_, records);
  tree_metas_[3] = capture(doc_, first);
  tree_pages_ = pool_.page_count();
}

NodeStore::NodeStore(PagedFile file, const PagedStoreMeta& meta,
                     const StorageOptions& options)
    : pool_(std::move(file), options),
      tree_metas_{meta.sp, meta.sd, meta.value, meta.doc},
      count_(meta.record_count),
      tree_pages_(meta.tree_pages),
      plabels_(meta.plabels) {
  sp_.Attach(&pool_, meta.sp.root, meta.sp.first_leaf, meta.sp.size,
             meta.sp.height);
  sd_.Attach(&pool_, meta.sd.root, meta.sd.first_leaf, meta.sd.size,
             meta.sd.height);
  vindex_.Attach(&pool_, meta.value.root, meta.value.first_leaf,
                 meta.value.size, meta.value.height);
  doc_.Attach(&pool_, meta.doc.root, meta.doc.first_leaf, meta.doc.size,
              meta.doc.height);
}

PagedStoreMeta NodeStore::paged_meta() const {
  PagedStoreMeta meta;
  meta.sp = tree_metas_[0];
  meta.sd = tree_metas_[1];
  meta.value = tree_metas_[2];
  meta.doc = tree_metas_[3];
  meta.record_count = count_;
  meta.tree_pages = tree_pages_;
  meta.plabels = plabels_;
  return meta;
}

std::optional<PLabel> NodeStore::LabelWalk::First(PLabel lo) const {
  if (plabels == nullptr) return lo;
  auto it = std::lower_bound(plabels->begin(), plabels->end(), lo);
  if (it == plabels->end()) return std::nullopt;
  return *it;
}

std::optional<PLabel> NodeStore::LabelWalk::After(PLabel p) const {
  if (plabels == nullptr) {
    if (p == ~PLabel{0}) return std::nullopt;
    return p + 1;
  }
  auto it = std::upper_bound(plabels->begin(), plabels->end(), p);
  if (it == plabels->end()) return std::nullopt;
  return *it;
}

std::vector<NodeRecord> NodeStore::ScanPlabelRange(
    const PLabelRange& range, std::optional<uint32_t> data,
    std::optional<int32_t> level,
    std::span<const StartWindow> windows) const {
  if (range.empty() || windows.empty()) return {};
  if (data.has_value()) {
    const uint32_t id = *data;
    return ScanWindows(
        vindex_,
        [id](PLabel plabel, uint32_t start) {
          return ValKey{plabel, id, start};
        },
        LabelWalk{&plabels_}, data, range, level, windows);
  }
  return ScanWindows(
      sp_, [](PLabel plabel, uint32_t start) { return SpKey{plabel, start}; },
      LabelWalk{}, data, range, level, windows);
}

template <typename Tree, typename KeyFn>
std::vector<NodeRecord> NodeStore::ScanWindows(
    const Tree& tree, KeyFn key_of, LabelWalk walk,
    std::optional<uint32_t> data, const PLabelRange& range,
    std::optional<int32_t> level,
    std::span<const StartWindow> windows) const {
  std::vector<NodeRecord> out;
  const std::optional<PLabel> first = walk.First(range.lo);
  if (!first.has_value() || *first > range.hi) return out;
  uint64_t visited = 0;
  auto it = tree.Seek(key_of(*first, windows.front().lo));
  ReadaheadFrom(tree, it.page());
  PLabel plabel = *first;
  size_t w = 0;
  while (!it.at_end()) {
    const NodeRecord& rec = *it;
    if (rec.plabel > range.hi) break;
    std::optional<PLabel> next;  // the P-label whose first window is next
    if (data.has_value() && rec.data != *data) {
      // Another id's run: this P-label's run of the id, or the next's.
      next = rec.data < *data ? rec.plabel : walk.After(rec.plabel);
    } else {
      if (rec.plabel != plabel) {
        plabel = rec.plabel;
        w = 0;
      }
      w = WindowFor(windows, w, rec.start);
      if (w < windows.size() && rec.start < windows[w].lo) {
        tree.SkipTo(&it, key_of(plabel, windows[w].lo));
        continue;
      }
      if (w < windows.size()) {
        ++visited;
        if (!level.has_value() || rec.level == *level) out.push_back(rec);
        ++it;
        continue;
      }
      // Past this P-label's last window.
      next = walk.After(plabel);
    }
    if (!next.has_value() || *next > range.hi) break;
    tree.SkipTo(&it, key_of(*next, windows.front().lo));
  }
  CountVisited(&elements_, visited);
  return out;
}

std::optional<std::vector<NodeRecord>> NodeStore::ScanValueCapped(
    const PLabelRange& range, uint32_t data, uint64_t cap) const {
  std::vector<NodeRecord> out;
  const LabelWalk walk{&plabels_};
  const std::optional<PLabel> first = walk.First(range.lo);
  if (range.empty() || !first.has_value() || *first > range.hi) return out;
  bool over = false;
  auto it = vindex_.Seek(ValKey{*first, data, 0});
  while (!it.at_end()) {
    const NodeRecord& rec = *it;
    if (rec.plabel > range.hi) break;
    if (rec.data != data) {
      const std::optional<PLabel> next =
          rec.data < data ? rec.plabel : walk.After(rec.plabel);
      if (!next.has_value() || *next > range.hi) break;
      vindex_.SkipTo(&it, ValKey{*next, data, 0});
      continue;
    }
    if (out.size() == cap) {
      over = true;
      break;
    }
    out.push_back(rec);
    ++it;
  }
  CountVisited(&elements_, out.size());
  if (over) return std::nullopt;
  return out;
}

Result<uint64_t> NodeStore::CountValues(PLabel plabel, uint32_t lo,
                                        uint32_t hi) const {
  if (lo >= hi) return uint64_t{0};
  std::optional<uint64_t> n =
      vindex_.CountRange(ValKey{plabel, lo, 0}, ValKey{plabel, hi, 0});
  if (!n.has_value()) {
    return Status::Corruption("value tree leaves break the bulk-load shape");
  }
  return *n;
}

std::vector<NodeRecord> NodeStore::FirstByStart(
    std::span<const PLabelRange> ranges, std::optional<uint32_t> data,
    uint32_t lo, size_t n) const {
  if (data.has_value()) {
    const uint32_t id = *data;
    return FirstByStartIn(
        vindex_,
        [id](PLabel plabel, uint32_t start) {
          return ValKey{plabel, id, start};
        },
        LabelWalk{&plabels_}, data, ranges, lo, n);
  }
  return FirstByStartIn(
      sp_, [](PLabel plabel, uint32_t start) { return SpKey{plabel, start}; },
      LabelWalk{}, data, ranges, lo, n);
}

template <typename Tree, typename KeyFn>
std::vector<NodeRecord> NodeStore::FirstByStartIn(
    const Tree& tree, KeyFn key_of, LabelWalk walk,
    std::optional<uint32_t> data, std::span<const PLabelRange> ranges,
    uint32_t lo, size_t n) const {
  std::vector<NodeRecord> heap;  // max-heap on start
  if (n == 0 || ranges.empty()) return heap;
  const std::optional<PLabel> first = walk.First(ranges[0].lo);
  if (!first.has_value()) return heap;
  auto earlier = [](const NodeRecord& a, const NodeRecord& b) {
    return a.start < b.start;
  };
  uint64_t visited = 0;
  size_t r = 0;
  auto it = tree.Seek(key_of(*first, lo));
  ReadaheadFrom(tree, it.page());
  while (!it.at_end()) {
    const NodeRecord& rec = *it;
    while (r < ranges.size() && rec.plabel > ranges[r].hi) ++r;
    if (r == ranges.size()) break;
    // A record not to visit: where the read goes on instead.
    bool visit = false;
    std::optional<PLabel> next;
    if (rec.plabel < ranges[r].lo) {
      next = walk.First(ranges[r].lo);
    } else if (data.has_value() && rec.data != *data) {
      next = rec.data < *data ? rec.plabel : walk.After(rec.plabel);
    } else if (rec.start < lo) {
      next = rec.plabel;
    } else {
      visit = true;
    }
    if (!visit) {
      if (!next.has_value()) break;
      tree.SkipTo(&it, key_of(*next, lo));
      continue;
    }
    ++visited;
    const PLabel plabel = rec.plabel;
    bool full = heap.size() == n;
    if (!full) {
      heap.push_back(rec);
      std::push_heap(heap.begin(), heap.end(), earlier);
    } else if (rec.start < heap.front().start) {
      std::pop_heap(heap.begin(), heap.end(), earlier);
      heap.back() = rec;
      std::push_heap(heap.begin(), heap.end(), earlier);
    }
    full = heap.size() == n;
    if (!full || heap.front().start > rec.start) {
      ++it;
      continue;
    }
    // Whether this record was rejected or entered as the largest, the
    // rest of its P-label starts later still: on to the next P-label.
    next = walk.After(plabel);
    if (!next.has_value() || *next > ranges[r].hi) {
      if (++r == ranges.size()) break;
      next = walk.First(ranges[r].lo);
      if (!next.has_value()) break;
    }
    tree.SkipTo(&it, key_of(*next, lo));
  }
  CountVisited(&elements_, visited);
  std::sort_heap(heap.begin(), heap.end(), earlier);
  return heap;
}

std::vector<NodeRecord> NodeStore::SeekAncestors(
    std::span<const SpKey> targets) const {
  std::vector<NodeRecord> out;
  if (targets.empty()) return out;
  auto it = sp_.SeekFloor(targets.front());
  for (const SpKey& target : targets) {
    if (!out.empty() && out.back().plabel == target.plabel &&
        out.back().start < target.start && target.start < out.back().end) {
      continue;  // inside the ancestor found last
    }
    sp_.SkipToFloor(&it, target);
    if (it.at_end()) break;
    // A floor that does not contain the target names no ancestor (a
    // target off every stored path, e.g. from a corrupt snapshot).
    const NodeRecord& rec = *it;
    if (rec.plabel != target.plabel || rec.end < target.start) continue;
    out.push_back(rec);
  }
  CountVisited(&elements_, out.size());
  return out;
}

std::vector<NodeRecord> NodeStore::ScanTag(TagId tag,
                                           std::optional<uint32_t> data) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = sd_.Seek(SdKey{tag, 0});
  ReadaheadFrom(sd_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    if (rec.tag != tag) break;
    ++visited;
    if (data.has_value() && rec.data != *data) continue;
    out.push_back(rec);
  }
  CountVisited(&elements_, visited);
  return out;
}

std::vector<NodeRecord> NodeStore::ScanAll(
    std::optional<uint32_t> data) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = sd_.Begin();
  ReadaheadFrom(sd_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    ++visited;
    if (data.has_value() && rec.data != *data) continue;
    out.push_back(rec);
  }
  CountVisited(&elements_, visited);
  return out;
}

std::optional<NodeRecord> NodeStore::FindByStart(uint32_t start) const {
  auto it = doc_.Seek(start);
  if (it.at_end() || it->start != start) return std::nullopt;
  CountVisited(&elements_, 1);
  return *it;
}

NodeStore::TagScan::TagScan(const NodeStore* store, TagId tag,
                            std::vector<StartWindow> windows)
    : ScanBase(store, windows.empty()
                          ? Iterator()
                          : store->sd_.Seek(SdKey{tag, windows.front().lo})),
      tag_(tag),
      windows_(std::move(windows)) {
  // Cold-start hint: one ranged readahead over the leaf run this cursor
  // is about to stream, instead of faulting page-by-page.
  store->ReadaheadFrom(store->sd_, it_.page());
}

const NodeRecord* NodeStore::TagScan::Next() {
  while (!it_.at_end() && it_->tag == tag_) {
    const uint32_t start = it_->start;
    window_ = WindowFor(windows_, window_, start);
    if (window_ == windows_.size()) return nullptr;
    if (start < windows_[window_].lo) {
      store()->sd_.SkipTo(&it_, SdKey{tag_, windows_[window_].lo});
      continue;
    }
    return Step();
  }
  return nullptr;
}

NodeStore::DocScan::DocScan(const NodeStore* store, uint32_t lo, uint32_t hi)
    : ScanBase(store, store->doc_.Seek(lo)), hi_(hi) {
  store->ReadaheadFrom(store->doc_, it_.page());
}

const NodeRecord* NodeStore::DocScan::Next() {
  if (it_.at_end() || it_->start > hi_) return nullptr;
  return Step();
}

std::vector<NodeRecord> NodeStore::ExportRecords() const {
  std::vector<NodeRecord> out;
  out.reserve(count_);
  sp_.ForEachRecord([&](const NodeRecord& rec) { out.push_back(rec); });
  return out;
}

StorageStats NodeStore::stats() const {
  StorageStats s;
  s.elements = elements_.load(std::memory_order_relaxed);
  BufferPool::Stats pool_stats = pool_.stats();
  s.page_fetches = pool_stats.fetches;
  s.page_misses = pool_stats.misses;
  s.io_reads = pool_stats.io_reads;
  return s;
}

void NodeStore::ResetStats() {
  elements_.store(0, std::memory_order_relaxed);
  pool_.ResetStats();
}

}  // namespace blas
