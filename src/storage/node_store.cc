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

/// The value tree's order from the SP order in one stable counting pass on
/// `data`: records of one data id keep their (plabel, start) order, and
/// kNullData (the largest id) sorts last.
std::vector<NodeRecord> ByDataStable(const std::vector<NodeRecord>& by_sp) {
  uint64_t ids = 0;
  for (const NodeRecord& rec : by_sp) {
    if (rec.data != kNullData) ids = std::max<uint64_t>(ids, rec.data + 1ull);
  }
  auto bucket = [ids](const NodeRecord& rec) {
    return rec.data == kNullData ? ids : rec.data;
  };
  std::vector<size_t> next(ids + 2, 0);
  for (const NodeRecord& rec : by_sp) ++next[bucket(rec) + 1];
  for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<NodeRecord> out(by_sp.size());
  for (const NodeRecord& rec : by_sp) out[next[bucket(rec)]++] = rec;
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
  size_t first = pool_.page_count();
  sp_.Build(&pool_, records);
  tree_metas_[0] = capture(sp_, first);
  std::vector<NodeRecord> by_value = ByDataStable(records);
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
      tree_pages_(meta.tree_pages) {
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
  return meta;
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
        [id](const NodeRecord& rec) { return rec.data == id; }, range, level,
        windows);
  }
  return ScanWindows(
      sp_, [](PLabel plabel, uint32_t start) { return SpKey{plabel, start}; },
      [](const NodeRecord&) { return true; }, range, level, windows);
}

template <typename Tree, typename KeyFn, typename RunFn>
std::vector<NodeRecord> NodeStore::ScanWindows(
    const Tree& tree, KeyFn key_of, RunFn in_run, const PLabelRange& range,
    std::optional<int32_t> level,
    std::span<const StartWindow> windows) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = tree.Seek(key_of(range.lo, windows.front().lo));
  ReadaheadFrom(tree, it.page());
  PLabel plabel = range.lo;
  size_t w = 0;
  while (!it.at_end()) {
    const NodeRecord& rec = *it;
    if (!in_run(rec) || rec.plabel > range.hi) break;
    if (rec.plabel != plabel) {
      plabel = rec.plabel;
      w = 0;
    }
    w = WindowFor(windows, w, rec.start);
    if (w == windows.size()) {
      // Past this P-label's last window: on to the next P-label's first.
      if (plabel == range.hi) break;
      tree.SkipTo(&it, key_of(plabel + 1, windows.front().lo));
      continue;
    }
    if (rec.start < windows[w].lo) {
      tree.SkipTo(&it, key_of(plabel, windows[w].lo));
      continue;
    }
    ++visited;
    if (!level.has_value() || rec.level == *level) out.push_back(rec);
    ++it;
  }
  CountVisited(&elements_, visited);
  return out;
}

std::optional<std::vector<NodeRecord>> NodeStore::ScanValueCapped(
    const PLabelRange& range, uint32_t data, uint64_t cap) const {
  std::vector<NodeRecord> out;
  if (range.empty()) return out;
  bool over = false;
  for (auto it = vindex_.Seek(ValKey{range.lo, data, 0}); !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    if (rec.data != data || rec.plabel > range.hi) break;
    if (out.size() == cap) {
      over = true;
      break;
    }
    out.push_back(rec);
  }
  CountVisited(&elements_, out.size());
  if (over) return std::nullopt;
  return out;
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
        [id](const NodeRecord& rec) { return rec.data == id; }, ranges, lo,
        n);
  }
  return FirstByStartIn(
      sp_, [](PLabel plabel, uint32_t start) { return SpKey{plabel, start}; },
      [](const NodeRecord&) { return true; }, ranges, lo, n);
}

template <typename Tree, typename KeyFn, typename RunFn>
std::vector<NodeRecord> NodeStore::FirstByStartIn(
    const Tree& tree, KeyFn key_of, RunFn in_run,
    std::span<const PLabelRange> ranges, uint32_t lo, size_t n) const {
  std::vector<NodeRecord> heap;  // max-heap on start
  if (n == 0 || ranges.empty()) return heap;
  auto earlier = [](const NodeRecord& a, const NodeRecord& b) {
    return a.start < b.start;
  };
  uint64_t visited = 0;
  size_t r = 0;
  auto it = tree.Seek(key_of(ranges[0].lo, lo));
  ReadaheadFrom(tree, it.page());
  while (!it.at_end()) {
    const NodeRecord& rec = *it;
    if (!in_run(rec)) break;
    while (r < ranges.size() && rec.plabel > ranges[r].hi) ++r;
    if (r == ranges.size()) break;
    if (rec.plabel < ranges[r].lo) {
      tree.SkipTo(&it, key_of(ranges[r].lo, lo));
      continue;
    }
    if (rec.start < lo) {
      tree.SkipTo(&it, key_of(rec.plabel, lo));
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
    if (plabel == ranges[r].hi) {
      if (++r == ranges.size()) break;
      tree.SkipTo(&it, key_of(ranges[r].lo, lo));
    } else {
      tree.SkipTo(&it, key_of(plabel + 1, lo));
    }
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
