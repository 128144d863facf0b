#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "gen/generator.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {
namespace {

TEST(BufferPoolTest, AllocateAndMutate) {
  BufferPool pool(4);
  PageId a = pool.Allocate();
  PageId b = pool.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pool.page_count(), 2u);
  pool.MutablePage(a)->bytes[0] = std::byte{42};
  EXPECT_EQ(pool.stats().fetches, 0u);  // build-time access uncounted
}

TEST(BufferPoolTest, LruCountsMisses) {
  BufferPool pool(2);
  PageId p0 = pool.Allocate();
  PageId p1 = pool.Allocate();
  PageId p2 = pool.Allocate();

  // The refs are deliberately discarded: only the hit/miss counters are
  // under test, so each fetch pins and immediately unpins.
  (void)pool.Fetch(p0);  // miss
  (void)pool.Fetch(p0);  // hit
  (void)pool.Fetch(p1);  // miss
  (void)pool.Fetch(p2);  // miss, evicts p0 (LRU)
  (void)pool.Fetch(p0);  // miss again
  EXPECT_EQ(pool.stats().fetches, 5u);
  EXPECT_EQ(pool.stats().misses, 4u);

  pool.ResetStats();
  EXPECT_EQ(pool.stats().fetches, 0u);
  pool.DropCache();
  (void)pool.Fetch(p0);
  EXPECT_EQ(pool.stats().misses, 1u);  // cold again after DropCache
}

TEST(BufferPoolTest, ShardingIsCapacityScaledAndOverridable) {
  BufferPool tiny(2);
  EXPECT_EQ(tiny.shard_count(), 1u);  // exact LRU below 128 frames
  BufferPool large(4096);
  EXPECT_EQ(large.shard_count(), 16u);  // auto-sharded for concurrency
  BufferPool pinned(4096, /*shards=*/1);
  EXPECT_EQ(pinned.shard_count(), 1u);  // paper-exact miss accounting
}

TEST(StringDictTest, InternAndFind) {
  StringDict dict;
  uint32_t a = dict.Intern("alpha");
  uint32_t b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  EXPECT_EQ(dict.Get(a), "alpha");
  EXPECT_EQ(dict.Find("beta"), std::optional<uint32_t>(b));
  EXPECT_EQ(dict.Find("gamma"), std::nullopt);
  EXPECT_EQ(dict.size(), 2u);
}

// A small fixed-size record for direct B+-tree tests.
struct IntRec {
  uint64_t key;
  uint64_t payload;
};
struct IntKeyOf {
  static uint64_t Get(const IntRec& r) { return r.key; }
};
using IntTree = BPlusTree<IntRec, uint64_t, IntKeyOf>;

TEST(BPlusTreeTest, EmptyTree) {
  BufferPool pool(16);
  IntTree tree;
  tree.Build(&pool, {});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Seek(0).at_end());
  EXPECT_TRUE(tree.Begin().at_end());
}

TEST(BPlusTreeTest, SingleLeaf) {
  BufferPool pool(16);
  std::vector<IntRec> recs;
  for (uint64_t i = 0; i < 10; ++i) recs.push_back({i * 2, i});
  IntTree tree;
  tree.Build(&pool, recs);
  EXPECT_EQ(tree.height(), 1);

  auto it = tree.Seek(6);
  ASSERT_FALSE(it.at_end());
  EXPECT_EQ(it->key, 6u);
  it = tree.Seek(7);  // between keys -> next larger
  ASSERT_FALSE(it.at_end());
  EXPECT_EQ(it->key, 8u);
  it = tree.Seek(100);
  EXPECT_TRUE(it.at_end());
}

TEST(BPlusTreeTest, MultiLevelSeekAndScan) {
  BufferPool pool(4096);
  std::vector<IntRec> recs;
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) recs.push_back({i * 3 + 1, i});
  IntTree tree;
  tree.Build(&pool, recs);
  EXPECT_GE(tree.height(), 2);

  // Every key (and its neighbors) seeks correctly.
  for (uint64_t probe : {0ULL, 1ULL, 2ULL, 4ULL, 29998ULL, 150000ULL,
                         299998ULL, 299999ULL}) {
    auto it = tree.Seek(probe);
    uint64_t expected = ((probe + 1) / 3) * 3 + 1;
    if (expected < probe) expected += 3;
    if (expected > (kN - 1) * 3 + 1) {
      EXPECT_TRUE(it.at_end()) << probe;
    } else {
      ASSERT_FALSE(it.at_end()) << probe;
      EXPECT_EQ(it->key, expected) << probe;
    }
  }

  // Full scan from Begin visits all records in order.
  uint64_t count = 0;
  uint64_t prev = 0;
  for (auto it = tree.Begin(); !it.at_end(); ++it) {
    if (count > 0) EXPECT_LT(prev, it->key);
    prev = it->key;
    ++count;
  }
  EXPECT_EQ(count, kN);
}

TEST(BPlusTreeTest, PageFetchesAreCounted) {
  BufferPool pool(4096);
  std::vector<IntRec> recs;
  for (uint64_t i = 0; i < 50000; ++i) recs.push_back({i, i});
  IntTree tree;
  tree.Build(&pool, recs);
  pool.ResetStats();
  auto it = tree.Seek(25000);
  ASSERT_FALSE(it.at_end());
  // A point lookup touches exactly `height` pages.
  EXPECT_EQ(pool.stats().fetches, static_cast<uint64_t>(tree.height()));
}

TEST(BPlusTreeTest, NodeRecordLeavesHold255Records) {
  // (8192 - 16-byte leaf header) / 32-byte records.
  EXPECT_EQ((BPlusTree<NodeRecord, SpKey, SpKeyOf>::kLeafCap), 255u);
}

// Packed separator keys: 8180 bytes after the 8-byte header and the
// extra child id, over a 20-byte SpKey or 24-byte ValKey plus its child.
static_assert(BPlusTree<NodeRecord, SpKey, SpKeyOf>::kInternalCap >= 340);
static_assert(BPlusTree<NodeRecord, ValKey, ValKeyOf>::kInternalCap >= 292);

TEST(BPlusTreeTest, DefaultAuctionShardTreesAreTwoLevels) {
  // The default auction document is one shard of the collection
  // workloads: a root and its leaves for SP, SD and the value tree, so
  // every seek, floor seek and re-descent costs two fetches. A key wide
  // enough to add a level here would add a fetch to each of them.
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok()) << sys.status();
  const PagedStoreMeta meta = sys->store().paged_meta();
  EXPECT_GT(meta.record_count, 60000u);
  EXPECT_EQ(meta.sp.height, 2);
  EXPECT_EQ(meta.value.height, 2);
  EXPECT_EQ(meta.sd.height, 2);
}

std::vector<NodeRecord> MakeRecords() {
  // Five nodes across two plabels/tags with values.
  std::vector<NodeRecord> recs;
  auto add = [&](PLabel p, uint32_t start, uint32_t end, uint32_t tag,
                 int32_t level, uint32_t data) {
    NodeRecord r;
    r.plabel = p;
    r.start = start;
    r.end = end;
    r.tag = tag;
    r.level = level;
    r.data = data;
    recs.push_back(r);
  };
  add(100, 1, 10, 1, 1, kNullData);
  add(200, 2, 5, 2, 2, 7);
  add(200, 6, 9, 2, 2, 8);
  add(300, 3, 4, 3, 3, 7);
  add(150, 7, 8, 3, 3, kNullData);
  return recs;
}

TEST(NodeStoreTest, PlabelRangeScan) {
  NodeStore store(MakeRecords(), 64);
  auto out = store.ScanPlabelRange(PLabelRange{150, 250});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].plabel, static_cast<PLabel>(150));
  EXPECT_EQ(out[1].start, 2u);  // (200,2) before (200,6)
  EXPECT_EQ(out[2].start, 6u);
  EXPECT_EQ(store.stats().elements, 3u);
}

TEST(NodeStoreTest, PlabelEqualityAndFilters) {
  NodeStore store(MakeRecords(), 64);
  auto all200 = store.ScanPlabelRange(PLabelRange{200, 200});
  EXPECT_EQ(all200.size(), 2u);
  auto with_data = store.ScanPlabelRange(PLabelRange{200, 200}, 7);
  ASSERT_EQ(with_data.size(), 1u);
  EXPECT_EQ(with_data[0].start, 2u);
  // The equality literal seeks the value tree: only its match is visited.
  EXPECT_EQ(store.stats().elements, 3u);
  // Tuples filtered out by a residual level still count as visited.
  auto level3 = store.ScanPlabelRange(PLabelRange{200, 200}, std::nullopt, 3);
  EXPECT_TRUE(level3.empty());
  EXPECT_EQ(store.stats().elements, 5u);
  auto empty = store.ScanPlabelRange(PLabelRange{}, std::nullopt);
  EXPECT_TRUE(empty.empty());
}

TEST(NodeStoreTest, TagScan) {
  NodeStore store(MakeRecords(), 64);
  auto tag3 = store.ScanTag(3);
  ASSERT_EQ(tag3.size(), 2u);
  EXPECT_EQ(tag3[0].start, 3u);
  EXPECT_EQ(tag3[1].start, 7u);
  EXPECT_TRUE(store.ScanTag(99).empty());
}

TEST(NodeStoreTest, ScanAllAndValueIndex) {
  NodeStore store(MakeRecords(), 64);
  EXPECT_EQ(store.ScanAll().size(), 5u);
  store.ResetStats();
  // Every P-label with data 7, in (plabel, start) order.
  auto v7 = store.ScanPlabelRange(PLabelRange{0, 1000}, 7);
  ASSERT_EQ(v7.size(), 2u);
  EXPECT_EQ(v7[0].start, 2u);
  EXPECT_EQ(v7[1].start, 3u);
  EXPECT_EQ(store.stats().elements, 2u);
  EXPECT_TRUE(store.ScanPlabelRange(PLabelRange{0, 1000}, 9).empty());
  EXPECT_TRUE(store.ScanPlabelRange(PLabelRange{250, 1000}, 8).empty());
}

TEST(NodeStoreTest, StatsAccumulateAndReset) {
  NodeStore store(MakeRecords(), 64);
  store.ScanAll();
  StorageStats s = store.stats();
  EXPECT_EQ(s.elements, 5u);
  EXPECT_GT(s.page_fetches, 0u);
  store.ResetStats();
  EXPECT_EQ(store.stats().elements, 0u);
  EXPECT_EQ(store.stats().page_fetches, 0u);
}

TEST(NodeStoreTest, LargeStoreRangeMatchesBruteForce) {
  std::vector<NodeRecord> recs;
  for (uint32_t i = 0; i < 20000; ++i) {
    NodeRecord r;
    r.plabel = static_cast<PLabel>((i * 37) % 1000);
    r.start = i + 1;
    r.end = i + 1;  // structural fields irrelevant here
    r.tag = i % 50;
    r.level = 1;
    r.data = kNullData;
    recs.push_back(r);
  }
  NodeStore store(recs, 512);
  PLabelRange range{100, 199};
  auto got = store.ScanPlabelRange(range);
  size_t expected = 0;
  for (const auto& r : recs) {
    if (range.Contains(r.plabel)) ++expected;
  }
  EXPECT_EQ(got.size(), expected);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                             [](const NodeRecord& a, const NodeRecord& b) {
                               return SpKeyOf::Get(a) < SpKeyOf::Get(b);
                             }));

  auto tag7 = store.ScanTag(7);
  size_t expected_tag = 0;
  for (const auto& r : recs) {
    if (r.tag == 7) ++expected_tag;
  }
  EXPECT_EQ(tag7.size(), expected_tag);
}

// ------------------------------------------------------------- skipping ---

/// 100,000 records keyed by (plabel, start): 393 leaves under a height-3
/// tree (340 SpKeys, 341 children per internal node).
class SkipToTest : public ::testing::Test {
 public:
  using Tree = BPlusTree<NodeRecord, SpKey, SpKeyOf>;

 protected:
  void SetUp() override {
    for (uint32_t i = 0; i < 100000; ++i) {
      NodeRecord r;
      r.plabel = 5;
      r.start = 2 * i;  // even starts only
      recs_.push_back(r);
    }
    tree_.Build(&pool_, recs_);
    ASSERT_EQ(tree_.height(), 3);
  }

  /// Page fetches of one SkipTo from `it` to start `to`.
  uint64_t FetchesOf(Tree::Iterator* it, uint32_t to) {
    pool_.ResetStats();
    tree_.SkipTo(it, SpKey{5, to});
    return pool_.stats().fetches;
  }

  BufferPool pool_{4096};
  Tree tree_;
  std::vector<NodeRecord> recs_;
};

TEST_F(SkipToTest, FetchesZeroInLeafOneForTheSiblingTwoInTheParent) {
  // 393 leaves: the root's first child parents leaves 0-340, its second
  // leaves 341-392.
  constexpr uint32_t kCap = Tree::kLeafCap;
  const uint64_t height = static_cast<uint64_t>(tree_.height());
  Tree::Iterator it = tree_.Seek(SpKey{5, 0});
  // In the pinned leaf: a binary search, no page access.
  EXPECT_EQ(FetchesOf(&it, 2 * 100 + 1), 0u);
  EXPECT_EQ(it->start, 2u * 101);  // odd target: the next even start
  // Backwards or onto the current record: stays put.
  EXPECT_EQ(FetchesOf(&it, 10), 0u);
  EXPECT_EQ(it->start, 2u * 101);
  // Inside the parent, the fences rule the sibling out: parent + child.
  EXPECT_EQ(FetchesOf(&it, 2 * (60 * kCap + 3)), 2u);
  EXPECT_EQ(it->start, 2u * (60 * kCap + 3));
  // Beyond the parent: a root descent.
  EXPECT_EQ(FetchesOf(&it, 2 * (360 * kCap + 3)), height);
  EXPECT_EQ(it->start, 2u * (360 * kCap + 3));
  // In the sibling leaf the fences place it in: one fetch.
  EXPECT_EQ(FetchesOf(&it, 2 * (361 * kCap + 7)), 1u);
  EXPECT_EQ(it->start, 2u * (361 * kCap + 7));
  // Past the leaves the last descent saw, the sibling's fence is unknown:
  // the sibling is probed first (one fetch when it holds the key, then
  // the parent tier).
  EXPECT_EQ(FetchesOf(&it, 2 * (362 * kCap + 7)), 1u);
  EXPECT_EQ(FetchesOf(&it, 2 * (380 * kCap + 7)), 1u + 2u);
  EXPECT_EQ(it->start, 2u * (380 * kCap + 7));
  // Past the last record: the iterator ends.
  tree_.SkipTo(&it, SpKey{6, 0});
  EXPECT_TRUE(it.at_end());
  tree_.SkipTo(&it, SpKey{7, 0});  // no-op at the end
  EXPECT_TRUE(it.at_end());
}

TEST_F(SkipToTest, IteratesOnFromTheLandingSlot) {
  Tree::Iterator it = tree_.Seek(SpKey{5, 0});
  tree_.SkipTo(&it, SpKey{5, 2 * 1000});
  std::vector<uint32_t> seen;
  for (int i = 0; i < 400 && !it.at_end(); ++i, ++it) {
    seen.push_back(it->start);
  }
  ASSERT_EQ(seen.size(), 400u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 2 * (1000 + i));
  }
}

/// Page fetches SkipTo cost before the iterator learned fence keys: 0 in
/// the pinned leaf, 1 for the sibling, else the sibling probe plus a root
/// descent (plus one more when the key falls after the last record of the
/// leaf the descent reaches).
uint64_t UnfencedSkipFetches(const std::vector<uint32_t>& firsts,
                             const std::vector<uint32_t>& lasts, size_t leaf,
                             uint32_t to, uint64_t height) {
  if (to <= lasts[leaf] || leaf + 1 == lasts.size()) return 0;
  if (to <= lasts[leaf + 1]) return 1;
  const size_t reached = static_cast<size_t>(
      std::upper_bound(firsts.begin(), firsts.end(), to) - firsts.begin() -
      1);
  const bool gap = to > lasts[reached] && reached + 1 < lasts.size();
  return 1 + height + (gap ? 1 : 0);
}

/// Random forward SkipTo and floor seeks, interleaved with single steps,
/// against lower_bound/upper_bound on the sorted starts. Every call costs
/// at most what SkipTo cost without fences; floor seeks stay within the
/// same tiers (0 in the leaf, 1 in the sibling, else height + 1).
void ExpectSkipOracle(const SkipToTest::Tree& tree, BufferPool& pool,
                      const std::vector<NodeRecord>& recs, uint64_t seed) {
  using Tree = SkipToTest::Tree;
  const size_t cap = Tree::kLeafCap;
  const uint64_t height = static_cast<uint64_t>(tree.height());
  std::vector<uint32_t> starts, firsts, lasts;
  for (const NodeRecord& r : recs) starts.push_back(r.start);
  for (size_t i = 0; i < starts.size(); i += cap) {
    firsts.push_back(starts[i]);
    lasts.push_back(starts[std::min(i + cap, starts.size()) - 1]);
  }
  Rng rng(seed);
  uint64_t fenced = 0, unfenced = 0;
  size_t at = 0;  // index of the record the iterator stands on
  Tree::Iterator it = tree.Seek(SpKey{5, 0});
  for (int op = 0; op < 6000; ++op) {
    if (it.at_end()) {
      at = rng.Below(starts.size() / 2);
      it = tree.SeekFloor(SpKey{5, starts[at] + 1});
      ASSERT_FALSE(it.at_end());
      ASSERT_EQ(it->start, starts[at]);
    }
    const size_t leaf = at / cap;
    uint64_t span = 0;  // records ahead, from in-leaf hops to far jumps
    switch (rng.Below(6)) {
      case 0: span = rng.Below(cap); break;
      case 1: span = cap / 2 + rng.Below(2 * cap); break;
      case 2: span = rng.Below(40 * cap); break;
      case 3: span = rng.Below(starts.size()); break;
      default: break;
    }
    uint32_t to = starts[at] + static_cast<uint32_t>(2 * span + rng.Below(2));
    if (span == 0 && rng.Percent(50)) {
      // A leaf edge at or ahead of the current leaf: the gaps around a
      // leaf's first and last record are where floor and lower bound
      // land in different leaves.
      const size_t j = std::min(leaf + rng.Below(3), firsts.size() - 1);
      const uint32_t edges[] = {std::max(firsts[j], 1u) - 1, firsts[j],
                                lasts[j], lasts[j] + 1};
      to = std::max(starts[at], edges[rng.Below(4)]);
    }
    pool.ResetStats();
    if (rng.Below(10) == 0) {
      ++it;
      ++at;
      ASSERT_EQ(it.at_end(), at == starts.size());
      if (!it.at_end()) {
        ASSERT_EQ(it->start, starts[at]);
      }
      continue;
    }
    const bool floor = rng.Below(2) == 0;
    if (floor) {
      tree.SkipToFloor(&it, SpKey{5, to});
      at = static_cast<size_t>(
          std::upper_bound(starts.begin(), starts.end(), to) -
          starts.begin() - 1);
    } else {
      tree.SkipTo(&it, SpKey{5, to});
      at = static_cast<size_t>(
          std::lower_bound(starts.begin(), starts.end(), to) -
          starts.begin());
    }
    ASSERT_EQ(it.at_end(), at == starts.size()) << "op " << op;
    if (!it.at_end()) {
      ASSERT_EQ(it->start, starts[at]) << "op " << op;
    }

    const uint64_t fetches = pool.stats().fetches;
    const uint64_t before =
        UnfencedSkipFetches(firsts, lasts, leaf, to, height);
    if (to <= lasts[leaf]) {
      EXPECT_EQ(fetches, 0u) << "op " << op;
    } else if (leaf + 1 < lasts.size() && to <= lasts[leaf + 1]) {
      EXPECT_LE(fetches, 1u) << "op " << op;
    } else if (floor) {
      EXPECT_LE(fetches, height + 1) << "op " << op;
    }
    if (!floor) {
      EXPECT_LE(fetches, before) << "op " << op << " to " << to;
      fenced += fetches;
      unfenced += before;
    }
  }
  EXPECT_LT(fenced, unfenced);
}

TEST_F(SkipToTest, RandomForwardSeeksMatchTheSortedOrder) {
  ExpectSkipOracle(tree_, pool_, recs_, 1);
  ExpectSkipOracle(tree_, pool_, recs_, 2);
}

TEST_F(SkipToTest, RandomForwardSeeksMatchUnderATwoFramePagedPool) {
  // The same pages written to a file and demand-paged through two frames:
  // every fence-guided hop runs under eviction.
  const std::string path = testing::TempDir() + "/skip_oracle.pages";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (PageId pid = 0; pid < pool_.page_count(); ++pid) {
      PageRef ref = pool_.Peek(pid);
      out.write(reinterpret_cast<const char*>(ref->bytes.data()), kPageSize);
    }
    ASSERT_TRUE(out.good());
  }
  Result<PagedFile> file = PagedFile::Open(path, 0, pool_.page_count());
  ASSERT_TRUE(file.ok()) << file.status();
  StorageOptions options;
  options.frames_per_shard = 2;
  options.shards = 1;
  BufferPool paged(std::move(file).value(), options);
  Tree tree;
  tree.Attach(&paged, tree_.root(), tree_.first_leaf(), tree_.size(),
              tree_.height());
  ExpectSkipOracle(tree, paged, recs_, 3);
  std::remove(path.c_str());
}

/// 3,000 records over P-labels 10..12 (start = i + 1), levels 1-2 and data
/// ids 0-4, scanned against a brute-force filter.
class WindowedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint32_t i = 0; i < 3000; ++i) {
      NodeRecord r;
      r.plabel = 10 + i % 3;
      r.start = i + 1;
      r.end = i + 1;
      r.tag = 1;
      r.level = 1 + static_cast<int32_t>(i % 2);
      r.data = i % 5;
      recs_.push_back(r);
    }
  }

  /// Records the scan must return, in (plabel, start) order, and how many
  /// it visits (all of them, before the level filter).
  std::vector<NodeRecord> Expected(const PLabelRange& range,
                                   std::optional<uint32_t> data,
                                   std::optional<int32_t> level,
                                   const std::vector<StartWindow>& windows,
                                   size_t* visited) const {
    std::vector<NodeRecord> out;
    *visited = 0;
    for (const NodeRecord& r : recs_) {
      if (!range.Contains(r.plabel)) continue;
      if (data.has_value() && r.data != *data) continue;
      bool inside = false;
      for (const StartWindow& w : windows) {
        inside = inside || (w.lo <= r.start && r.start <= w.hi);
      }
      if (!inside) continue;
      ++*visited;
      if (level.has_value() && r.level != *level) continue;
      out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const NodeRecord& a, const NodeRecord& b) {
                return SpKeyOf::Get(a) < SpKeyOf::Get(b);
              });
    return out;
  }

  void ExpectScan(const PLabelRange& range, std::optional<uint32_t> data,
                  std::optional<int32_t> level,
                  const std::vector<StartWindow>& windows) {
    NodeStore store(recs_, 64);
    size_t visited = 0;
    std::vector<NodeRecord> want =
        Expected(range, data, level, windows, &visited);
    std::vector<NodeRecord> got =
        store.ScanPlabelRange(range, data, level, windows);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].plabel, want[i].plabel);
      EXPECT_EQ(got[i].start, want[i].start);
    }
    EXPECT_EQ(store.stats().elements, visited);
  }

  std::vector<NodeRecord> recs_;
};

TEST_F(WindowedScanTest, NestedAnchorsCollapseToOutermostWindows) {
  std::vector<DLabel> anchors{{100, 400, 1}, {120, 130, 2}, {150, 390, 2},
                              {500, 501, 1}, {600, 700, 1}, {650, 660, 2}};
  std::vector<StartWindow> windows = OutermostWindows(anchors);
  ASSERT_EQ(windows.size(), 2u);  // (500, 501) has no room for a child
  EXPECT_EQ(windows[0].lo, 101u);
  EXPECT_EQ(windows[0].hi, 399u);
  EXPECT_EQ(windows[1].lo, 601u);
  EXPECT_EQ(windows[1].hi, 699u);
  ExpectScan(PLabelRange{11, 11}, std::nullopt, std::nullopt, windows);
}

TEST_F(WindowedScanTest, AdjacentEmptyAndPastTheEndWindows) {
  ExpectScan(PLabelRange{10, 12}, std::nullopt, std::nullopt,
             {{5, 9}, {10, 20}, {21, 21}, {2990, 5000}});
  ExpectScan(PLabelRange{10, 12}, std::nullopt, std::nullopt,
             {{4000, 5000}});
  NodeStore store(recs_, 64);
  EXPECT_TRUE(store
                  .ScanPlabelRange(PLabelRange{10, 12}, std::nullopt,
                                   std::nullopt, {})
                  .empty());
  EXPECT_EQ(store.stats().elements, 0u);
  EXPECT_EQ(store.stats().page_fetches, 0u);
}

TEST_F(WindowedScanTest, RangeAlternativesSpanningSeveralPlabels) {
  const std::vector<StartWindow> windows{{1, 1}, {300, 310}, {1500, 2600}};
  ExpectScan(PLabelRange{10, 12}, std::nullopt, std::nullopt, windows);
  ExpectScan(PLabelRange{11, 12}, std::nullopt, std::nullopt, windows);
  ExpectScan(PLabelRange{0, 100}, std::nullopt, std::nullopt, windows);
  // Without windows the scan visits exactly the range.
  ExpectScan(PLabelRange{10, 11}, std::nullopt, std::nullopt,
             {StartWindow{}});
}

TEST_F(WindowedScanTest, DataLevelAndWindowsTogether) {
  const std::vector<StartWindow> windows{{2, 40}, {700, 720}, {2900, 2999}};
  for (uint32_t data = 0; data < 5; ++data) {
    ExpectScan(PLabelRange{10, 12}, data, 2, windows);
    ExpectScan(PLabelRange{11, 11}, data, std::nullopt, windows);
    ExpectScan(PLabelRange{10, 12}, data, 1, {StartWindow{}});
  }
}


// ------------------------------------------------- start-ordered batches ---

/// 100,000 records over a height-3 SP tree: five P-labels 10-14 holding
/// one contiguous run of 18,000 even starts each, in key order, with gaps
/// of 9,000 between runs, and two P-labels 20-21 alternating over 10,000
/// odd starts across the whole document. Data ids cycle through 0-6.
class FirstByStartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint32_t run = 0; run < 5; ++run) {
      for (uint32_t i = 0; i < 18000; ++i) {
        Add(10 + run, run * 45000 + 2 + 2 * i);
      }
    }
    for (uint32_t i = 0; i < 10000; ++i) Add(20 + i % 2, 22 * i + 1);
    store_ = std::make_unique<NodeStore>(recs_, 4096);
    ASSERT_EQ(store_->paged_meta().sp.height, 3);
  }

  void Add(PLabel plabel, uint32_t start) {
    NodeRecord r;
    r.plabel = plabel;
    r.start = start;
    r.end = start;
    r.tag = 1;
    r.level = 1;
    r.data = static_cast<uint32_t>(recs_.size() % 7);
    recs_.push_back(r);
  }

  /// Checks FirstByStart on `store` against a sort of the matching
  /// records, for every batch size in `sizes`. Visits stay within one
  /// probe per P-label holding a record at `lo` or later, plus, per such
  /// P-label, the records it can push into the heap (at most `n`); when
  /// the ranges hold only the runs (whose key order is their start order)
  /// that is at most `n` plus the probes.
  void Expect(const NodeStore& store, std::vector<PLabelRange> ranges,
              std::optional<uint32_t> data, uint32_t lo) {
    std::vector<NodeRecord> all;
    std::map<PLabel, uint64_t> per_label;
    for (const NodeRecord& r : recs_) {
      bool in = false;
      for (const PLabelRange& range : ranges) in = in || range.Contains(r.plabel);
      if (!in || r.start < lo || (data.has_value() && r.data != *data)) {
        continue;
      }
      all.push_back(r);
      ++per_label[r.plabel];
    }
    std::sort(all.begin(), all.end(),
              [](const NodeRecord& a, const NodeRecord& b) {
                return a.start < b.start;
              });
    const bool runs_only = ranges.back().hi < 20;
    for (size_t n : {size_t{1}, size_t{7}, size_t{255}, size_t{256},
                     size_t{1000}, size_t{19000}, all.size() + 5}) {
      const std::string what = "lo=" + std::to_string(lo) +
                               " n=" + std::to_string(n) + " data=" +
                               (data ? std::to_string(*data) : "none");
      ReadCounters counters;
      std::vector<NodeRecord> got;
      {
        ReadCounterScope scope(&counters);
        got = store.FirstByStart(ranges, data, lo, n);
      }
      const size_t want = std::min(n, all.size());
      ASSERT_EQ(got.size(), want) << what;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(got[i].start, all[i].start) << what << " at " << i;
        ASSERT_EQ(got[i].plabel, all[i].plabel) << what << " at " << i;
      }
      uint64_t pushes = 0;
      for (const auto& [label, count] : per_label) {
        pushes += std::min<uint64_t>(n, count);
      }
      EXPECT_LE(counters.elements, pushes + per_label.size()) << what;
      if (runs_only) {
        EXPECT_LE(counters.elements, n + per_label.size()) << what;
      }
    }
  }

  void ExpectAll(const NodeStore& store) {
    const std::vector<std::vector<PLabelRange>> range_sets = {
        {{10, 14}}, {{12, 12}}, {{11, 11}, {13, 14}}, {{20, 21}},
        {{10, 10}, {12, 21}}, {{0, 100}}};
    // From the start, inside run 2, between runs 0 and 1, inside the last
    // run, and past every record.
    for (uint32_t lo : {0u, 100501u, 40000u, 190001u, 250000u}) {
      for (const std::vector<PLabelRange>& ranges : range_sets) {
        Expect(store, ranges, std::nullopt, lo);
        Expect(store, ranges, 3, lo);
      }
    }
  }

  std::vector<NodeRecord> recs_;
  std::unique_ptr<NodeStore> store_;
};

TEST_F(FirstByStartTest, MatchesSortedRecordsInMemory) { ExpectAll(*store_); }

TEST_F(FirstByStartTest, MatchesSortedRecordsUnderATwoFramePagedPool) {
  // The same pages written to a file and demand-paged through two frames:
  // every P-label hop runs under eviction.
  const std::string path = testing::TempDir() + "/first_by_start.pages";
  const BufferPool& pool = store_->pool();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (PageId pid = 0; pid < pool.page_count(); ++pid) {
      PageRef ref = pool.Peek(pid);
      out.write(reinterpret_cast<const char*>(ref->bytes.data()), kPageSize);
    }
    ASSERT_TRUE(out.good());
  }
  Result<PagedFile> file = PagedFile::Open(path, 0, pool.page_count());
  ASSERT_TRUE(file.ok()) << file.status();
  StorageOptions options;
  options.frames_per_shard = 2;
  options.shards = 1;
  NodeStore paged(std::move(file).value(), store_->paged_meta(), options);
  ExpectAll(paged);
  std::remove(path.c_str());
}

TEST_F(FirstByStartTest, EmptyRangesAndZeroSizeReadNothing) {
  EXPECT_TRUE(store_->FirstByStart({}, std::nullopt, 0, 10).empty());
  const std::vector<PLabelRange> ranges{{10, 14}};
  EXPECT_TRUE(store_->FirstByStart(ranges, std::nullopt, 0, 0).empty());
  EXPECT_EQ(store_->stats().elements, 0u);
  EXPECT_EQ(store_->stats().page_fetches, 0u);
}

// ------------------------------------------------------------- counting ---

/// Value-tree records for `n` keys over P-labels 1..4 (most on 2 and 3),
/// data ids 0..39 and unique starts, bulk-loaded into `pool`.
std::vector<NodeRecord> CountRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeRecord> recs;
  for (size_t i = 0; i < n; ++i) {
    NodeRecord r;
    const uint64_t pick = rng.Below(10);
    r.plabel = pick == 0 ? 1 : pick < 5 ? 2 : pick < 9 ? 3 : 4;
    r.data = static_cast<uint32_t>(rng.Below(40));
    r.start = static_cast<uint32_t>(i + 1);
    recs.push_back(r);
  }
  std::sort(recs.begin(), recs.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return ValKeyOf::Get(a) < ValKeyOf::Get(b);
            });
  return recs;
}

/// CountRange over random and edge key ranges against a brute-force count
/// of `recs` (the tree's records in key order): empty and inverted
/// ranges, ranges inside one leaf, ranges ending in the partial last leaf
/// and past every key. Every count fetches at most 2 * height - 1 pages
/// and visits no record.
void ExpectCountOracle(const ValueTree& tree, BufferPool& pool,
                       const std::vector<NodeRecord>& recs, uint64_t seed) {
  std::vector<ValKey> keys;
  for (const NodeRecord& r : recs) keys.push_back(ValKeyOf::Get(r));
  auto brute = [&](const ValKey& lo, const ValKey& hi) -> uint64_t {
    if (!(lo < hi)) return 0;
    return static_cast<uint64_t>(
        std::lower_bound(keys.begin(), keys.end(), hi) -
        std::lower_bound(keys.begin(), keys.end(), lo));
  };
  auto key_at = [&](size_t i, int32_t nudge) {
    ValKey k = i < keys.size() ? keys[i] : ValKey{9, 0, 0};
    k.start = static_cast<uint32_t>(static_cast<int64_t>(k.start) + nudge);
    return k;
  };
  const size_t cap = ValueTree::kLeafCap;
  const size_t last_leaf = (keys.size() - 1) / cap * cap;
  Rng rng(seed);
  std::vector<std::pair<ValKey, ValKey>> cases = {
      {ValKey{0, 0, 0}, ValKey{9, 0, 0}},   // everything
      {ValKey{2, 5, 0}, ValKey{2, 5, 0}},   // empty
      {ValKey{3, 0, 0}, ValKey{2, 0, 0}},   // inverted
      {ValKey{2, 7, 0}, ValKey{2, 12, 0}},  // one P-label's id interval
      {ValKey{4, 39, 0}, ValKey{5, 0, 0}},  // the last P-label's last id
      {key_at(last_leaf, 0), ValKey{9, 0, 0}},       // the partial last leaf
      {key_at(last_leaf + 1, 1), key_at(keys.size() - 1, 0)},
      {key_at(0, 0), key_at(std::min(cap, keys.size()) - 1, 1)},  // leaf 0
  };
  for (int i = 0; i < 300; ++i) {
    const size_t a = rng.Below(keys.size() + 1);
    const size_t b = i % 3 == 0 ? a / cap * cap + rng.Below(cap)  // same leaf
                                : rng.Below(keys.size() + 1);
    cases.emplace_back(key_at(a, static_cast<int32_t>(rng.Below(3)) - 1),
                       key_at(b, static_cast<int32_t>(rng.Below(3)) - 1));
  }
  const uint64_t max_fetches = 2 * static_cast<uint64_t>(tree.height()) - 1;
  for (const auto& [lo, hi] : cases) {
    ReadCounters counters;
    std::optional<uint64_t> n;
    {
      ReadCounterScope scope(&counters);
      n = tree.CountRange(lo, hi);
    }
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, brute(lo, hi))
        << "lo (" << static_cast<uint64_t>(lo.plabel) << "," << lo.data << ","
        << lo.start << ") hi (" << static_cast<uint64_t>(hi.plabel) << ","
        << hi.data << "," << hi.start << ")";
    EXPECT_EQ(counters.elements, 0u);
    EXPECT_LE(counters.fetches, lo < hi ? max_fetches : 0u);
  }
  (void)pool;
}

/// Writes `pool`'s pages to a file and reopens them through a 2-frame
/// demand-paged pool.
std::unique_ptr<BufferPool> TwoFrameCopy(const BufferPool& pool,
                                         const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (PageId pid = 0; pid < pool.page_count(); ++pid) {
      PageRef ref = pool.Peek(pid);
      out.write(reinterpret_cast<const char*>(ref->bytes.data()), kPageSize);
    }
  }
  Result<PagedFile> file = PagedFile::Open(path, 0, pool.page_count());
  EXPECT_TRUE(file.ok()) << file.status();
  if (!file.ok()) return nullptr;
  StorageOptions options;
  options.frames_per_shard = 2;
  options.shards = 1;
  return std::make_unique<BufferPool>(std::move(file).value(), options);
}

TEST(CountRangeTest, MatchesBruteForceOnTreesOfHeightOneToThree) {
  // 200 records fit one leaf; 20,000 need a root over 79 leaves; 80,000
  // pass the 74,715 one value-tree root holds (293 leaves of 255).
  int height = 1;
  for (size_t n : {size_t{200}, size_t{20000}, size_t{80000}}) {
    const std::vector<NodeRecord> recs = CountRecords(n, n);
    BufferPool pool(4096);
    ValueTree tree;
    tree.Build(&pool, recs);
    ASSERT_EQ(tree.height(), height++);
    ExpectCountOracle(tree, pool, recs, n + 1);

    // The same pages demand-paged through two frames.
    const std::string path = testing::TempDir() + "/count_range.pages";
    std::unique_ptr<BufferPool> paged = TwoFrameCopy(pool, path);
    ASSERT_NE(paged, nullptr);
    ValueTree attached;
    attached.Attach(paged.get(), tree.root(), tree.first_leaf(), tree.size(),
                    tree.height());
    ExpectCountOracle(attached, *paged, recs, n + 2);
    std::remove(path.c_str());
  }
}

TEST(CountRangeTest, EmptyTreeCountsZeroWithoutAFetch) {
  BufferPool pool(16);
  ValueTree tree;
  tree.Build(&pool, {});
  EXPECT_EQ(tree.CountRange(ValKey{0, 0, 0}, ValKey{9, 0, 0}), 0u);
  EXPECT_EQ(pool.stats().fetches, 0u);
}

TEST(CountRangeTest, BulkShapeIsWhatBuildLaysOut) {
  for (size_t n : {size_t{1}, size_t{255}, size_t{256}, size_t{74715},
                   size_t{74716}}) {
    BufferPool pool(64);
    ValueTree tree;
    tree.Build(&pool, CountRecords(n, 7));
    const TreeShape shape = ValueTree::BulkShape(n);
    EXPECT_EQ(shape.leaves, tree.leaf_pages()) << n;
    EXPECT_EQ(shape.pages, pool.page_count()) << n;
    EXPECT_EQ(shape.height, tree.height()) << n;
    EXPECT_EQ(tree.first_leaf(), 0u) << n;
    EXPECT_EQ(tree.root() + 1, pool.page_count()) << n;
  }
}

TEST(CountRangeTest, ShortMiddleLeafIsCorruption) {
  // A leaf that is not full before the last breaks the rank arithmetic:
  // every count reaching it fails instead of miscounting, in memory and
  // through the store (Corruption). Counts that never reach it still
  // hold.
  std::vector<NodeRecord> recs = CountRecords(2000, 5);
  for (NodeRecord& r : recs) r.plabel = 2;  // one P-label, 8 leaves
  std::sort(recs.begin(), recs.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return ValKeyOf::Get(a) < ValKeyOf::Get(b);
            });
  BufferPool pool(64);
  ValueTree tree;
  tree.Build(&pool, recs);
  ASSERT_EQ(tree.leaf_pages(), 8u);
  const size_t cap = ValueTree::kLeafCap;
  auto* leaf = reinterpret_cast<ValueTree::LeafNode*>(
      pool.MutablePage(tree.first_leaf() + 3)->bytes.data());
  leaf->count -= 10;
  const ValKey in_leaf3 = ValKeyOf::Get(recs[3 * cap + 1]);
  EXPECT_EQ(tree.CountRange(ValKey{0, 0, 0}, in_leaf3), std::nullopt);
  EXPECT_EQ(tree.CountRange(in_leaf3, ValKey{9, 0, 0}), std::nullopt);
  EXPECT_EQ(tree.CountRange(ValKeyOf::Get(recs[cap]),
                            ValKeyOf::Get(recs[2 * cap + 5])),
            cap + 5);

  // A store whose value tree holds such a leaf reports Corruption. The
  // store's records carry data ids, so its value tree is the same shape.
  std::vector<NodeRecord> shuffled = recs;
  NodeStore store(shuffled, 64);
  PagedStoreMeta meta = store.paged_meta();
  ASSERT_EQ(meta.value.size, recs.size());
  const std::string path = testing::TempDir() + "/short_leaf.pages";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (PageId pid = 0; pid < store.pool().page_count(); ++pid) {
      Page page = *store.pool().Peek(pid);
      if (pid == meta.value.first_leaf + 3) {
        reinterpret_cast<ValueTree::LeafNode*>(page.bytes.data())->count -= 10;
      }
      out.write(reinterpret_cast<const char*>(page.bytes.data()), kPageSize);
    }
  }
  Result<PagedFile> file = PagedFile::Open(path, 0, store.pool().page_count());
  ASSERT_TRUE(file.ok()) << file.status();
  NodeStore paged(std::move(file).value(), meta, StorageOptions{});
  // Each id holds ~50 records, so the first record of this one lies in
  // leaf 3, where the count's upper bound lands.
  const uint32_t id = recs[3 * cap + 100].data;
  Result<uint64_t> short_leaf = paged.CountValues(2, 0, id);
  EXPECT_EQ(short_leaf.status().code(), StatusCode::kCorruption);
  Result<uint64_t> good = store.CountValues(2, 0, id);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(*good, static_cast<uint64_t>(std::count_if(
                       recs.begin(), recs.end(),
                       [&](const NodeRecord& r) { return r.data < id; })));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blas
