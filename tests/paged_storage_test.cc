// Demand-paged storage: BLASIDX2 round trips (byte-identical answers under
// a 4-frame budget vs unlimited memory, across translators and engines),
// real-I/O accounting, eviction bounds, materialized vs paged equivalence,
// values longer than a page (page runs), corrupt-directory and corrupt-
// payload rejection, atomic snapshot replacement, and
// DropCache/ResetStats vs concurrent readers (runs under the TSan CI job).
//
// The cache-pressure CI job re-runs this binary with BLAS_PAGED_FRAMES=2
// to shrink every paged pool to the minimum that still makes progress.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blas/collection.h"
#include "gen/generator.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "storage/persist.h"
#include "tests/test_util.h"

namespace blas {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Frames per shard for pressure tests; the CI cache-pressure job
/// overrides the default via BLAS_PAGED_FRAMES.
size_t PressureFrames(size_t def) {
  const char* env = std::getenv("BLAS_PAGED_FRAMES");
  if (env == nullptr) return def;
  int v = std::atoi(env);
  return v < 2 ? 2 : static_cast<size_t>(v);
}

StorageOptions TinyBudget(size_t frames = 4) {
  StorageOptions storage;
  storage.frames_per_shard = PressureFrames(frames);
  storage.shards = 1;
  return storage;
}

BlasSystem BuildAuction(int scale = 1) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [scale](SaxHandler* h) {
        GenOptions gen;
        gen.scale = scale;
        GenerateAuction(gen, h);
      },
      BlasOptions{});
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) std::abort();
  return std::move(sys).value();
}

BlasSystem BuildRandom(uint64_t seed) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [seed](SaxHandler* h) {
        GenerateRandomDoc(seed, /*approx_nodes=*/1500, /*num_tags=*/10,
                          /*max_depth=*/6, /*num_values=*/40, h);
      },
      BlasOptions{});
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) std::abort();
  return std::move(sys).value();
}

const char* kAuctionQueries[] = {
    "//item/name",
    "/site/regions/asia/item[shipping]/description",
    "/site//date",
    "//parlist/listitem",
    "/site/people/person/name",
    "//nosuchtag",
};

// ----------------------------------------------- answers are identical ---

TEST(PagedStorageTest, RoundTripAnswersIdenticallyUnderTinyBudget) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("paged_auction.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  for (const StorageOptions& storage :
       {TinyBudget(4), StorageOptions{}}) {
    Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
    ASSERT_TRUE(paged.ok()) << paged.status();
    for (const char* q : kAuctionQueries) {
      for (Translator t : {Translator::kDLabel, Translator::kSplit,
                           Translator::kPushUp, Translator::kUnfold}) {
        for (Engine e : {Engine::kRelational, Engine::kTwig}) {
          Result<QueryResult> a = original.Execute(
              q, {.translator = t, .engine = e});
          Result<QueryResult> b = paged->Execute(
              q, {.translator = t, .engine = e});
          if (!a.ok()) {
            EXPECT_EQ(a.status().code(), b.status().code()) << q;
            continue;
          }
          ASSERT_TRUE(b.ok()) << q << " " << b.status();
          EXPECT_EQ(a->starts, b->starts)
              << q << " [" << TranslatorName(t) << "/" << EngineName(e)
              << "] frames=" << storage.frames_per_shard;
          // Only the miss probe may compare two empty answers.
          EXPECT_EQ(a->starts.empty(), std::string_view(q) == "//nosuchtag")
              << q;
        }
      }
    }
  }
}

TEST(PagedStorageTest, ProjectionAndLimitKReadThePagedDictionary) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("paged_projection.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(4));
  ASSERT_TRUE(paged.ok()) << paged.status();

  for (Projection projection :
       {Projection::kTag, Projection::kPath, Projection::kValue,
        Projection::kSubtree}) {
    for (uint64_t limit : {uint64_t{0}, uint64_t{10}}) {
      QueryOptions options;
      options.projection = projection;
      options.limit = limit;
      Result<QueryResult> a = original.Execute("//item/description", options);
      Result<QueryResult> b = paged->Execute("//item/description", options);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(a->starts, b->starts);
      ASSERT_EQ(a->matches.size(), b->matches.size());
      for (size_t i = 0; i < a->matches.size(); ++i) {
        EXPECT_EQ(a->matches[i].content, b->matches[i].content)
            << ProjectionName(projection) << " limit=" << limit;
      }
    }
  }
}

TEST(PagedStorageTest, ValuePredicatesUseThePagedFindPath) {
  BlasSystem original = BuildRandom(7);
  std::string path = TempPath("paged_values.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(4));
  ASSERT_TRUE(paged.ok()) << paged.status();

  for (const char* q : {"//t0[t1=\"v7\"]", "//t1=\"v3\"", "//t2[t4=\"v99\"]",
                        "//t0[t1<\"20\"]"}) {
    for (Translator t : {Translator::kDLabel, Translator::kPushUp}) {
      Result<QueryResult> a = original.Execute(
          q, {.translator = t, .engine = Engine::kRelational});
      Result<QueryResult> b = paged->Execute(
          q, {.translator = t, .engine = Engine::kRelational});
      ASSERT_TRUE(a.ok()) << q << a.status();
      ASSERT_TRUE(b.ok()) << q << b.status();
      EXPECT_EQ(a->starts, b->starts) << q;
    }
  }
}

// ----------------------------------------------------- real I/O + O(1) ---

TEST(PagedStorageTest, OpenIsLazyAndMissesAreRealReads) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("paged_io.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(8));
  ASSERT_TRUE(paged.ok()) << paged.status();
  // Opening read only the header and the schema-sized segments: no data
  // page is resident and no I/O is on the books.
  EXPECT_EQ(paged->store().pool().frames_in_use(), 0u);
  EXPECT_EQ(paged->store().stats().io_reads, 0u);

  QueryOptions options;
  Result<QueryResult> r = paged->Execute("//item/name", options);
  ASSERT_TRUE(r.ok());
  // Every miss was a real pread, and the per-query stats surface it.
  EXPECT_GT(r->stats.io_reads, 0u);
  EXPECT_EQ(r->stats.io_reads, r->stats.page_misses);
  StorageStats store_stats = paged->store().stats();
  EXPECT_EQ(store_stats.io_reads, store_stats.page_misses);
  EXPECT_GT(store_stats.io_reads, 0u);

  // The in-memory system never touches the disk.
  Result<QueryResult> mem = original.Execute("//item/name", options);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->stats.io_reads, 0u);
}

TEST(PagedStorageTest, EvictionKeepsResidentFramesWithinBudget) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("paged_evict.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  const size_t frames = PressureFrames(4);
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(4));
  ASSERT_TRUE(paged.ok()) << paged.status();
  ASSERT_GT(paged->store().pool().page_count(), frames)
      << "corpus must exceed the budget for this test to bite";

  for (const char* q : kAuctionQueries) {
    ASSERT_TRUE(paged->Execute(q, QueryOptions{}).ok());
  }
  const BufferPool& pool = paged->store().pool();
  EXPECT_LE(pool.peak_frames(), frames);
  EXPECT_LE(pool.frames_in_use(), frames);
  EXPECT_GT(pool.stats().evictions, 0u);
  // Rerunning after a cache drop does cold I/O again.
  BufferPool::Stats before = pool.stats();
  const_cast<BlasSystem&>(*paged).ResetCounters();
  ASSERT_TRUE(paged->Execute("//item/name", QueryOptions{}).ok());
  EXPECT_GT(pool.stats().io_reads, 0u);
  (void)before;
}

// ------------------------------------------- format interoperability ---

TEST(PagedStorageTest, MaterializedAndPagedSnapshotsAreEquivalent) {
  BlasSystem original = BuildRandom(11);
  std::string path = TempPath("equiv.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  // LoadSnapshot materializes exactly what was saved: the SP leaf chain
  // is in (plabel, start) order, like ExportRecords.
  Result<IndexSnapshot> snap = LoadSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->max_depth, original.doc_stats().depth);
  ASSERT_EQ(snap->tags.size(), original.tags().size());
  for (TagId id = 1; id <= original.tags().size(); ++id) {
    EXPECT_EQ(snap->tags[id - 1], original.tags().Name(id));
  }
  ASSERT_EQ(snap->values.size(), original.dict().size());
  for (uint32_t id = 0; id < original.dict().size(); ++id) {
    EXPECT_EQ(snap->values[id], original.dict().Get(id)) << id;
  }
  std::vector<NodeRecord> records = original.store().ExportRecords();
  ASSERT_EQ(snap->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(snap->records[i].plabel, records[i].plabel) << i;
    EXPECT_EQ(snap->records[i].start, records[i].start) << i;
    EXPECT_EQ(snap->records[i].end, records[i].end) << i;
    EXPECT_EQ(snap->records[i].tag, records[i].tag) << i;
    EXPECT_EQ(snap->records[i].level, records[i].level) << i;
    EXPECT_EQ(snap->records[i].data, records[i].data) << i;
  }

  // The materialize -> save -> page round trip: answers agree with the
  // original system on every leg.
  Result<BlasSystem> materialized = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  std::string resaved = TempPath("equiv_rt.idx2");
  ASSERT_TRUE(materialized->SavePagedIndex(resaved).ok());
  Result<BlasSystem> paged = BlasSystem::OpenPaged(resaved, TinyBudget(4));
  ASSERT_TRUE(paged.ok()) << paged.status();
  for (const char* q : {"//t3", "/root/t1", "//t1//t4", "//t0[t1=\"v7\"]"}) {
    Result<QueryResult> a = original.Execute(q, QueryOptions{});
    Result<QueryResult> b = paged->Execute(q, QueryOptions{});
    Result<QueryResult> c = materialized->Execute(q, QueryOptions{});
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << q;
    EXPECT_EQ(a->starts, b->starts) << q;
    EXPECT_EQ(a->starts, c->starts) << q;
  }

  BlasSystem::DocStats da = original.doc_stats();
  BlasSystem::DocStats db = paged->doc_stats();
  EXPECT_EQ(da.nodes, db.nodes);
  EXPECT_EQ(da.tags, db.tags);
  EXPECT_EQ(da.depth, db.depth);
  EXPECT_EQ(da.distinct_paths, db.distinct_paths);
  EXPECT_EQ(da.distinct_values, db.distinct_values);
  EXPECT_EQ(da.pages, db.pages);
}

/// The deepest record of `sys`, found by a full scan.
NodeRecord DeepestRecord(const BlasSystem& sys) {
  std::vector<NodeRecord> records = sys.store().ExportRecords();
  EXPECT_FALSE(records.empty());
  return *std::max_element(records.begin(), records.end(),
                           [](const NodeRecord& a, const NodeRecord& b) {
                             return a.level < b.level;
                           });
}

TEST(PagedStorageTest, DeepestCodecLevelRoundTripsThroughEveryFormat) {
  // One tag gives the codec its deepest height: a chain 126 levels deep,
  // the most the 128-bit label (and the record's 8-bit level) holds.
  constexpr int kDepth = 126;
  std::string xml;
  for (int i = 0; i < kDepth; ++i) xml += "<a>";
  for (int i = 0; i < kDepth; ++i) xml += "</a>";
  Result<BlasSystem> original = BlasSystem::FromXml(xml);
  ASSERT_TRUE(original.ok()) << original.status();
  const NodeRecord deepest = DeepestRecord(*original);
  EXPECT_EQ(deepest.level, kDepth);

  std::string path = TempPath("deep.idx2");
  ASSERT_TRUE(original->SavePagedIndex(path).ok());
  Result<BlasSystem> materialized = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(2));
  ASSERT_TRUE(paged.ok()) << paged.status();

  std::string full_path;
  for (int i = 0; i < kDepth; ++i) full_path += "/a";
  for (const BlasSystem* sys : {&*original, &*materialized, &*paged}) {
    const NodeRecord rec = DeepestRecord(*sys);
    EXPECT_EQ(rec.level, kDepth);
    EXPECT_EQ(rec.plabel, deepest.plabel);
    EXPECT_EQ(rec.start, deepest.start);
    EXPECT_EQ(rec.end, deepest.end);
    EXPECT_EQ(rec.tag, deepest.tag);
    // The depth-126 simple path selects exactly the deepest node.
    Result<QueryResult> r = sys->Execute(full_path, QueryOptions{});
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->starts, std::vector<uint32_t>{deepest.start});
  }
}

TEST(PagedStorageTest, CheckedInFuzzSeedSnapshotOpens) {
  // The fuzz corpus's valid seed must track the current format, or the
  // fuzzer only ever exercises the rejection path. Regenerate with
  // fuzz_make_corpus after a format change.
  const std::string path =
      std::string(BLAS_SOURCE_DIR) + "/fuzz/corpus/blasidx2/valid_snapshot.bin";
  Result<PagedIndex> index = OpenPagedSnapshot(path);
  ASSERT_TRUE(index.ok()) << index.status();
  Result<BlasSystem> sys = BlasSystem::OpenPaged(path);
  ASSERT_TRUE(sys.ok()) << sys.status();
  Result<QueryResult> r = sys->Execute("//person/name", QueryOptions{});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->starts.size(), 2u);
}

// --------------------------------------------- corruption preflight ---

/// Byte offsets inside the BLASIDX2 header (see persist.h): fixed fields
/// first (magic 0, version 8, endian 12, page size 16, record size 20,
/// key sizes 24..36, depth 36, counts 40..80), then four 32-byte tree
/// metas (80..208), the value-page placement (208..216) and the tail
/// directory (216..288).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffRecordSize = 20;
constexpr size_t kOffPoolPages = 64;
constexpr size_t kOffSpRoot = 80;
constexpr size_t kOffFirstValuePage = 208;
constexpr size_t kOffTagBytes = 232;
constexpr size_t kOffValueIndexPage = 264;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PatchU32(std::string* bytes, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PatchU64(std::string* bytes, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

class PagedCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BlasSystem sys = BuildRandom(23);
    path_ = TempPath("corrupt_base.idx2");
    ASSERT_TRUE(sys.SavePagedIndex(path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GT(bytes_.size(), kPageSize);
  }

  void ExpectRejected(const std::string& bytes, const std::string& what) {
    std::string path = TempPath("corrupt_case.idx2");
    WriteFile(path, bytes);
    Result<BlasSystem> paged = BlasSystem::OpenPaged(path);
    EXPECT_FALSE(paged.ok()) << what;
    if (!paged.ok()) {
      EXPECT_EQ(paged.status().code(), StatusCode::kCorruption) << what;
    }
    // The materializing loader applies the same preflight.
    Result<IndexSnapshot> snap = LoadSnapshot(path);
    EXPECT_FALSE(snap.ok()) << what;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(PagedCorruptionTest, TruncatedFileRejected) {
  ExpectRejected(bytes_.substr(0, kPageSize / 2), "half a header");
  ExpectRejected(bytes_.substr(0, bytes_.size() / 2), "half the pages");
  ExpectRejected(bytes_.substr(0, bytes_.size() - kPageSize),
                 "missing tail segment");
}

TEST_F(PagedCorruptionTest, BadMagicRejected) {
  std::string bad = bytes_;
  bad[7] = '9';
  ExpectRejected(bad, "magic");
}

TEST_F(PagedCorruptionTest, RecordLayoutMismatchRejected) {
  // 36 claims a different ABI; 48 is the padded record of version-1
  // files, which must be rejected, never misread as 32-byte records.
  for (uint32_t record_size : {36u, 48u}) {
    std::string bad = bytes_;
    PatchU32(&bad, kOffRecordSize, record_size);
    ExpectRejected(bad, "record size " + std::to_string(record_size));
    Result<PagedIndex> opened =
        OpenPagedSnapshot(TempPath("corrupt_case.idx2"));
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("record/key layout mismatch"),
              std::string::npos)
        << opened.status();
  }
}

TEST_F(PagedCorruptionTest, OldVersionRejected) {
  std::string bad = bytes_;
  PatchU32(&bad, kOffVersion, 1);
  ExpectRejected(bad, "version 1");
}

TEST_F(PagedCorruptionTest, Version2HeaderRejected) {
  // Version 2 keyed the value tree by (data, start): its pages must never
  // be read as the (data, plabel, start) tree of later versions.
  std::string bad = bytes_;
  PatchU32(&bad, kOffVersion, 2);
  ExpectRejected(bad, "version 2");
  Result<PagedIndex> opened = OpenPagedSnapshot(TempPath("corrupt_case.idx2"));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported version"),
            std::string::npos)
      << opened.status();
}

TEST_F(PagedCorruptionTest, Version4HeaderRejected) {
  // Version 4 numbered values in insertion order and keyed the value tree
  // (data, plabel, start) over every record: its value pages are not
  // sorted and its value tree is not the one value reads seek.
  std::string bad = bytes_;
  PatchU32(&bad, kOffVersion, 4);
  ExpectRejected(bad, "version 4");
  Result<PagedIndex> opened = OpenPagedSnapshot(TempPath("corrupt_case.idx2"));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("unsupported version"),
            std::string::npos)
      << opened.status();
}

TEST_F(PagedCorruptionTest, OverstatedPoolPagesRejectedBeforeAllocation) {
  std::string bad = bytes_;
  PatchU64(&bad, kOffPoolPages, uint64_t{1} << 40);  // ~8 PiB of pages
  ExpectRejected(bad, "pool pages");
}

TEST_F(PagedCorruptionTest, TreeRootOutsideItsSegmentRejected) {
  std::string bad = bytes_;
  PatchU32(&bad, kOffSpRoot, 0xFFFFFF00u);
  ExpectRejected(bad, "sp root");
}

TEST_F(PagedCorruptionTest, OverflowingSegmentLengthRejected) {
  // byte_length near 2^64 must not wrap the page arithmetic into a
  // passing check (and must never reach a resize()).
  std::string bad = bytes_;
  PatchU64(&bad, kOffTagBytes, 0xFFFFFFFFFFFFFFFFull);
  ExpectRejected(bad, "tag byte length");
  bad = bytes_;
  PatchU64(&bad, 48, uint64_t{1} << 62);  // tag_count: 4x wraps to 0
  ExpectRejected(bad, "tag count");
}

TEST_F(PagedCorruptionTest, CorruptValuePagePayloadIsContained) {
  // The directory validates at open; page payloads are untrusted until
  // decode. A hostile count/offset array must not cause OOB reads.
  std::string bad = bytes_;
  uint32_t first_value_page = 0;
  for (int i = 3; i >= 0; --i) {
    first_value_page = (first_value_page << 8) |
                       static_cast<uint8_t>(bad[kOffFirstValuePage + i]);
  }
  const size_t page_off = (1 + size_t{first_value_page}) * kPageSize;
  ASSERT_LT(page_off, bad.size());
  PatchU32(&bad, page_off, 0xFFFFFFFFu);  // count
  PatchU32(&bad, page_off + 8, 0xFFFFFFFFu);  // first offset
  std::string path = TempPath("corrupt_value_page.idx2");
  WriteFile(path, bad);

  // The materializing loader rejects it outright.
  Result<IndexSnapshot> snap = LoadSnapshot(path);
  EXPECT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);

#ifdef NDEBUG
  // The paged dictionary refuses the page at decode time: projections
  // come back empty instead of reading out of bounds.
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path);
  ASSERT_TRUE(paged.ok()) << paged.status();
  QueryOptions options;
  options.projection = Projection::kValue;
  Result<QueryResult> r = paged->Execute("//t1", options);
  ASSERT_TRUE(r.ok());
  for (const Match& m : r->matches) EXPECT_TRUE(m.content.empty());
#endif
}

// ------------------------------------------- values longer than a page ---

/// Text of the <t> elements of the long-value document, in document (and
/// dictionary id) order: a short value, one that exactly fills a packed
/// page, the shortest run, then adjacent runs (10,000 bytes and four
/// pages), a run between short values, and a run at the end of the value
/// segment. Each text cycles through the alphabet from its own offset,
/// so a byte copied from the wrong page or offset shows.
std::vector<std::string> LongValueTexts() {
  const size_t lengths[] = {5,     kMaxPagedValue, kMaxPagedValue + 1,
                            10000, 3 * kPageSize,  7,
                            20000, 9,              9000};
  std::vector<std::string> texts;
  for (size_t length : lengths) {
    std::string text(length, '\0');
    for (size_t j = 0; j < length; ++j) {
      text[j] = static_cast<char>('a' + (texts.size() + 7 * j) % 26);
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

/// The long-value document: `<r><t>text</t>...</r>`.
std::string LongValueXml(const std::vector<std::string>& texts) {
  std::string xml = "<r>";
  for (const std::string& text : texts) xml += "<t>" + text + "</t>";
  return xml + "</r>";
}

/// Checks `sys` answers the long-value document: value projection of
/// every <t>, and an equality lookup of every literal. Pass `broken` to
/// expect that one value to project empty instead.
void ExpectLongValues(const BlasSystem& sys,
                      const std::vector<std::string>& texts,
                      size_t broken = SIZE_MAX) {
  QueryOptions project;
  project.projection = Projection::kValue;
  Result<QueryResult> all = sys.Execute("//t", project);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->matches.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    // EXPECT_TRUE, not EXPECT_EQ: a failure must not print 20 KB.
    EXPECT_TRUE(all->matches[i].content ==
                (i == broken ? std::string() : texts[i]))
        << "value " << i << " projects " << all->matches[i].content.size()
        << " bytes";
  }
  if (broken != SIZE_MAX) return;
  EXPECT_EQ(sys.doc_stats().distinct_values, texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<QueryResult> hit =
        sys.Execute("//t=\"" + texts[i] + "\"", QueryOptions{});
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_EQ(hit->starts, std::vector<uint32_t>{all->matches[i].start})
        << "value " << i;
  }
}

TEST(PagedStorageTest, ValuesLongerThanAPageSpillOntoPageRuns) {
  const std::vector<std::string> texts = LongValueTexts();
  Result<BlasSystem> original = BlasSystem::FromXml(LongValueXml(texts));
  ASSERT_TRUE(original.ok()) << original.status();
  std::string path = TempPath("long_values.idx2");
  ASSERT_TRUE(original->SavePagedIndex(path).ok());

  // The layout: a run per long value, its id repeated on every page of
  // it, and the value after a run on a fresh page.
  Result<PagedIndex> index = OpenPagedSnapshot(path);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->dict_layout.page_first_ids,
            (std::vector<uint32_t>{0, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 6,
                                   7, 8, 8}));

  // Two frames: a query pins a scan leaf in one, and a run's pages pass
  // through the other one at a time.
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(2));
  ASSERT_TRUE(paged.ok()) << paged.status();
  Result<BlasSystem> materialized = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  for (const BlasSystem* sys : {&*original, &*materialized, &*paged}) {
    ExpectLongValues(*sys, texts);
  }
}

TEST(PagedStorageTest, CorruptValueRunsAreRejected) {
  const std::vector<std::string> texts = LongValueTexts();
  Result<BlasSystem> original = BlasSystem::FromXml(LongValueXml(texts));
  ASSERT_TRUE(original.ok()) << original.status();
  std::string path = TempPath("long_values_base.idx2");
  ASSERT_TRUE(original->SavePagedIndex(path).ok());
  Result<PagedIndex> index = OpenPagedSnapshot(path);
  ASSERT_TRUE(index.ok()) << index.status();
  const std::string bytes = ReadFile(path);

  struct Case {
    const char* what;
    uint32_t value;       // the run's value id
    int32_t extra_pages;  // added to the head's end offset, in pages
  };
  for (Case c : {Case{"end offset one page short of the run", 4, -1},
                 Case{"end offset one page past the run", 3, 1},
                 Case{"run cut short by the end of the value segment", 8,
                      1}}) {
    const std::vector<uint32_t>& firsts = index->dict_layout.page_first_ids;
    const size_t head =
        std::lower_bound(firsts.begin(), firsts.end(), c.value) -
        firsts.begin();
    const size_t end_offset =
        (1 + index->dict_layout.first_value_page + head) * kPageSize + 12;
    std::string bad = bytes;
    uint32_t end = 0;
    std::memcpy(&end, bad.data() + end_offset, 4);
    PatchU32(&bad, end_offset, end + c.extra_pages * int32_t{kPageSize});
    std::string bad_path = TempPath("corrupt_run.idx2");
    WriteFile(bad_path, bad);

    Result<IndexSnapshot> snap = LoadSnapshot(bad_path);
    EXPECT_EQ(snap.status().code(), StatusCode::kCorruption) << c.what;
    EXPECT_EQ(BlasSystem::FromIndexFile(bad_path).status().code(),
              StatusCode::kCorruption)
        << c.what;
#ifdef NDEBUG
    // The paged dictionary refuses the run at decode time: its value
    // projects empty, every other value still reads back.
    Result<BlasSystem> paged = BlasSystem::OpenPaged(bad_path, TinyBudget(2));
    ASSERT_TRUE(paged.ok()) << paged.status();
    ExpectLongValues(*paged, texts, c.value);
#endif
  }
}

TEST(PagedStorageTest, ValuePageIndexGapRejected) {
  // Value page 1 and its index entry both skip one id, so every page
  // decodes on its own and the total count still adds up; only the
  // loader's "each group starts at the next unread id" check sees the
  // gap, which would otherwise shift every later value onto the wrong id.
  std::string xml = "<r>";
  for (int i = 0; i < 3000; ++i) xml += "<t>value" + std::to_string(i) + "</t>";
  Result<BlasSystem> sys = BlasSystem::FromXml(xml + "</r>");
  ASSERT_TRUE(sys.ok()) << sys.status();
  std::string path = TempPath("vpi_gap_base.idx2");
  ASSERT_TRUE(sys->SavePagedIndex(path).ok());
  Result<PagedIndex> index = OpenPagedSnapshot(path);
  ASSERT_TRUE(index.ok()) << index.status();
  ASSERT_GE(index->dict_layout.value_page_count, 3u);
  const uint32_t skipped = index->dict_layout.page_first_ids[1] + 1;

  std::string bad = ReadFile(path);
  uint64_t vpi_page = 0;
  std::memcpy(&vpi_page, bad.data() + kOffValueIndexPage, 8);
  PatchU32(&bad, vpi_page * kPageSize + 4, skipped);
  PatchU32(&bad,
           (2 + size_t{index->dict_layout.first_value_page}) * kPageSize + 4,
           skipped);  // value page 1's header first_id
  std::string bad_path = TempPath("vpi_gap.idx2");
  WriteFile(bad_path, bad);
  ASSERT_TRUE(OpenPagedSnapshot(bad_path).ok());
  EXPECT_EQ(LoadSnapshot(bad_path).status().code(), StatusCode::kCorruption);
}

// ------------------------------------------- value tree bulk-load shape ---

/// Offsets of the value tree's meta (the third of four 32-byte tree metas
/// from byte 80): first leaf at +4, size at +8, page count at +24.
constexpr size_t kOffValueMeta = 80 + 2 * 32;

uint32_t ReadU32(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(bytes[off + i]);
  }
  return v;
}

/// 1,000 `<i><p>N</p><b/></i>` items, N = 0..999: the value tree holds the
/// 1,000 prices on one P-label, in four leaves (255, 255, 255, 235), and
/// price N has rank N.
std::string PricedItemsSnapshot(const std::string& name) {
  std::string xml = "<r>";
  for (int n = 0; n < 1000; ++n) {
    xml += "<i><p>" + std::to_string(n) + "</p><b/></i>";
  }
  Result<BlasSystem> sys = BlasSystem::FromXml(xml + "</r>");
  EXPECT_TRUE(sys.ok()) << sys.status();
  EXPECT_EQ(sys->store().paged_meta().value.size, 1000u);
  const std::string path = TempPath(name);
  EXPECT_TRUE(sys->SavePagedIndex(path).ok());
  return ReadFile(path);
}

TEST(PagedStorageTest, ShortMiddleValueLeafFailsAtAttach) {
  // Leaf 1 of the value tree loses 240 records and the meta's size
  // follows: 760 records lay out as three leaves, not the four the file
  // holds, so the open preflight rejects the tree's shape.
  std::string bytes = PricedItemsSnapshot("short_leaf_base.idx2");
  const uint32_t first_leaf = ReadU32(bytes, kOffValueMeta + 4);
  ASSERT_EQ(ReadU32(bytes, kOffValueMeta + 24), 5u);  // four leaves + root
  const size_t leaf1 = (1 + size_t{first_leaf} + 1) * kPageSize;
  PatchU32(&bytes, leaf1 + 4, 255 - 240);
  PatchU64(&bytes, kOffValueMeta + 8, 1000 - 240);
  const std::string path = TempPath("short_leaf.idx2");
  WriteFile(path, bytes);
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path);
  ASSERT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(paged.status().message().find("bulk-load shape"),
            std::string::npos)
      << paged.status();
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedStorageTest, ShortMiddleValueLeafFailsTheCountThatReachesIt) {
  // The same leaf short by 10 with the meta left alone: the shape still
  // checks out at open, so the first count whose bound lands in that leaf
  // fails the query with Corruption instead of miscounting. A count that
  // stays off the leaf is still exact.
  std::string bytes = PricedItemsSnapshot("short_leaf_base2.idx2");
  const uint32_t first_leaf = ReadU32(bytes, kOffValueMeta + 4);
  PatchU32(&bytes, (1 + size_t{first_leaf} + 1) * kPageSize + 4, 245);
  const std::string path = TempPath("short_leaf2.idx2");
  WriteFile(path, bytes);
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path);
  ASSERT_TRUE(paged.ok()) << paged.status();
  QueryOptions bounded;
  bounded.translator = Translator::kPushUp;
  bounded.limit = 10;
  // Price 300 has rank 300: leaf 1 (ranks 255..509).
  Result<QueryResult> r = paged->Execute("//i[p > \"300\"]/b", bounded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
  // Price 600 lands in leaf 2 and the interval's end past leaf 3.
  r = paged->Execute("//i[p > \"600\"]/b", bounded);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->starts.size(), 10u);
  std::remove(path.c_str());
}

TEST(PagedStorageTest, ValueTreeMustHoldExactlyTheValuedRecords) {
  // One SP record loses its value: the value tree now holds one record
  // more than the valued records, which the materializing loader checks.
  std::string bytes = PricedItemsSnapshot("valued_base.idx2");
  // The first valued record in SP's leaves (its pages but the root; each
  // record past a 16-byte leaf header).
  const size_t first = (1 + size_t{ReadU32(bytes, 80 + 4)}) * kPageSize;
  const size_t end = first + (ReadU32(bytes, 80 + 24) - 1) * kPageSize;
  bool patched = false;
  for (size_t leaf = first; leaf < end && !patched; leaf += kPageSize) {
    for (uint32_t slot = 0; slot < ReadU32(bytes, leaf + 4); ++slot) {
      const size_t at = leaf + 16 + slot * sizeof(NodeRecord);
      NodeRecord rec;
      std::memcpy(&rec, bytes.data() + at, sizeof(NodeRecord));
      if (rec.data == kNullData) continue;
      rec.data = kNullData;
      std::memcpy(bytes.data() + at, &rec, sizeof(NodeRecord));
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched);
  const std::string path = TempPath("valued.idx2");
  WriteFile(path, bytes);
  Result<IndexSnapshot> snap = LoadSnapshot(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().message().find("valued records"), std::string::npos)
      << snap.status();
  std::remove(path.c_str());
}

// ------------------------------------------------------- atomic saves ---

TEST(PagedStorageTest, SavesAreAtomicReplacements) {
  BlasSystem sys = BuildRandom(31);
  std::string p2 = TempPath("atomic.idx2");
  ASSERT_TRUE(sys.SavePagedIndex(p2).ok());
  // No temp litter once the save committed.
  EXPECT_FALSE(std::ifstream(p2 + ".tmp").good());

  // Overwriting an existing snapshot goes through the same tmp + rename;
  // the result is the fresh file, not a torn mix.
  ASSERT_TRUE(sys.SavePagedIndex(p2).ok());
  EXPECT_TRUE(BlasSystem::FromIndexFile(p2).ok());
  EXPECT_TRUE(BlasSystem::OpenPaged(p2).ok());

  // An unwritable target fails up front and leaves the old file intact.
  std::string good = ReadFile(p2);
  Status s = sys.SavePagedIndex("/nonexistent-dir/nope.idx2");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ReadFile(p2), good);
}

// ----------------------------------- concurrency: DropCache vs Fetch ---

TEST(PagedStorageTest, DropCacheKeepsPinnedPagesReadable) {
  BlasSystem sys = BuildAuction();
  std::string path = TempPath("paged_pin.idx2");
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, TinyBudget(4));
  ASSERT_TRUE(paged.ok());

  const BufferPool& pool = paged->store().pool();
  PageRef pinned = pool.Fetch(0);
  ASSERT_TRUE(static_cast<bool>(pinned));
  Page copy = *pinned.get();
  // A concurrent cache drop must not free the pinned frame.
  // blas-analyze: allow(pin-escape) -- pin-survives-DropCache under test
  paged->store().DropCache();
  EXPECT_EQ(std::memcmp(copy.bytes.data(), pinned->bytes.data(), kPageSize),
            0);
  // Once released, refetching rereads the same bytes from disk.
  pinned = PageRef();
  paged->store().DropCache();
  PageRef again = pool.Fetch(0);
  ASSERT_TRUE(static_cast<bool>(again));
  EXPECT_EQ(std::memcmp(copy.bytes.data(), again->bytes.data(), kPageSize),
            0);
}

TEST(PagedStorageTest, DropCacheAndResetStatsRaceCleanlyWithQueries) {
  BlasSystem sys = BuildAuction();
  std::string path = TempPath("paged_race.idx2");
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());
  Result<BlasSystem> opened = BlasSystem::OpenPaged(path, TinyBudget(4));
  ASSERT_TRUE(opened.ok());
  BlasSystem& paged = *opened;

  Result<QueryResult> expected = sys.Execute("//item/name", QueryOptions{});
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&paged, &expected] {
      for (int i = 0; i < 20; ++i) {
        Result<QueryResult> r = paged.Execute("//item/name", QueryOptions{});
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->starts, expected->starts);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    paged.ResetCounters();  // DropCache + ResetStats under fire
    std::this_thread::yield();
  }
  for (std::thread& t : readers) t.join();
}

// ----------------------------------- collections on one shared budget ---

struct Budget {
  uint64_t limit;
  uint64_t offset;
};

TEST(PagedStorageTest, CollectionLargerThanSharedBudgetAnswersEverything) {
  // Eight auction shards, all paged against ONE 48-frame budget that is
  // far smaller than the summed index size.
  BlasCollection memory_coll;
  auto budget = std::make_shared<FrameBudget>(48 * kPageSize);
  BlasCollection paged_coll;
  uint64_t total_pages = 0;
  for (int i = 0; i < 8; ++i) {
    std::string name = "shard" + std::to_string(i);
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [i](SaxHandler* h) {
          GenOptions gen;
          gen.seed = 100 + i;
          GenerateAuction(gen, h);
        },
        BlasOptions{});
    ASSERT_TRUE(sys.ok());
    total_pages += sys->doc_stats().pages;
    std::string path = TempPath("shard" + std::to_string(i) + ".idx2");
    ASSERT_TRUE(sys->SavePagedIndex(path).ok());
    ASSERT_TRUE(memory_coll
                    .AddEvents(name,
                               [i](SaxHandler* h) {
                                 GenOptions gen;
                                 gen.seed = 100 + i;
                                 GenerateAuction(gen, h);
                               })
                    .ok());
    StorageOptions storage;
    storage.frames_per_shard = PressureFrames(8);
    storage.shards = 1;
    storage.shared_budget = budget;
    ASSERT_TRUE(paged_coll.AddPagedIndexFile(name, path, storage).ok());
  }
  ASSERT_GT(total_pages * kPageSize, budget->limit())
      << "corpus must exceed the shared budget for this test to bite";

  ThreadPool pool(4, 64);
  uint64_t total_io = 0;
  const Budget budgets[] = {{0, 0}, {10, 0}, {25, 5}};
  for (const char* q :
       {"//item/name", "/site//date", "//parlist/listitem",
        "/site/people/person/name"}) {
    for (const Budget& b : budgets) {
      QueryOptions options;
      options.limit = b.limit;
      options.offset = b.offset;
      Result<BlasCollection::CollectionResult> expected =
          memory_coll.Execute(q, options);
      ASSERT_TRUE(expected.ok()) << q;

      Result<CollectionCursor> cursor =
          paged_coll.OpenCursor(q, options, {.pool = &pool});
      ASSERT_TRUE(cursor.ok()) << q;
      Result<BlasCollection::CollectionResult> got = cursor->Drain();
      ASSERT_TRUE(got.ok()) << q << got.status();

      EXPECT_EQ(got->total_matches, expected->total_matches) << q;
      ASSERT_EQ(got->docs.size(), expected->docs.size()) << q;
      for (size_t d = 0; d < got->docs.size(); ++d) {
        EXPECT_EQ(got->docs[d].name, expected->docs[d].name) << q;
        EXPECT_EQ(got->docs[d].starts, expected->docs[d].starts)
            << q << " doc " << got->docs[d].name;
      }
      // A bounded rerun may be served entirely from resident frames, so
      // real I/O is asserted on the aggregate, not per query.
      total_io += got->stats.io_reads;
    }
  }
  EXPECT_GT(total_io, 0u);
  // The group never exceeded its allowance.
  EXPECT_LE(budget->peak_used(), budget->limit());
  EXPECT_GT(budget->used(), 0u);

  // The QueryService front door reports the real reads too.
  QueryService service(&paged_coll, ServiceOptions{.worker_threads = 4});
  auto future = service.Submit(QueryRequest{"//item/name", {}});
  Result<BlasCollection::CollectionResult> via_service = future.get();
  ASSERT_TRUE(via_service.ok());
  EXPECT_GT(service.stats().exec.io_reads, 0u);
  service.Shutdown();
  EXPECT_LE(budget->peak_used(), budget->limit());
}

// Regression: the pool destructor must leave the shared-budget group
// BEFORE counting resident frames. Counted-then-unregistered, a reclaim
// probe from a sibling pool could evict frames in the window (releasing
// their bytes itself), and the destructor's stale count double-released —
// used() drifted low, eventually wrapping, and the whole group stopped
// evicting. Pools churn open/close under query pressure; exact books or
// the budget is fiction.
TEST(PagedStorageTest, SharedBudgetBooksStayExactAcrossPoolTeardown) {
  auto budget = std::make_shared<FrameBudget>(6 * kPageSize);

  BlasSystem original = BuildAuction();
  std::string path_a = TempPath("teardown_a.idx2");
  std::string path_b = TempPath("teardown_b.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path_a).ok());
  ASSERT_TRUE(original.SavePagedIndex(path_b).ok());

  StorageOptions storage = TinyBudget(4);
  storage.shared_budget = budget;

  // A long-lived system keeps pressure on the budget while short-lived
  // siblings open, fault pages in, and tear down.
  Result<BlasSystem> keeper = BlasSystem::OpenPaged(path_a, storage);
  ASSERT_TRUE(keeper.ok());

  std::thread churn([&] {
    for (int i = 0; i < 12; ++i) {
      Result<BlasSystem> ephemeral = BlasSystem::OpenPaged(path_b, storage);
      ASSERT_TRUE(ephemeral.ok());
      Result<QueryResult> r = ephemeral->Execute("//item/name", QueryOptions{});
      ASSERT_TRUE(r.ok());
      // ~BlasSystem here: the pool unregisters and refunds its frames
      // while the keeper thread is mid-reclaim.
    }
  });
  for (int i = 0; i < 12; ++i) {
    Result<QueryResult> r =
        keeper->Execute(kAuctionQueries[i % 5], QueryOptions{});
    ASSERT_TRUE(r.ok());
  }
  churn.join();

  // Only the keeper's residents remain charged; never more than the
  // limit was ever oversubscribed by teardown refunds (an underflowed
  // counter would read as a huge number here).
  EXPECT_LE(budget->used(), budget->limit());
  keeper = Status::Internal("drop");  // destroys the keeper's pool
  EXPECT_EQ(budget->used(), 0u);
}

// ------------------------------------------------ bounds satellites ---

TEST(PagedStorageTest, OutOfRangePageIdsAreRejected) {
#ifndef NDEBUG
  GTEST_SKIP() << "bounds violations assert in debug builds";
#else
  BufferPool pool(4);
  pool.Allocate();
  EXPECT_EQ(pool.MutablePage(5), nullptr);
  EXPECT_FALSE(static_cast<bool>(pool.Fetch(5)));
  EXPECT_FALSE(static_cast<bool>(pool.Peek(5)));
#endif
}

TEST(PagedStorageTest, PagedFilePreflightRejectsShortFile) {
  std::string path = TempPath("paged_short.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(4096, '\0');
  }
  // The file cannot cover base_offset + 8 pages: Open must fail before
  // any page is read.
  Result<PagedFile> file = PagedFile::Open(path, kPageSize, 8);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace blas
