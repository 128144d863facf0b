#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "storage/persist.h"
#include "tests/test_util.h"

namespace blas {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(PersistTest, MissingFile) {
  EXPECT_EQ(LoadSnapshot("/nonexistent/nope.idx").status().code(),
            StatusCode::kNotFound);
}

TEST(PersistTest, BadMagicRejected) {
  std::string path = TempPath("badmagic.idx");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTANIDX-and-some-garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kCorruption);
}

TEST(PersistTest, TruncatedFileRejected) {
  // Write a valid index, then truncate it progressively.
  BlasSystem sys = MustBuild("<a><b>x</b><c k=\"v\"/></a>");
  std::string path = TempPath("trunc.idx");
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    std::string cut_path = TempPath("trunc_cut.idx");
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(LoadSnapshot(cut_path).status().code(),
              StatusCode::kCorruption)
        << "cut at " << cut;
  }
}

// -------------------------- corrupt / hostile header preflight cases ---

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Little-endian `width`-byte integer at `off`.
uint64_t GetLe(const std::string& bytes, size_t off, int width) {
  uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(bytes[off + i]);
  }
  return v;
}

void PutLe(std::string* bytes, size_t off, int width, uint64_t v) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// BLASIDX2 header offsets (see persist.h): the counts, then the SP tree
/// meta, whose second u32 is the first leaf's pool page.
constexpr size_t kOffNodeCount = 40;
constexpr size_t kOffTagCount = 48;
constexpr size_t kOffValueCount = 56;
constexpr size_t kOffSpFirstLeaf = 84;
constexpr size_t kOffTagSegmentPage = 216;

/// A saved BLASIDX2 snapshot of a small document with values and
/// attributes, as raw bytes.
std::string SavedSnapshot(const std::string& name) {
  BlasSystem sys = MustBuild(
      "<a><b>x</b><b>y</b><c k=\"v\"><b>z</b></c></a>");
  std::string path = TempPath(name);
  EXPECT_TRUE(sys.SavePagedIndex(path).ok());
  return ReadBytes(path);
}

/// Writes `bytes` and expects both loaders to fail with Corruption.
void ExpectCorrupt(const std::string& bytes, const std::string& what) {
  std::string path = TempPath("corrupt_case.idx");
  WriteBytes(path, bytes);
  Result<IndexSnapshot> r = LoadSnapshot(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << what << ": "
                                                        << r.status();
  EXPECT_EQ(BlasSystem::FromIndexFile(path).status().code(),
            StatusCode::kCorruption)
      << what;
}

TEST(PersistTest, OverstatedRecordCountRejectedBeforeAllocation) {
  // A header claiming ~2^39 records must fail the preflight against the
  // actual file size instead of attempting a multi-TB reserve().
  std::string bytes = SavedSnapshot("huge_records.idx");
  PutLe(&bytes, kOffNodeCount, 8, uint64_t{1} << 39);
  ExpectCorrupt(bytes, "node count");
}

TEST(PersistTest, OverstatedValueCountRejectedBeforeAllocation) {
  std::string bytes = SavedSnapshot("huge_values.idx");
  PutLe(&bytes, kOffValueCount, 8, uint64_t{1} << 40);
  ExpectCorrupt(bytes, "value count");
}

TEST(PersistTest, OverstatedTagCountRejected) {
  std::string bytes = SavedSnapshot("huge_tags.idx");
  PutLe(&bytes, kOffTagCount, 8, 0xFFFFFF00u);  // far beyond the tag table
  ExpectCorrupt(bytes, "tag count");
}

TEST(PersistTest, OverstatedStringLengthRejected) {
  // The first tag's length prefix points far past its segment.
  std::string bytes = SavedSnapshot("huge_string.idx");
  const size_t tag_table = GetLe(bytes, kOffTagSegmentPage, 8) * kPageSize;
  PutLe(&bytes, tag_table, 4, 0x40000000u);  // claimed 1 GiB name
  ExpectCorrupt(bytes, "tag name length");
}

TEST(PersistTest, RecordCountJustOverActualPayloadRejected) {
  // Off-by-one: the header claims one more record than the trees hold.
  std::string path = TempPath("offbyone.idx");
  std::string bytes = SavedSnapshot("offbyone.idx");
  PutLe(&bytes, kOffNodeCount, 8, GetLe(bytes, kOffNodeCount, 8) + 1);
  ExpectCorrupt(bytes, "node count + 1");
  Result<PagedIndex> opened =
      OpenPagedSnapshot(TempPath("corrupt_case.idx"));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find(
                "tree size disagrees with record count"),
            std::string::npos)
      << opened.status();
  // The unpatched original still loads.
  EXPECT_TRUE(LoadSnapshot(path).ok());
}

TEST(PersistTest, LeafRecordFieldsOutOfRangeRejected) {
  // FromIndexFile range-checks every record against the file's own
  // header: a level outside [1, max_depth], a tag past the tag table or
  // a data id past the dictionary fails the load (the value tree's
  // counting pass would otherwise size a bucket per id up to it).
  std::string path = TempPath("fields_ok.idx");
  const std::string bytes = SavedSnapshot("fields_ok.idx");
  Result<BlasSystem> ok = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(ok.ok()) << ok.status();
  const BlasSystem::DocStats stats = ok->doc_stats();

  // The first record of the first SP leaf (past the 16-byte leaf header).
  const size_t leaf = (1 + GetLe(bytes, kOffSpFirstLeaf, 4)) * kPageSize;
  const size_t at = leaf + 16;
  NodeRecord original;
  std::memcpy(&original, bytes.data() + at, sizeof(NodeRecord));
  ASSERT_GE(original.level, 1);

  auto expect_rejected = [&](const char* what, const NodeRecord& rec) {
    std::string patched = bytes;
    std::memcpy(patched.data() + at, &rec, sizeof(NodeRecord));
    std::string bad = TempPath("fields_bad.idx");
    WriteBytes(bad, patched);
    EXPECT_EQ(BlasSystem::FromIndexFile(bad).status().code(),
              StatusCode::kCorruption)
        << what;
  };
  NodeRecord rec = original;
  rec.level = 0;
  expect_rejected("level 0", rec);
  rec.level = static_cast<int32_t>(stats.depth + 1);
  expect_rejected("level max_depth + 1", rec);
  rec = original;
  rec.tag = static_cast<uint32_t>(stats.tags + 1);
  expect_rejected("tag past the tag table", rec);
  rec = original;
  for (uint32_t data :
       {static_cast<uint32_t>(stats.distinct_values), 0xFFFFFFFEu}) {
    rec.data = data;
    expect_rejected("data past the dictionary", rec);
  }
}

/// One BLAS1 file (the retired flat format) holding a single record whose
/// P-label and 32-bit tag, level and data fields are written verbatim.
std::string OneRecordBlas1(uint32_t tag, uint32_t level,
                           uint32_t data = kNullData, PLabel plabel = 1) {
  std::string bytes = "BLASIDX1";
  AppendU32(&bytes, 2);  // two tags
  for (const char* name : {"a", "b"}) {
    AppendU32(&bytes, 1);
    bytes += name;
  }
  AppendU32(&bytes, 3);     // depth
  AppendU64(&bytes, 1);     // one record
  AppendU64(&bytes, static_cast<uint64_t>(plabel >> 64));
  AppendU64(&bytes, static_cast<uint64_t>(plabel));
  AppendU32(&bytes, 1);     // start
  AppendU32(&bytes, 2);     // end
  AppendU32(&bytes, tag);
  AppendU32(&bytes, level);
  AppendU32(&bytes, data);
  AppendU64(&bytes, 0);     // no values
  return bytes;
}

TEST(PersistTest, RetiredBlas1FileIsRejectedWithAStatus) {
  // A file in the old flat format — here padded past one page, so the
  // size check alone cannot reject it — fails cleanly on every open.
  std::string bytes = OneRecordBlas1(2, 1);
  bytes.resize(kPageSize + 100, '\0');
  std::string path = TempPath("retired.idx");
  WriteBytes(path, bytes);
  Result<BlasSystem> materialized = BlasSystem::FromIndexFile(path);
  EXPECT_FALSE(materialized.ok());
  EXPECT_EQ(materialized.status().code(), StatusCode::kCorruption)
      << materialized.status();
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path);
  EXPECT_FALSE(paged.ok());
  EXPECT_EQ(paged.status().code(), StatusCode::kCorruption) << paged.status();
}

TEST(PersistTest, SystemRoundTripAnswersQueriesIdentically) {
  BlasSystem original = MustBuild(
      "<site><item id=\"1\"><name>x</name><desc><par><li>t</li></par>"
      "</desc></item><item id=\"2\"><name>y</name></item>"
      "<people><person><name>x</name></person></people></site>");
  std::string path = TempPath("system.idx");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  Result<BlasSystem> reopened = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // Same characteristics.
  BlasSystem::DocStats a = original.doc_stats();
  BlasSystem::DocStats b = reopened->doc_stats();
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tags, b.tags);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.distinct_paths, b.distinct_paths);
  EXPECT_EQ(a.distinct_values, b.distinct_values);

  // Same answers under every translator/engine (incl. Unfold, which
  // depends on the rebuilt path summary).
  for (const char* q : {"//item/name", "/site//li", "//item[@id=\"2\"]/name",
                        "//name=\"x\"", "/site/*/name"}) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig}) {
        Result<QueryResult> ra = original.Execute(
            q, {.translator = t, .engine = e});
        Result<QueryResult> rb = reopened->Execute(
            q, {.translator = t, .engine = e});
        if (!ra.ok()) {
          EXPECT_EQ(ra.status().code(), rb.status().code());
          continue;
        }
        ASSERT_TRUE(rb.ok()) << q << " " << rb.status();
        EXPECT_EQ(ra->starts, rb->starts) << q << " " << TranslatorName(t);
      }
    }
  }
}

TEST(PersistTest, GeneratedCorpusRoundTrip) {
  BlasOptions opts;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) {
        GenOptions gen;
        GenerateAuction(gen, h);
      },
      opts);
  ASSERT_TRUE(sys.ok());
  std::string path = TempPath("auction.idx");
  ASSERT_TRUE(sys->SavePagedIndex(path).ok());
  Result<BlasSystem> reopened = BlasSystem::FromIndexFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->doc_stats().nodes, sys->doc_stats().nodes);
  Result<QueryResult> r = reopened->Execute(
      "/site/regions/asia/item[shipping]/description",
      {.translator = Translator::kUnfold, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  Result<QueryResult> orig = sys->Execute(
      "/site/regions/asia/item[shipping]/description",
      {.translator = Translator::kUnfold, .engine = Engine::kRelational});
  ASSERT_TRUE(orig.ok());
  EXPECT_EQ(r->starts, orig->starts);
}


std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(PersistTest, TwoBuildsOfOneDocumentSaveIdenticalBytes) {
  // SP and value-tree internal nodes copy whole keys into snapshot
  // pages; the keys have no padding (node_store.h proves it at compile
  // time), so two snapshots of one document are byte-identical.
  std::string paths[2];
  for (int i = 0; i < 2; ++i) {
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
    ASSERT_TRUE(sys.ok()) << sys.status();
    ASSERT_GE(sys->store().paged_meta().sp.height, 2);
    ASSERT_GE(sys->store().paged_meta().value.height, 2);
    paths[i] = TempPath("deterministic_" + std::to_string(i) + ".idx2");
    ASSERT_TRUE(sys->SavePagedIndex(paths[i]).ok());
  }
  const std::string first = ReadAll(paths[0]);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(first == ReadAll(paths[1]));
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(PersistTest, Version3AndPaddedKeySizesAreRejected) {
  // Version 3 internal nodes hold 32-byte padded SP and value keys: a
  // file claiming that version, or those key sizes, fails on every open
  // instead of having its internal pages read as packed keys.
  const std::string good = SavedSnapshot("v4_base.idx2");
  ASSERT_GT(good.size(), kPageSize);
  // Header offsets (persist.h): version 8, then after the endian probe,
  // page size and record size, the SP/SD/value key sizes at 24/28/32.
  auto patched = [&](size_t off, uint32_t v) {
    std::string bytes = good;
    std::memcpy(bytes.data() + off, &v, sizeof(v));
    return bytes;
  };
  const struct {
    std::string bytes;
    const char* what;
  } cases[] = {{patched(8, 3), "version 3"},
               {patched(24, 32), "32-byte SpKey"},
               {patched(32, 32), "32-byte ValKey"}};
  for (const auto& c : cases) {
    std::string path = TempPath("v3_case.idx2");
    WriteBytes(path, c.bytes);
    EXPECT_EQ(BlasSystem::FromIndexFile(path).status().code(),
              StatusCode::kCorruption)
        << c.what;
    EXPECT_EQ(BlasSystem::OpenPaged(path).status().code(),
              StatusCode::kCorruption)
        << c.what;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace blas
