#include <cstdio>
#include <fstream>
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

TEST(PersistTest, SnapshotRoundTrip) {
  IndexSnapshot snap;
  snap.tags = {"alpha", "beta", "@id"};
  snap.max_depth = 9;
  NodeRecord rec;
  rec.plabel = (static_cast<u128>(0x1234) << 64) | 0x5678;  // >64-bit label
  rec.start = 3;
  rec.end = 9;
  rec.tag = 2;
  rec.level = 4;
  rec.data = 1;
  snap.records = {rec};
  snap.values = {"hello", "world"};

  std::string path = TempPath("roundtrip.idx");
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  Result<IndexSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->tags, snap.tags);
  EXPECT_EQ(loaded->max_depth, 9);
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->records[0].plabel, rec.plabel);
  EXPECT_EQ(loaded->records[0].start, rec.start);
  EXPECT_EQ(loaded->records[0].end, rec.end);
  EXPECT_EQ(loaded->records[0].tag, rec.tag);
  EXPECT_EQ(loaded->records[0].level, rec.level);
  EXPECT_EQ(loaded->records[0].data, rec.data);
  EXPECT_EQ(loaded->values, snap.values);
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
  ASSERT_TRUE(sys.SaveIndex(path).ok());

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

std::string ValidHeaderNoTags() {
  std::string bytes = "BLASIDX1";
  AppendU32(&bytes, 0);  // no tags
  AppendU32(&bytes, 3);  // depth
  return bytes;
}

TEST(PersistTest, OverstatedRecordCountRejectedBeforeAllocation) {
  // A tiny file whose header claims ~2^39 records: the preflight against
  // the actual file size must fail with Corruption instead of attempting
  // a multi-TB resize().
  std::string bytes = ValidHeaderNoTags();
  AppendU64(&bytes, uint64_t{1} << 39);
  std::string path = TempPath("huge_records.idx");
  WriteBytes(path, bytes);
  Result<IndexSnapshot> r = LoadSnapshot(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
}

TEST(PersistTest, OverstatedValueCountRejectedBeforeAllocation) {
  std::string bytes = ValidHeaderNoTags();
  AppendU64(&bytes, 0);                    // no records
  AppendU64(&bytes, uint64_t{1} << 40);    // absurd value count
  std::string path = TempPath("huge_values.idx");
  WriteBytes(path, bytes);
  Result<IndexSnapshot> r = LoadSnapshot(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
}

TEST(PersistTest, OverstatedTagCountRejected) {
  std::string bytes = "BLASIDX1";
  AppendU32(&bytes, 0xFFFFFF00u);  // tag count far beyond the file size
  std::string path = TempPath("huge_tags.idx");
  WriteBytes(path, bytes);
  Result<IndexSnapshot> r = LoadSnapshot(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
}

TEST(PersistTest, OverstatedStringLengthRejected) {
  // One tag whose length prefix points far past the end of the file.
  std::string bytes = "BLASIDX1";
  AppendU32(&bytes, 1);            // one tag
  AppendU32(&bytes, 0x40000000u);  // claimed 1 GiB name, nothing follows
  bytes += "ab";
  std::string path = TempPath("huge_string.idx");
  WriteBytes(path, bytes);
  Result<IndexSnapshot> r = LoadSnapshot(path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
}

TEST(PersistTest, RecordCountJustOverActualPayloadRejected) {
  // Off-by-one: the header claims one more record than the bytes hold.
  BlasSystem sys = MustBuild("<a><b>x</b></a>");
  std::string path = TempPath("offbyone.idx");
  ASSERT_TRUE(sys.SaveIndex(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Locate the record-count u64: magic + tagcount + tags + depth.
  size_t pos = 8 + 4;
  uint32_t num_tags = 0;
  for (int i = 3; i >= 0; --i) {
    num_tags = (num_tags << 8) | static_cast<uint8_t>(bytes[8 + i]);
  }
  for (uint32_t t = 0; t < num_tags; ++t) {
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<uint8_t>(bytes[pos + i]);
    }
    pos += 4 + len;
  }
  pos += 4;  // depth
  uint64_t num_records = 0;
  for (int i = 7; i >= 0; --i) {
    num_records = (num_records << 8) | static_cast<uint8_t>(bytes[pos + i]);
  }
  std::string patched = bytes;
  uint64_t bumped = num_records + 1;
  for (int i = 0; i < 8; ++i) {
    patched[pos + i] = static_cast<char>((bumped >> (8 * i)) & 0xFF);
  }
  std::string bad_path = TempPath("offbyone_bad.idx");
  WriteBytes(bad_path, patched);
  Result<IndexSnapshot> r = LoadSnapshot(bad_path);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
  // The unpatched original still loads.
  EXPECT_TRUE(LoadSnapshot(path).ok());
}

/// One BLAS1 file holding a single record whose P-label and 32-bit tag,
/// level and data fields are written verbatim.
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

TEST(PersistTest, RecordFieldsTooWideForTheRecordRejected) {
  // The record keeps 24 tag bits and 8 level bits; a file value beyond
  // them must fail, not truncate (0x01000002 would otherwise read as 2).
  std::string ok_path = TempPath("narrow_ok.idx");
  WriteBytes(ok_path, OneRecordBlas1(2, 1));
  ASSERT_TRUE(LoadSnapshot(ok_path).ok());

  struct Case {
    uint32_t tag;
    uint32_t level;
  };
  for (Case c : {Case{0x01000002u, 1}, Case{2, 0}, Case{2, 128},
                 Case{2, 0x101}}) {
    std::string path = TempPath("narrow_bad.idx");
    WriteBytes(path, OneRecordBlas1(c.tag, c.level));
    EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kCorruption)
        << c.tag << "/" << c.level;
    EXPECT_EQ(BlasSystem::FromIndexFile(path).status().code(),
              StatusCode::kCorruption)
        << c.tag << "/" << c.level;
  }
}

TEST(PersistTest, RecordDataPastTheDictionaryRejected) {
  // The value tree's counting pass sizes its buckets by the largest data
  // id, so an id past the stored dictionary must fail the load instead of
  // allocating a bucket per id up to it. The record is a root "b", so
  // its P-label must decode for the load to reach the data check.
  Result<PLabelCodec> codec = PLabelCodec::Create(2, 3);
  ASSERT_TRUE(codec.ok());
  const PLabel root_b = codec->RootLabel(2);
  std::string ok_path = TempPath("data_ok.idx");
  WriteBytes(ok_path, OneRecordBlas1(2, 1, kNullData, root_b));
  Result<BlasSystem> ok = BlasSystem::FromIndexFile(ok_path);
  ASSERT_TRUE(ok.ok()) << ok.status();

  for (uint32_t data : {1u, 0xFFFFFFFEu}) {
    std::string path = TempPath("data_bad.idx");
    WriteBytes(path, OneRecordBlas1(2, 1, data, root_b));
    EXPECT_EQ(BlasSystem::FromIndexFile(path).status().code(),
              StatusCode::kCorruption)
        << data;
  }
}

TEST(PersistTest, SystemRoundTripAnswersQueriesIdentically) {
  BlasSystem original = MustBuild(
      "<site><item id=\"1\"><name>x</name><desc><par><li>t</li></par>"
      "</desc></item><item id=\"2\"><name>y</name></item>"
      "<people><person><name>x</name></person></people></site>");
  std::string path = TempPath("system.idx");
  ASSERT_TRUE(original.SaveIndex(path).ok());

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
  ASSERT_TRUE(sys->SaveIndex(path).ok());
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

}  // namespace
}  // namespace blas
