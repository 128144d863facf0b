#include <gtest/gtest.h>

#include "blas/collection.h"
#include "gen/generator.h"
#include "tests/test_util.h"

namespace blas {
namespace {

BlasCollection MakeLibraryCollection() {
  BlasCollection coll;
  EXPECT_TRUE(coll.AddXml("doc1",
                          "<lib><book><title>A</title><year>2001</year>"
                          "</book></lib>")
                  .ok());
  EXPECT_TRUE(coll.AddXml("doc2",
                          "<lib><book><title>B</title><year>1999</year>"
                          "</book><book><title>C</title><year>2001</year>"
                          "</book></lib>")
                  .ok());
  EXPECT_TRUE(
      coll.AddXml("doc3", "<archive><paper><title>D</title></paper>"
                          "</archive>")
          .ok());
  return coll;
}

TEST(CollectionTest, AddAndIntrospect) {
  BlasCollection coll = MakeLibraryCollection();
  EXPECT_EQ(coll.size(), 3u);
  EXPECT_EQ(coll.names(),
            (std::vector<std::string>{"doc1", "doc2", "doc3"}));
  ASSERT_NE(coll.Find("doc2"), nullptr);
  EXPECT_EQ(coll.Find("doc2")->doc_stats().nodes, 7u);
  EXPECT_EQ(coll.Find("nope"), nullptr);
}

TEST(CollectionTest, DuplicateAndRemove) {
  BlasCollection coll = MakeLibraryCollection();
  EXPECT_EQ(coll.AddXml("doc1", "<x/>").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(coll.Remove("doc1").ok());
  EXPECT_EQ(coll.Remove("doc1").code(), StatusCode::kNotFound);
  EXPECT_EQ(coll.size(), 2u);
  EXPECT_TRUE(coll.AddXml("doc1", "<x/>").ok());
}

TEST(CollectionTest, CrossDocumentQuery) {
  BlasCollection coll = MakeLibraryCollection();
  Result<BlasCollection::CollectionResult> r = coll.Execute(
      "//book[year=\"2001\"]/title",
      {.translator = Translator::kPushUp, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->total_matches, 2u);
  ASSERT_EQ(r->docs.size(), 2u);
  EXPECT_EQ(r->docs[0].name, "doc1");
  EXPECT_EQ(r->docs[0].starts.size(), 1u);
  EXPECT_EQ(r->docs[1].name, "doc2");
  EXPECT_EQ(r->docs[1].starts.size(), 1u);
}

TEST(CollectionTest, HeterogeneousSchemasAreFine) {
  BlasCollection coll = MakeLibraryCollection();
  // "paper" exists only in doc3; "book" only in doc1/doc2 -- per-document
  // codecs handle disjoint alphabets.
  Result<BlasCollection::CollectionResult> r =
      coll.Execute("//title",
                   {.translator = Translator::kSplit, .engine = Engine::kTwig});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_matches, 4u);
  EXPECT_EQ(r->docs.size(), 3u);
}

TEST(CollectionTest, EmptyCollectionAndNoMatches) {
  BlasCollection empty;
  Result<BlasCollection::CollectionResult> r =
      empty.Execute(
          "//x",
          {.translator = Translator::kDLabel, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_matches, 0u);
  EXPECT_TRUE(r->docs.empty());

  BlasCollection coll = MakeLibraryCollection();
  r = coll.Execute(
      "//nonexistent",
      {.translator = Translator::kDLabel, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_matches, 0u);
}

TEST(CollectionTest, ParseErrorPropagates) {
  BlasCollection coll = MakeLibraryCollection();
  EXPECT_FALSE(
      coll.Execute(
          "not an xpath",
          {.translator = Translator::kSplit, .engine = Engine::kTwig}).ok());
}

TEST(CollectionTest, AllTranslatorsAgreeAcrossDocs) {
  BlasCollection coll;
  ASSERT_TRUE(coll
                  .AddEvents("shakespeare",
                             [](SaxHandler* h) {
                               GenOptions gen;
                               GenerateShakespeare(gen, h);
                             })
                  .ok());
  ASSERT_TRUE(coll.AddXml("tiny", "<PLAYS><PLAY><TITLE>T</TITLE></PLAY>"
                                  "</PLAYS>")
                  .ok());
  size_t expected = 0;
  bool first = true;
  for (Translator t : {Translator::kDLabel, Translator::kSplit,
                       Translator::kPushUp, Translator::kUnfold}) {
    Result<BlasCollection::CollectionResult> r =
        coll.Execute("/PLAYS/PLAY/TITLE",
                     {.translator = t, .engine = Engine::kRelational});
    ASSERT_TRUE(r.ok());
    if (first) {
      expected = r->total_matches;
      first = false;
      EXPECT_GT(expected, 1u);
    } else {
      EXPECT_EQ(r->total_matches, expected) << TranslatorName(t);
    }
  }
}

TEST(CollectionTest, CollectionWideOffsetAndLimit) {
  BlasCollection coll = MakeLibraryCollection();
  // //title matches: doc1 x1, doc2 x2, doc3 x1 (name-ordered).
  QueryOptions options;
  options.offset = 1;
  options.limit = 2;
  Result<BlasCollection::CollectionResult> r = coll.Execute("//title", options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->total_matches, 2u);
  EXPECT_EQ(r->offset_skipped, 1u);
  ASSERT_EQ(r->docs.size(), 1u);  // doc1's match was skipped by the offset
  EXPECT_EQ(r->docs[0].name, "doc2");
  EXPECT_EQ(r->docs[0].starts.size(), 2u);

  // Offset past the end: everything skipped, nothing delivered.
  options.offset = 10;
  options.limit = 0;
  r = coll.Execute("//title", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_matches, 0u);
  EXPECT_EQ(r->offset_skipped, 4u);
  EXPECT_TRUE(r->docs.empty());
}

TEST(CollectionTest, ExecuteEqualsPoolLessCursorDrain) {
  BlasCollection coll = MakeLibraryCollection();
  QueryOptions options;
  options.projection = Projection::kValue;
  Result<BlasCollection::CollectionResult> executed =
      coll.Execute("//title", options);
  ASSERT_TRUE(executed.ok());
  Result<CollectionCursor> cursor = coll.OpenCursor("//title", options);
  ASSERT_TRUE(cursor.ok());
  Result<BlasCollection::CollectionResult> drained = cursor->Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->total_matches, executed->total_matches);
  ASSERT_EQ(drained->docs.size(), executed->docs.size());
  for (size_t i = 0; i < drained->docs.size(); ++i) {
    EXPECT_EQ(drained->docs[i].name, executed->docs[i].name);
    EXPECT_EQ(drained->docs[i].starts, executed->docs[i].starts);
  }
  EXPECT_EQ(drained->stats.elements, executed->stats.elements);
  EXPECT_EQ(drained->stats.page_fetches, executed->stats.page_fetches);
}

TEST(CollectionTest, AddFromIndexFile) {
  BlasSystem sys = MustBuild("<a><b>x</b></a>");
  std::string path = testing::TempDir() + "/coll.idx2";
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());
  BlasCollection coll;
  ASSERT_TRUE(coll.AddIndexFile("persisted", path).ok());
  Result<BlasCollection::CollectionResult> r =
      coll.Execute(
          "//b",
          {.translator = Translator::kUnfold, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_matches, 1u);
}

}  // namespace
}  // namespace blas
