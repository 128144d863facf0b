#include <gtest/gtest.h>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "xml/dom.h"
#include "xml/xml_writer.h"

namespace blas {
namespace {

struct CorpusCase {
  char key;
  const char* name;
  void (*gen)(const GenOptions&, SaxHandler*);
  // Figure-12 targets.
  size_t paper_nodes;
  size_t paper_tags;
  int paper_depth;
};

const CorpusCase kCases[] = {
    {'S', "Shakespeare", GenerateShakespeare, 31975, 19, 7},
    {'P', "Protein", GenerateProtein, 113831, 66, 7},
    {'A', "Auction", GenerateAuction, 61890, 77, 12},
};

class CorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusTest, MatchesFigure12Characteristics) {
  const CorpusCase& c = GetParam();
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [&](SaxHandler* h) { c.gen(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok());
  BlasSystem::DocStats s = sys->doc_stats();
  // Node count within 15% of the paper's value.
  EXPECT_GT(s.nodes, c.paper_nodes * 85 / 100) << c.name;
  EXPECT_LT(s.nodes, c.paper_nodes * 115 / 100) << c.name;
  // Tag alphabet within 5 of the paper's.
  EXPECT_NEAR(static_cast<double>(s.tags),
              static_cast<double>(c.paper_tags), 5.0)
      << c.name;
  EXPECT_EQ(s.depth, c.paper_depth) << c.name;
}

TEST_P(CorpusTest, DeterministicAcrossRuns) {
  const CorpusCase& c = GetParam();
  XmlTextSink a;
  XmlTextSink b;
  GenOptions small;
  c.gen(small, &a);
  c.gen(small, &b);
  EXPECT_EQ(a.text(), b.text()) << c.name;
}

TEST_P(CorpusTest, ReplicationScalesNodesLinearly) {
  const CorpusCase& c = GetParam();
  GenOptions one;
  GenOptions three;
  three.replicate = 3;
  Result<BlasSystem> s1 = BlasSystem::FromEvents(
      [&](SaxHandler* h) { c.gen(one, h); });
  Result<BlasSystem> s3 = BlasSystem::FromEvents(
      [&](SaxHandler* h) { c.gen(three, h); });
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s3.ok());
  // replicate=3 triples everything except the shared root element.
  EXPECT_EQ(s3->doc_stats().nodes, (s1->doc_stats().nodes - 1) * 3 + 1)
      << c.name;
  // Depth and alphabet unchanged.
  EXPECT_EQ(s3->doc_stats().depth, s1->doc_stats().depth);
  EXPECT_EQ(s3->doc_stats().tags, s1->doc_stats().tags);
}

TEST_P(CorpusTest, GeneratedTextParses) {
  const CorpusCase& c = GetParam();
  XmlTextSink sink;
  c.gen(GenOptions{}, &sink);
  Result<DomTree> tree = ParseDom(sink.text());
  ASSERT_TRUE(tree.ok()) << c.name << ": " << tree.status();
  // DOM agrees with direct-event indexing.
  Result<BlasSystem> direct = BlasSystem::FromEvents(
      [&](SaxHandler* h) { c.gen(GenOptions{}, h); });
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(tree->node_count(), direct->doc_stats().nodes);
  EXPECT_EQ(tree->max_depth(), direct->doc_stats().depth);
}

TEST_P(CorpusTest, WorkloadQueriesAreNonEmpty) {
  const CorpusCase& c = GetParam();
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [&](SaxHandler* h) { c.gen(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok());
  for (const BenchQuery& q : Figure10Queries(c.key)) {
    Result<QueryResult> r =
        sys->Execute(
            q.xpath,
            {.translator = Translator::kPushUp, .engine = Engine::kRelational});
    ASSERT_TRUE(r.ok()) << q.name;
    EXPECT_FALSE(r->starts.empty())
        << q.name << " should select something on " << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, CorpusTest, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(GenTest, XMarkQueriesNonEmptyOnAuction) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok());
  for (const BenchQuery& q : XMarkBenchmarkQueries()) {
    Result<QueryResult> r =
        sys->Execute(
            q.xpath,
            {.translator = Translator::kPushUp, .engine = Engine::kTwig});
    ASSERT_TRUE(r.ok()) << q.name;
    EXPECT_FALSE(r->starts.empty()) << q.name;
  }
}

TEST(GenTest, AuctionReachesDepth12ViaParlistRecursion) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok());
  // The recursive arm must actually occur: listitem inside listitem.
  Result<QueryResult> r = sys->Execute(
      "//listitem//listitem",
      {.translator = Translator::kDLabel, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->starts.empty());
}

TEST(GenTest, RandomDocRespectsShapeKnobs) {
  Result<BlasSystem> sys = BlasSystem::FromEvents([](SaxHandler* h) {
    GenerateRandomDoc(/*seed=*/7, /*approx_nodes=*/300, /*num_tags=*/5,
                      /*max_depth=*/6, /*num_values=*/4, h);
  });
  ASSERT_TRUE(sys.ok());
  BlasSystem::DocStats s = sys->doc_stats();
  EXPECT_LE(s.depth, 6);
  EXPECT_GE(s.nodes, 250u);
  // Alphabet: t0..t4 + root + up to 3 attribute names.
  EXPECT_LE(s.tags, 9u);
}

TEST(GenTest, RandomDocSeedsDiffer) {
  XmlTextSink a;
  XmlTextSink b;
  GenerateRandomDoc(1, 200, 5, 6, 4, &a);
  GenerateRandomDoc(2, 200, 5, 6, 4, &b);
  EXPECT_NE(a.text(), b.text());
}

TEST(GenTest, PaperExampleQueryHitsProteinCorpus) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateProtein(GenOptions{}, h); });
  ASSERT_TRUE(sys.ok());
  Result<QueryResult> r = sys->Execute(
      PaperExampleQuery(),
      {.translator = Translator::kUnfold, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->starts.empty());
}

}  // namespace
}  // namespace blas
