// Executable versions of the paper's analytical claims, checked over all
// three corpora and the full figure-10 workload.

#include <gtest/gtest.h>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "xpath/parser.h"

namespace blas {
namespace {

struct Corpus {
  char key;
  void (*gen)(const GenOptions&, SaxHandler*);
};

class PaperClaims : public ::testing::TestWithParam<Corpus> {
 protected:
  void SetUp() override {
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [&](SaxHandler* h) { GetParam().gen(GenOptions{}, h); });
    ASSERT_TRUE(sys.ok());
    sys_ = std::make_unique<BlasSystem>(std::move(sys).value());
  }
  std::unique_ptr<BlasSystem> sys_;
};

/// Section 4.2 claim 1: D-labeling uses l-1 joins; Split/Push-up at most
/// b+d; Unfold removes the descendant-axis joins entirely.
TEST_P(PaperClaims, JoinCounts) {
  for (const BenchQuery& q : Figure10Queries(GetParam().key)) {
    Result<ExecPlan> dlabel = sys_->Plan(q.xpath, Translator::kDLabel);
    ASSERT_TRUE(dlabel.ok()) << q.name;
    int l = dlabel->AnalyzeShape().tag_scans;
    EXPECT_EQ(dlabel->AnalyzeShape().d_joins, l - 1) << q.name;
    for (Translator t :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      Result<ExecPlan> plan = sys_->Plan(q.xpath, t);
      ASSERT_TRUE(plan.ok()) << q.name;
      EXPECT_LE(plan->AnalyzeShape().d_joins, l - 1) << q.name;
    }
    // Suffix path queries need no joins at all under BLAS.
    Result<Query> parsed = ParseXPath(q.xpath);
    ASSERT_TRUE(parsed.ok());
    if (parsed->IsSuffixPathQuery()) {
      Result<ExecPlan> split = sys_->Plan(q.xpath, Translator::kSplit);
      EXPECT_EQ(split->AnalyzeShape().d_joins, 0) << q.name;
    }
  }
}

/// Section 4.2 claim 2: BLAS visits no more elements than D-labeling.
TEST_P(PaperClaims, ElementAccessBound) {
  for (const BenchQuery& q : Figure10Queries(GetParam().key)) {
    sys_->ResetCounters();
    Result<QueryResult> base =
        sys_->Execute(
            q.xpath,
            {.translator = Translator::kDLabel, .engine = Engine::kRelational});
    ASSERT_TRUE(base.ok()) << q.name;
    for (Translator t :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      sys_->ResetCounters();
      Result<QueryResult> r = sys_->Execute(
          q.xpath, {.translator = t, .engine = Engine::kRelational});
      ASSERT_TRUE(r.ok()) << q.name;
      EXPECT_LE(r->stats.elements, base->stats.elements)
          << q.name << " " << TranslatorName(t);
      EXPECT_EQ(r->starts, base->starts) << q.name;
    }
  }
}

/// Unfold's subqueries are all equality selections (section 4.1.3): no
/// range selections remain after unfolding.
TEST_P(PaperClaims, UnfoldUsesEqualitySelectionsOnly) {
  for (const BenchQuery& q : Figure10Queries(GetParam().key)) {
    Result<ExecPlan> plan = sys_->Plan(q.xpath, Translator::kUnfold);
    ASSERT_TRUE(plan.ok()) << q.name;
    EXPECT_EQ(plan->AnalyzeShape().range_selections, 0) << q.name;
  }
}

/// Proposition 3.2 on real data: evaluating a suffix path query is a pure
/// selection whose result size equals the visited element count.
TEST_P(PaperClaims, SuffixPathSelectionsVisitOnlyMatches) {
  for (const BenchQuery& q : Figure10Queries(GetParam().key)) {
    Result<Query> parsed = ParseXPath(q.xpath);
    ASSERT_TRUE(parsed.ok());
    if (!parsed->IsSuffixPathQuery()) continue;
    sys_->ResetCounters();
    Result<QueryResult> r =
        sys_->Execute(
            q.xpath,
            {.translator = Translator::kSplit, .engine = Engine::kRelational});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.elements, r->starts.size()) << q.name;
  }
}

/// Section 7: the bi-labeled representation stays comparable in size to
/// the document — each node costs one fixed-width record.
TEST_P(PaperClaims, StorageStaysProportionalToNodes) {
  BlasSystem::DocStats s = sys_->doc_stats();
  // 4 clustered trees (SP, SD, value, doc-order) * 48-byte records +
  // internal nodes: < 200 bytes/node.
  EXPECT_LT(s.pages * kPageSize, s.nodes * 200) << "storage blow-up";
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, PaperClaims,
    ::testing::Values(Corpus{'S', GenerateShakespeare},
                      Corpus{'P', GenerateProtein},
                      Corpus{'A', GenerateAuction}),
    [](const auto& info) { return std::string(1, info.param.key); });

}  // namespace
}  // namespace blas
