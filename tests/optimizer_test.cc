#include <gtest/gtest.h>

#include "exec/optimizer.h"
#include "gen/generator.h"
#include "tests/test_util.h"

namespace blas {
namespace {

TEST(CostModelTest, ExactCountsForPlabelSelections) {
  BlasSystem sys = MustBuild(
      "<a><b><c/><c/></b><b><c/></b><d><c/></d></a>");
  CostModel model(&sys.summary(), &sys.dict());

  Result<ExecPlan> plan = sys.Plan("//b/c", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  // //b/c selects exactly 3 instances.
  EXPECT_EQ(model.EstimateCardinality(plan->parts[0]), 3u);

  plan = sys.Plan("/a/d/c", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(model.EstimateCardinality(plan->parts[0]), 1u);
}

TEST(CostModelTest, TagAndFullScans) {
  BlasSystem sys = MustBuild("<a><b/><b/><c><b/></c></a>");
  CostModel model(&sys.summary(), &sys.dict());
  Result<ExecPlan> plan = sys.Plan("//b", Translator::kDLabel);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(model.EstimateCardinality(plan->parts[0]), 3u);
  plan = sys.Plan("//*", Translator::kDLabel);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(model.EstimateCardinality(plan->parts[0]), 5u);
}

TEST(CostModelTest, ValuePredicateSelectivity) {
  BlasSystem sys = MustBuild("<a><b>x</b><b>x</b><b>x</b><b>x</b></a>");
  CostModel model(&sys.summary(), &sys.dict());
  Result<ExecPlan> plan = sys.Plan("//b=\"x\"", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  uint64_t with_value = model.EstimateCardinality(plan->parts[0]);
  EXPECT_GT(with_value, 0u);
  EXPECT_LT(with_value, 4u);
  // Absent literal: estimate is zero.
  plan = sys.Plan("//b=\"nope\"", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(model.EstimateCardinality(plan->parts[0]), 0u);
}

TEST(OptimizerTest, MovesSelectivePartFirst) {
  // Query with one huge branch (//LINE-like) and one tiny branch: the
  // optimizer must join the tiny one first.
  BlasSystem sys = MustBuild(
      "<r><p><big/><big/><big/><big/><big/><tiny/></p>"
      "<p><big/><big/><big/></p></r>");
  Result<ExecPlan> plan = sys.Plan("//p[big]/tiny", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  CostModel model(&sys.summary(), &sys.dict());
  ExecPlan optimized = OptimizeJoinOrder(*plan, model);
  ASSERT_EQ(optimized.parts.size(), 3u);
  // Part order: //p (root), then //tiny (1 instance), then //big (8).
  EXPECT_EQ(optimized.parts[1].label, "//tiny");
  EXPECT_EQ(optimized.parts[2].label, "//big");
  // Anchors and return remapped consistently.
  EXPECT_EQ(optimized.parts[1].anchor, 0);
  EXPECT_EQ(optimized.parts[2].anchor, 0);
  EXPECT_EQ(optimized.return_part, 1);
}

TEST(OptimizerTest, PreservesResultsOnRandomQueries) {
  BlasOptions options;
  options.keep_dom = true;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) {
        GenerateRandomDoc(/*seed=*/31, /*approx_nodes=*/500, /*num_tags=*/5,
                          /*max_depth=*/8, /*num_values=*/3, h);
      },
      options);
  ASSERT_TRUE(sys.ok());
  ExecOptions opt;
  opt.optimize_join_order = true;
  for (const char* q :
       {"//t0[t1]/t2", "/root/t0[t1/t2][t3]", "//t1[t2=\"v0\"]//t3",
        "//t0//t1//t2", "//t4[t0 and t1]/t2"}) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig}) {
        Result<QueryResult> plain = sys->Execute(
            q, {.translator = t, .engine = e});
        Result<QueryResult> optimized = sys->Execute(
            q, {.translator = t, .engine = e, .exec = opt});
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(optimized.ok());
        EXPECT_EQ(plain->starts, optimized->starts)
            << q << " " << TranslatorName(t) << " " << EngineName(e);
      }
    }
  }
}

TEST(OptimizerTest, ReducesIntermediateRows) {
  // Selective branch joined first shrinks materialized rows.
  std::string xml = "<r>";
  for (int i = 0; i < 50; ++i) {
    xml += "<p><big/><big/><big/><big/></p>";
  }
  xml += "<p><big/><tiny/></p></r>";
  BlasSystem sys = MustBuild(xml);
  ExecOptions opt;
  opt.optimize_join_order = true;
  Result<QueryResult> plain = sys.Execute(
      "//p[big]/tiny",
      {.translator = Translator::kSplit, .engine = Engine::kRelational});
  Result<QueryResult> optimized = sys.Execute(
      "//p[big]/tiny", {.translator = Translator::kSplit,
                        .engine = Engine::kRelational,
                        .exec = opt});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(plain->starts, optimized->starts);
  EXPECT_LT(optimized->stats.intermediate_rows,
            plain->stats.intermediate_rows);
}

TEST(OptimizerTest, TwoPartPlansUntouched) {
  BlasSystem sys = MustBuild("<a><b><c/></b></a>");
  Result<ExecPlan> plan = sys.Plan("/a//c", Translator::kSplit);
  ASSERT_TRUE(plan.ok());
  CostModel model(&sys.summary(), &sys.dict());
  ExecPlan optimized = OptimizeJoinOrder(*plan, model);
  EXPECT_EQ(optimized.parts.size(), plan->parts.size());
  EXPECT_EQ(optimized.parts[1].label, plan->parts[1].label);
}

}  // namespace
}  // namespace blas
