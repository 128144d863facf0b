#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operators.h"
#include "tests/test_util.h"
#include "twig/twig.h"

namespace blas {
namespace {

NodeRecord Rec(uint32_t start, uint32_t end, int32_t level,
               PLabel plabel = 0) {
  NodeRecord r;
  r.start = start;
  r.end = end;
  r.level = level;
  r.plabel = plabel;
  return r;
}

TEST(JoinPredTest, Kinds) {
  DLabel anc{1, 100, 2};
  NodeRecord d3 = Rec(5, 6, 3);
  NodeRecord d5 = Rec(7, 8, 5);

  JoinPred contain{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(contain.LevelOk(anc, d3));
  EXPECT_TRUE(contain.LevelOk(anc, d5));

  JoinPred min2{PlanPart::Join::kContainMin, 2, nullptr};
  EXPECT_FALSE(min2.LevelOk(anc, d3));  // 3 < 2+2
  EXPECT_TRUE(min2.LevelOk(anc, d5));

  JoinPred exact1{PlanPart::Join::kContainExact, 1, nullptr};
  EXPECT_TRUE(exact1.LevelOk(anc, d3));
  EXPECT_FALSE(exact1.LevelOk(anc, d5));
}

TEST(JoinPredTest, PerAltDeltas) {
  PlanPart part;
  part.alts.push_back(PlanAlt{PLabelRange{10, 10}, {2, 4}});
  part.alts.push_back(PlanAlt{PLabelRange{20, 20}, {1}});
  PerAltDeltas table = BuildPerAltDeltas(part);
  JoinPred pred{PlanPart::Join::kContainPerAlt, 0, &table};

  DLabel anc{1, 100, 2};
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 4, 10)));   // delta 2 in {2,4}
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 6, 10)));   // delta 4
  EXPECT_FALSE(pred.LevelOk(anc, Rec(5, 6, 5, 10)));  // delta 3
  EXPECT_TRUE(pred.LevelOk(anc, Rec(5, 6, 3, 20)));   // delta 1
  EXPECT_FALSE(pred.LevelOk(anc, Rec(5, 6, 3, 30)));  // unknown plabel
}

TEST(StructuralJoinTest, BasicContainment) {
  // Anchors: [1,10] and [12,20]; descs inside each plus one outside.
  std::vector<Row> rows = {{DLabel{1, 10, 1}}, {DLabel{12, 20, 1}}};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(13, 14, 2),
                                   Rec(21, 22, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<Row> out = StructuralJoinRows(rows, 0, descs, pred);
  ASSERT_EQ(out.size(), 2u);
}

TEST(StructuralJoinTest, NestedAnchors) {
  // //a//a style: anchors nest; inner desc joins with both.
  std::vector<Row> rows = {{DLabel{1, 100, 1}}, {DLabel{10, 50, 2}}};
  std::vector<NodeRecord> descs = {Rec(20, 21, 3), Rec(60, 61, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<Row> out = StructuralJoinRows(rows, 0, descs, pred);
  // (outer, 20), (inner, 20), (outer, 60).
  EXPECT_EQ(out.size(), 3u);
}

TEST(StructuralJoinTest, SharedAnchorMultipliesRows) {
  // Two rows with the same anchor binding both extend.
  DLabel anchor{1, 10, 1};
  std::vector<Row> rows = {{anchor, DLabel{2, 3, 2}},
                           {anchor, DLabel{4, 5, 2}}};
  std::vector<NodeRecord> descs = {Rec(6, 7, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<Row> out = StructuralJoinRows(rows, 0, descs, pred);
  EXPECT_EQ(out.size(), 2u);
  for (const Row& row : out) EXPECT_EQ(row.size(), 3u);
}

TEST(StructuralJoinTest, EmptyInputs) {
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(StructuralJoinRows({}, 0, {Rec(1, 2, 1)}, pred).empty());
  EXPECT_TRUE(
      StructuralJoinRows({{DLabel{1, 2, 1}}}, 0, {}, pred).empty());
}

TEST(StructuralJoinTest, StrictContainmentExcludesSelf) {
  // Identical intervals must not join (descendant axis is strict).
  std::vector<Row> rows = {{DLabel{5, 10, 2}}};
  std::vector<NodeRecord> descs = {Rec(5, 10, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  EXPECT_TRUE(StructuralJoinRows(rows, 0, descs, pred).empty());
}

TEST(SemiJoinTest, MarkAnchors) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1), Rec(12, 20, 1),
                                     Rec(22, 30, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(23, 24, 2)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<char> marked = SemiMarkAnchors(anchors, descs, {}, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 0, 1}));

  // desc_alive masks out the second desc.
  marked = SemiMarkAnchors(anchors, descs, {1, 0}, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 0, 0}));
}

TEST(SemiJoinTest, MarkDescs) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1), Rec(12, 20, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(13, 14, 2),
                                   Rec(21, 22, 1)};
  JoinPred pred{PlanPart::Join::kContain, 0, nullptr};
  std::vector<char> marked = SemiMarkDescs(anchors, {}, descs, pred);
  EXPECT_EQ(marked, (std::vector<char>{1, 1, 0}));

  marked = SemiMarkDescs(anchors, {0, 1}, descs, pred);
  EXPECT_EQ(marked, (std::vector<char>{0, 1, 0}));
}

TEST(SemiJoinTest, LevelPredicatesApply) {
  std::vector<NodeRecord> anchors = {Rec(1, 10, 1)};
  std::vector<NodeRecord> descs = {Rec(2, 3, 2), Rec(4, 5, 3)};
  JoinPred exact2{PlanPart::Join::kContainExact, 2, nullptr};
  EXPECT_EQ(SemiMarkDescs(anchors, {}, descs, exact2),
            (std::vector<char>{0, 1}));
  EXPECT_EQ(SemiMarkAnchors(anchors, descs, {}, exact2),
            (std::vector<char>{1}));
}

TEST(ExecutorTest, StatsAreReported) {
  BlasSystem sys = MustBuild(
      "<a><b><c>x</c></b><b><c>y</c></b><d><c>z</c></d></a>");
  Result<QueryResult> r =
      sys.Execute(
          "//b/c",
          {.translator = Translator::kDLabel, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.d_joins, 1);
  // D-labeling reads all b (2) and all c (3) elements.
  EXPECT_EQ(r->stats.elements, 5u);
  EXPECT_GT(r->stats.page_fetches, 0u);
  EXPECT_EQ(r->stats.output_rows, 2u);

  Result<QueryResult> s =
      sys.Execute(
          "//b/c",
          {.translator = Translator::kSplit, .engine = Engine::kRelational});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stats.d_joins, 0);
  // Suffix path: only the matching tuples are visited.
  EXPECT_EQ(s->stats.elements, 2u);
}

TEST(ExecutorTest, TwigEngineCountsStreams) {
  BlasSystem sys = MustBuild(
      "<a><b><c>x</c></b><b><c>y</c></b><d><c>z</c></d></a>");
  ExecStats stats;
  Result<ExecPlan> plan = sys.Plan("//b/c", Translator::kDLabel);
  ASSERT_TRUE(plan.ok());
  TwigEngine twig(EnvOf(sys));
  Result<std::vector<uint32_t>> r = twig.Execute(*plan, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(stats.elements, 5u);
}

TEST(ExecutorTest, EmptyPlanRejected) {
  BlasSystem sys = MustBuild("<a/>");
  ExecPlan plan;
  RelationalExecutor exec(EnvOf(sys));
  ExecStats stats;
  EXPECT_FALSE(exec.Execute(plan, &stats).ok());
  TwigEngine twig(EnvOf(sys));
  EXPECT_FALSE(twig.Execute(plan, &stats).ok());
}

TEST(ExecutorTest, ValuePredicateNotInDictionary) {
  BlasSystem sys = MustBuild("<a><b>x</b></a>");
  Result<QueryResult> r = sys.Execute(
      "//b=\"never-seen\"",
      {.translator = Translator::kSplit, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->starts.empty());
  // The scan short-circuits: no elements visited at all.
  EXPECT_EQ(r->stats.elements, 0u);
}

// Seeds whose ancestors sit at the root, at two depths of the recursive
// tag b, and under one shared b.
constexpr char kSeedXml[] =
    "<r><b><b><c>x</c><e/></b><c>x</c><e/></b>"
    "<b><c>y</c><e/></b><b><c>x</c><c>x</c></b></r>";

TEST(ExecutorTest, SeededChainsAgreeWithNaiveEval) {
  BlasSystem sys = MustBuild(kSeedXml);
  for (const char* xpath :
       {"/r[b/c=\"y\"]/b", "//b[c=\"x\"]/e", "//b[c=\"x\"]//e",
        "/r/b[c=\"x\"]/e", "//r//b[c=\"x\"]", "//b[c=\"x\"][e]",
        "/r[b/c=\"z\"]/b", "//b[c=\"y\"]/e", "//r[b/c=\"x\"]//e"}) {
    ExpectAllAgree(sys, xpath);
  }
}

TEST(ExecutorTest, SeededChainVisitsSeedsAncestorsAndWindowedParts) {
  BlasSystem sys = MustBuild(kSeedXml);
  for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
    // One y literal (the cap is the one r): the seed, r by an ancestor
    // seek at the root level, then the three b children of r.
    Result<QueryResult> root = sys.Execute(
        "/r[b/c=\"y\"]/b",
        {.translator = Translator::kPushUp, .engine = engine});
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->starts.size(), 3u);
    EXPECT_EQ(root->stats.elements, 1u + 1u + 3u);
    // Four x literals under the four b's (the cap): three ancestors —
    // both b's above the nested seed, the shared b once — then the two e's
    // inside the outer b.
    Result<QueryResult> nested = sys.Execute(
        "//b[c=\"x\"]/e",
        {.translator = Translator::kSplit, .engine = engine});
    ASSERT_TRUE(nested.ok());
    EXPECT_EQ(nested->starts.size(), 2u);
    EXPECT_EQ(nested->stats.elements, 4u + 3u + 2u);
  }
}

TEST(ExecutorTest, IntermediateRowsTracked) {
  BlasSystem sys = MustBuild(
      "<a><b><c/><c/></b><b><c/></b></a>");
  Result<QueryResult> r =
      sys.Execute(
          "/a/b/c",
          {.translator = Translator::kDLabel, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  // Join 1: a x b -> 2 rows; join 2: rows x c -> 3 rows.
  EXPECT_EQ(r->stats.intermediate_rows, 5u);
}

}  // namespace
}  // namespace blas
