#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "twig/twig.h"

namespace blas {
namespace {

/// Helper running one query on the twig engine and returning starts.
std::vector<uint32_t> Twig(const BlasSystem& sys, const std::string& xpath,
                           Translator t, ExecStats* stats = nullptr) {
  Result<ExecPlan> plan = sys.Plan(xpath, t);
  EXPECT_TRUE(plan.ok()) << plan.status();
  TwigEngine twig(EnvOf(sys));
  ExecStats local;
  Result<std::vector<uint32_t>> r =
      twig.Execute(*plan, stats != nullptr ? stats : &local);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? *r : std::vector<uint32_t>{};
}

TEST(TwigTest, BottomUpPruningRemovesUnsupportedAnchors) {
  // Only the first b has both a c and a d below it.
  BlasSystem sys = MustBuild(
      "<a><b><c/><d/></b><b><c/></b><b><d/></b></a>");
  std::vector<uint32_t> r =
      Twig(sys, "/a/b[c]/d", Translator::kDLabel);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r, Twig(sys, "/a/b[c]/d", Translator::kPushUp));
}

TEST(TwigTest, TopDownPruningRemovesUnreachableDescendants) {
  // c under the wrong parent must not survive even though it is "alive".
  BlasSystem sys = MustBuild("<a><b><c/></b><x><c/></x></a>");
  EXPECT_EQ(Twig(sys, "/a/b/c", Translator::kDLabel).size(), 1u);
  EXPECT_EQ(Twig(sys, "/a/b/c", Translator::kSplit).size(), 1u);
}

TEST(TwigTest, ReturnNodeMidTree) {
  // The return node is the branching point itself.
  BlasSystem sys = MustBuild(
      "<a><b><c/><d/></b><b><c/></b></a>");
  std::vector<uint32_t> r = Twig(sys, "/a/b[c][d]", Translator::kDLabel);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r, Twig(sys, "/a/b[c][d]", Translator::kPushUp));
}

TEST(TwigTest, SiblingIndependence) {
  // A classic twig pitfall: pairing (b1, c2) across different parents.
  BlasSystem sys = MustBuild(
      "<r><p><b/><q><c/></q></p><p><b/></p><p><q><c/></q></p></r>");
  // //p[b]//c: only the first p has both b and a c below it.
  std::vector<uint32_t> r = Twig(sys, "//p[b]//c", Translator::kDLabel);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r, Twig(sys, "//p[b]//c", Translator::kSplit));
  EXPECT_EQ(r, Twig(sys, "//p[b]//c", Translator::kPushUp));
}

TEST(TwigTest, RecursiveNestingWithExactLevels) {
  BlasSystem sys = MustBuild(
      "<a><a><b/><a><b/></a></a></a>");
  // /a/a/b must bind b's parent to the level-2 a only.
  std::vector<uint32_t> r = Twig(sys, "/a/a/b", Translator::kDLabel);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r, Twig(sys, "/a/a/b", Translator::kSplit));
  // //a/a/b matches both nested bs.
  EXPECT_EQ(Twig(sys, "//a/a/b", Translator::kDLabel).size(), 2u);
  EXPECT_EQ(Twig(sys, "//a/a/b", Translator::kPushUp).size(), 2u);
}

TEST(TwigTest, EveryStreamReadOnce) {
  BlasSystem sys = MustBuild(
      "<a><b><c/></b><b><c/><c/></b><d><c/></d></a>");
  ExecStats stats;
  Twig(sys, "//b/c", Translator::kDLabel, &stats);
  // Streams: b (2 elements) + c (4 elements) = 6, exactly once each.
  EXPECT_EQ(stats.elements, 6u);
  EXPECT_EQ(stats.d_joins, 1);  // one structural join per pattern edge
}

TEST(TwigTest, UnfoldPerAltJoinOnTwigEngine) {
  // Recursive document where unfold alternatives carry distinct deltas.
  BlasSystem sys = MustBuild(
      "<l><i><l><i><x/></i></l></i><i><x/></i></l>");
  std::vector<uint32_t> expected =
      NaiveEvalStarts(*ParseXPath("//l//i/x"), *sys.dom());
  EXPECT_EQ(Twig(sys, "//l//i/x", Translator::kUnfold), expected);
}

TEST(TwigTest, ValuePredicatesWorkOnTwigEngineToo) {
  // The paper strips value predicates for its twig prototype; ours
  // supports them via the data column filter.
  BlasSystem sys = MustBuild(
      "<a><b><v>x</v></b><b><v>y</v></b></a>");
  EXPECT_EQ(Twig(sys, "//b[v=\"x\"]", Translator::kPushUp).size(), 1u);
  EXPECT_EQ(Twig(sys, "//b[v=\"zz\"]", Translator::kPushUp).size(), 0u);
}

TEST(TwigTest, DeepChainQuery) {
  // A 6-level path query stresses the stack sweeps.
  BlasSystem sys = MustBuild(
      "<a><b><c><d><e><f/></e></d></c></b>"
      "<b><c><d><e/></d></c></b></a>");
  for (Translator t : {Translator::kDLabel, Translator::kSplit,
                       Translator::kPushUp, Translator::kUnfold}) {
    EXPECT_EQ(Twig(sys, "/a/b/c/d/e/f", t).size(), 1u)
        << TranslatorName(t);
  }
}

TEST(TwigTest, MatchesRelationalEngineOnBranchyQueries) {
  BlasSystem sys = MustBuild(
      "<s><p><n>a</n><q><r/></q><q/></p><p><n>b</n></p>"
      "<p><q><r/><r/></q><n>c</n></p></s>");
  for (const char* q :
       {"//p[n]/q", "//p[q/r]/n", "/s/p[q][n]", "//q[r]", "//p//r"}) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      Result<QueryResult> rel = sys.Execute(
          q, {.translator = t, .engine = Engine::kRelational});
      Result<QueryResult> twig = sys.Execute(
          q, {.translator = t, .engine = Engine::kTwig});
      ASSERT_TRUE(rel.ok());
      ASSERT_TRUE(twig.ok());
      EXPECT_EQ(rel->starts, twig->starts)
          << q << " " << TranslatorName(t);
    }
  }
}

}  // namespace
}  // namespace blas
