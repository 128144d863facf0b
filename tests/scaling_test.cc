// Cross-cutting invariants the scalability figures (16-18) rely on:
// replicating the corpus R times multiplies every query's result count by
// exactly R, suffix-path plans are replication-invariant, and element
// counts grow as the paper's analysis predicts.

#include <gtest/gtest.h>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"

namespace blas {
namespace {

struct Ctx {
  std::unique_ptr<BlasSystem> x1;
  std::unique_ptr<BlasSystem> x3;
};

Ctx BuildAuctionPair() {
  Ctx ctx;
  for (int repl : {1, 3}) {
    GenOptions gen;
    gen.replicate = repl;
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [&](SaxHandler* h) { GenerateAuction(gen, h); });
    EXPECT_TRUE(sys.ok());
    auto holder = std::make_unique<BlasSystem>(std::move(sys).value());
    (repl == 1 ? ctx.x1 : ctx.x3) = std::move(holder);
  }
  return ctx;
}

TEST(ScalingTest, ResultCountsScaleWithReplication) {
  Ctx ctx = BuildAuctionPair();
  std::vector<BenchQuery> queries = Figure10Queries('A');
  for (const BenchQuery& bq : XMarkBenchmarkQueries()) queries.push_back(bq);
  for (const BenchQuery& q : queries) {
    Result<QueryResult> r1 = ctx.x1->Execute(
        q.xpath, {.translator = Translator::kPushUp, .engine = Engine::kTwig});
    Result<QueryResult> r3 = ctx.x3->Execute(
        q.xpath, {.translator = Translator::kPushUp, .engine = Engine::kTwig});
    ASSERT_TRUE(r1.ok()) << q.name;
    ASSERT_TRUE(r3.ok()) << q.name;
    EXPECT_EQ(r3->starts.size(), r1->starts.size() * 3) << q.name;
  }
}

TEST(ScalingTest, SuffixPathElementsEqualResults) {
  // QA1 under Split visits exactly its matches (the figure-16 flat line).
  Ctx ctx = BuildAuctionPair();
  const std::string qa1 = Figure10Queries('A')[0].xpath;
  for (BlasSystem* sys : {ctx.x1.get(), ctx.x3.get()}) {
    sys->ResetCounters();
    Result<QueryResult> r =
        sys->Execute(
            qa1, {.translator = Translator::kSplit, .engine = Engine::kTwig});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.elements, r->starts.size());
    EXPECT_EQ(r->stats.d_joins, 0);
  }
}

TEST(ScalingTest, DLabelElementsScaleLinearly) {
  // The same query under D-labeling visits all tag occurrences, which
  // scale with the corpus (the figure-16 rising line).
  Ctx ctx = BuildAuctionPair();
  const std::string qa1 = Figure10Queries('A')[0].xpath;
  ExecStats s1;
  ExecStats s3;
  ctx.x1->ResetCounters();
  Result<QueryResult> r1 =
      ctx.x1->Execute(
          qa1, {.translator = Translator::kDLabel, .engine = Engine::kTwig});
  ASSERT_TRUE(r1.ok());
  ctx.x3->ResetCounters();
  Result<QueryResult> r3 =
      ctx.x3->Execute(
          qa1, {.translator = Translator::kDLabel, .engine = Engine::kTwig});
  ASSERT_TRUE(r3.ok());
  // Within one element of exactly 3x (the root element is shared).
  EXPECT_NEAR(static_cast<double>(r3->stats.elements),
              static_cast<double>(r1->stats.elements) * 3.0, 3.0);
  EXPECT_GT(r1->stats.elements, r1->starts.size() * 10);
}

TEST(ScalingTest, PlansAreReplicationInvariant) {
  // Translation depends only on the alphabet/schema, not corpus size.
  Ctx ctx = BuildAuctionPair();
  for (const BenchQuery& q : Figure10Queries('A')) {
    for (Translator t : {Translator::kSplit, Translator::kPushUp,
                         Translator::kUnfold}) {
      Result<ExecPlan> p1 = ctx.x1->Plan(q.xpath, t);
      Result<ExecPlan> p3 = ctx.x3->Plan(q.xpath, t);
      ASSERT_TRUE(p1.ok());
      ASSERT_TRUE(p3.ok());
      ASSERT_EQ(p1->parts.size(), p3->parts.size()) << q.name;
      for (size_t i = 0; i < p1->parts.size(); ++i) {
        EXPECT_EQ(p1->parts[i].alts.size(), p3->parts[i].alts.size());
        for (size_t a = 0; a < p1->parts[i].alts.size(); ++a) {
          EXPECT_TRUE(p1->parts[i].alts[a].range ==
                      p3->parts[i].alts[a].range);
        }
      }
    }
  }
}

TEST(ScalingTest, ElementsReadNeverExceedDLabel) {
  // BLAS translators never visit more elements than the D-labeling
  // baseline on any paper query (section 4.2, claim 2).
  Ctx ctx = BuildAuctionPair();
  for (const BenchQuery& q : Figure10Queries('A')) {
    ctx.x3->ResetCounters();
    Result<QueryResult> base =
        ctx.x3->Execute(
            q.xpath,
            {.translator = Translator::kDLabel, .engine = Engine::kTwig});
    ASSERT_TRUE(base.ok());
    for (Translator t : {Translator::kSplit, Translator::kPushUp,
                         Translator::kUnfold}) {
      ctx.x3->ResetCounters();
      Result<QueryResult> r = ctx.x3->Execute(
          q.xpath, {.translator = t, .engine = Engine::kTwig});
      ASSERT_TRUE(r.ok());
      EXPECT_LE(r->stats.elements, base->stats.elements)
          << q.name << " " << TranslatorName(t);
      EXPECT_EQ(r->starts, base->starts);
    }
  }
}

}  // namespace
}  // namespace blas
