// Reproduces figure 11: the relational algebra / SQL expressions generated
// for QS3 by D-labeling, Split, Push-up and Unfold, plus the section 5.2.2
// plan-shape analysis (join and selection counts). Also times the query
// translator itself.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "translate/sql_render.h"
#include "xpath/parser.h"

namespace blas {
namespace {

constexpr char kQS3[] =
    "/PLAYS/PLAY/ACT/SCENE[TITLE ='SCENE III. A public place.']//LINE";

void PrintPlans() {
  std::shared_ptr<BlasSystem> sys = bench::GetSystem('S', 1);
  std::printf("=== Figure 11: plans generated for QS3 ===\n%s\n\n", kQS3);
  for (Translator t : bench::kAllTranslators) {
    Result<ExecPlan> plan = sys->Plan(kQS3, t);
    if (!plan.ok()) {
      std::printf("-- %s: %s\n", TranslatorName(t),
                  plan.status().ToString().c_str());
      continue;
    }
    ExecPlan::Shape shape = plan->AnalyzeShape();
    std::printf("-- %s: %d D-joins, %d equality selections, "
                "%d range selections, %d tag scans, %d union arms\n",
                TranslatorName(t), shape.d_joins, shape.equality_selections,
                shape.range_selections, shape.tag_scans, shape.union_arms);
    std::printf("%s\n\nSQL:\n%s\n\n",
                RenderAlgebra(*plan, sys->tags()).c_str(),
                RenderSql(*plan, sys->tags()).c_str());
  }
  std::printf("Paper check (fig. 11): D-labeling needs 5 D-joins; Split, "
              "Push-up and Unfold need 2.\nSplit: 2 range + 1 equality "
              "selections; Push-up: 1 range + 2 equality; Unfold: 3 "
              "equality.\n\n");
}

void BM_Translate(benchmark::State& state, Translator translator) {
  std::shared_ptr<BlasSystem> sys = bench::GetSystem('S', 1);
  Result<Query> query = ParseXPath(kQS3);
  for (auto _ : state) {
    Result<ExecPlan> plan = sys->Plan(*query, translator);
    benchmark::DoNotOptimize(&plan);
  }
}

}  // namespace
}  // namespace blas

int main(int argc, char** argv) {
  blas::PrintPlans();
  for (blas::Translator t : blas::bench::kAllTranslators) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Translate/QS3/") + blas::TranslatorName(t)).c_str(),
        [t](benchmark::State& s) { blas::BM_Translate(s, t); });
  }
  benchmark::Initialize(&argc, argv);
  blas::bench::RunBenchmarksToJson("fig11_plans");
  return 0;
}
