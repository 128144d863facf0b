// Ablation benchmarks for the design choices DESIGN.md calls out:
//   1. Engine ablation: relational (materializing) executor vs holistic
//      twig join on identical plans.
//   2. Access-path ablation: P-label clustering (SP) vs tag clustering
//      (SD) for the same logical query -- the core of the paper's
//      disk-access argument (section 4.2, claim 2).
//   3. Buffer-cache sensitivity: simulated disk accesses (LRU misses) for
//      a twig query across cache sizes.
//   4. Join-order optimization: decomposition order vs statistics-driven
//      greedy ordering (intermediate-result sizes shrink).

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace blas {
namespace {

void BM_JoinOrder(benchmark::State& state, char dataset,
                  const std::string& xpath, bool optimize) {
  std::shared_ptr<BlasSystem> sys = bench::GetSystem(dataset, 4);
  ExecOptions options;
  options.optimize_join_order = optimize;
  QueryResult last;
  for (auto _ : state) {
    state.PauseTiming();
    sys->ResetCounters();
    state.ResumeTiming();
    Result<QueryResult> r = sys->Execute(
        xpath, {.translator = Translator::kPushUp,
                .engine = Engine::kRelational,
                .exec = options});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = std::move(r).value();
  }
  state.counters["interm_rows"] =
      static_cast<double>(last.stats.intermediate_rows);
  state.counters["results"] = static_cast<double>(last.stats.output_rows);
}

void BM_CacheSweep(benchmark::State& state) {
  const size_t cache_pages = static_cast<size_t>(state.range(0));
  GenOptions options;
  options.replicate = 4;
  BlasOptions bopt;
  bopt.cache_pages = cache_pages;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [&](SaxHandler* h) { GenerateAuction(options, h); }, bopt);
  if (!sys.ok()) {
    state.SkipWithError(sys.status().ToString().c_str());
    return;
  }
  const std::string xpath = Figure10Queries('A')[2].xpath;  // QA3
  QueryResult last;
  for (auto _ : state) {
    state.PauseTiming();
    sys->ResetCounters();
    state.ResumeTiming();
    Result<QueryResult> r =
        sys->Execute(
            xpath,
            {.translator = Translator::kPushUp, .engine = Engine::kRelational});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    last = std::move(r).value();
  }
  state.counters["disk"] = static_cast<double>(last.stats.page_misses);
  state.counters["pages"] = static_cast<double>(last.stats.page_fetches);
}

}  // namespace
}  // namespace blas

int main(int argc, char** argv) {
  using namespace blas;

  // 1. Engine ablation on the paper's tree queries.
  for (char dataset : {'S', 'P', 'A'}) {
    const BenchQuery q = Figure10Queries(dataset)[2];  // tree query
    std::string xpath = StripValuePredicates(q.xpath);
    for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
      bench::RegisterQuery(
          "Ablation/Engine/" + q.name + "/" + EngineName(engine), dataset,
          /*replicate=*/4, xpath, Translator::kPushUp, engine);
    }
  }

  // 2. Access-path ablation: same suffix path query, P-label selection
  // (Split) vs tag scans + joins (D-labeling), relational engine.
  for (char dataset : {'S', 'P', 'A'}) {
    const BenchQuery q = Figure10Queries(dataset)[0];  // suffix path
    bench::RegisterQuery("Ablation/AccessPath/" + q.name + "/plabel-cluster",
                         dataset, 4, q.xpath, Translator::kSplit,
                         Engine::kRelational);
    bench::RegisterQuery("Ablation/AccessPath/" + q.name + "/tag-cluster",
                         dataset, 4, q.xpath, Translator::kDLabel,
                         Engine::kRelational);
  }

  // 3. Join-order optimization on the paper's tree queries.
  for (char dataset : {'P', 'A'}) {
    const BenchQuery q = Figure10Queries(dataset)[2];
    for (bool optimize : {false, true}) {
      std::string name = std::string("Ablation/JoinOrder/") + q.name + "/" +
                         (optimize ? "optimized" : "decomposition-order");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [dataset, q, optimize](benchmark::State& s) {
            blas::BM_JoinOrder(s, dataset, q.xpath, optimize);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }

  // 4. Cache sensitivity.
  benchmark::RegisterBenchmark("Ablation/CacheSweep/QA3",
                               blas::BM_CacheSweep)
      ->Arg(64)
      ->Arg(256)
      ->Arg(1024)
      ->Arg(4096)
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("ablation");
  return 0;
}
