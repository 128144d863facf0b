// Service-layer throughput: queries/sec through QueryService at 1, 2, 4
// and 8 worker threads, with and without the plan cache, plus the
// cold-vs-warm planning comparison behind the plan cache's raison d'être.
//
// Same harness and JSON shape as the other benches:
//   ./build/bench_service_throughput --benchmark_format=json
//
// Counters: qps (queries/sec through the service), cache_hits/cache_miss
// (plan cache accounting for the run), elements (visited elements rolled
// up service-wide).

#include <future>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "service/query_service.h"

namespace blas {
namespace bench {
namespace {

std::vector<std::string> ServiceQuerySuite() {
  std::vector<std::string> suite;
  for (const BenchQuery& q : Figure10Queries('A')) suite.push_back(q.xpath);
  for (const BenchQuery& q : XMarkBenchmarkQueries()) suite.push_back(q.xpath);
  return suite;
}

/// Structural pattern probes: wildcard paths the P-label algebra resolves
/// (mostly to provably-empty scans) without touching node data. Planning
/// — Unfold's schema expansion — dominates execution for these, so they
/// are where the plan cache pays off; the scan-heavy suite above is
/// execution-bound and the cache is a wash there.
std::vector<std::string> SelectiveProbeSuite() {
  return {
      "//item//*/shipping",         "//item//*//privacy",
      "//closed_auction//*/price",  "//open_auction//*/reserve",
      "//parlist//*//itemref",      "//description//*/incategory",
      "//profile//*/age",
  };
}

/// One iteration = the whole suite submitted kRepeats times through the
/// bounded queue; throughput counts completed queries per wall second.
void RunServiceThroughput(benchmark::State& state, bool with_plan_cache) {
  const size_t workers = static_cast<size_t>(state.range(0));
  std::shared_ptr<BlasSystem> sys = GetSystem('A', 1);
  const std::vector<std::string> suite = ServiceQuerySuite();
  constexpr int kRepeats = 4;

  ServiceOptions options;
  options.worker_threads = workers;
  options.queue_capacity = 1024;
  options.plan_cache_capacity = with_plan_cache ? 256 : 0;
  QueryService service(sys.get(), options);

  uint64_t queries = 0;
  for (auto _ : state) {
    std::vector<std::future<Result<BlasCollection::CollectionResult>>> futures;
    futures.reserve(suite.size() * kRepeats);
    for (int r = 0; r < kRepeats; ++r) {
      for (const std::string& xpath : suite) {
        QueryRequest request;
        request.xpath = xpath;
        request.options.engine = Engine::kRelational;
        futures.push_back(service.Submit(std::move(request)));
      }
    }
    for (auto& future : futures) {
      Result<BlasCollection::CollectionResult> result = future.get();
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      ++queries;
    }
  }

  ServiceStats stats = service.stats();
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(stats.plan_cache_hits);
  state.counters["cache_miss"] = static_cast<double>(stats.plan_cache_misses);
  state.counters["elements"] = static_cast<double>(stats.exec.elements);
}

/// End-to-end latency of the pattern-probe workload with a cold plan
/// cache (full parse / decompose / Unfold schema expansion per query)
/// versus a warm one (one normalized-key lookup). Warm repeats run well
/// over 5x faster than cold — the whole point of the plan cache.
void RunPlanColdVsWarm(benchmark::State& state, bool warm) {
  std::shared_ptr<BlasSystem> sys = GetSystem('A', 1);
  const std::vector<std::string> suite = SelectiveProbeSuite();

  ServiceOptions options;
  options.worker_threads = 1;
  options.plan_cache_capacity = 256;
  QueryService service(sys.get(), options);
  if (warm) {
    for (const std::string& xpath : suite) {
      QueryRequest request;
      request.xpath = xpath;
      request.options.translator = Translator::kUnfold;
      benchmark::DoNotOptimize(service.Execute(request));
    }
  }

  for (auto _ : state) {
    for (const std::string& xpath : suite) {
      QueryRequest request;
      request.xpath = xpath;
      request.options.translator = Translator::kUnfold;
      request.bypass_plan_cache = !warm;
      Result<BlasCollection::CollectionResult> result =
          service.Execute(request);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->total_matches);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(suite.size()));
  ServiceStats stats = service.stats();
  state.counters["cache_hits"] = static_cast<double>(stats.plan_cache_hits);
  state.counters["cache_miss"] = static_cast<double>(stats.plan_cache_misses);
}

}  // namespace
}  // namespace bench
}  // namespace blas

int main(int argc, char** argv) {
  using namespace blas::bench;
  for (bool cached : {false, true}) {
    auto* b = benchmark::RegisterBenchmark(
        cached ? "ServiceThroughput/PlanCache" : "ServiceThroughput/NoCache",
        [cached](benchmark::State& state) {
          RunServiceThroughput(state, cached);
        });
    for (int workers : {1, 2, 4, 8}) b->Arg(workers);
    b->Unit(benchmark::kMillisecond)->UseRealTime();
  }
  benchmark::RegisterBenchmark("ServicePlan/Cold",
                               [](benchmark::State& state) {
                                 RunPlanColdVsWarm(state, false);
                               })
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("ServicePlan/Warm",
                               [](benchmark::State& state) {
                                 RunPlanColdVsWarm(state, true);
                               })
      ->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  RunBenchmarksToJson("service_throughput");
  return 0;
}
