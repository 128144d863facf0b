#ifndef BLAS_BENCH_BENCH_UTIL_H_
#define BLAS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"

namespace blas {
namespace bench {

/// Builds one of the paper's corpora ('S' / 'P' / 'A') at the given
/// replication factor. Caches the most recent system so consecutive
/// benchmarks on the same corpus reuse it (benchmarks run in registration
/// order; only one corpus is resident at a time).
inline std::shared_ptr<BlasSystem> GetSystem(char dataset, int replicate) {
  static char cached_dataset = 0;
  static int cached_replicate = 0;
  static std::shared_ptr<BlasSystem> cached;
  if (cached && cached_dataset == dataset &&
      cached_replicate == replicate) {
    return cached;
  }
  cached.reset();
  GenOptions options;
  options.replicate = replicate;
  auto gen = dataset == 'S'   ? GenerateShakespeare
             : dataset == 'P' ? GenerateProtein
                              : GenerateAuction;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [&](SaxHandler* h) { gen(options, h); });
  if (!sys.ok()) {
    std::fprintf(stderr, "corpus build failed: %s\n",
                 sys.status().ToString().c_str());
    std::abort();
  }
  cached = std::make_shared<BlasSystem>(std::move(sys).value());
  cached_dataset = dataset;
  cached_replicate = replicate;
  return cached;
}

/// Runs one query repeatedly under google-benchmark, reporting the paper's
/// metrics as counters: visited elements, page fetches/misses (disk
/// accesses), executed D-joins and result cardinality. Every iteration
/// runs cold-cache, as in the paper's setup (section 5.1).
inline void RunQueryBenchmark(benchmark::State& state,
                              std::shared_ptr<BlasSystem> sys,
                              const std::string& xpath,
                              Translator translator, Engine engine) {
  Result<ExecPlan> plan = sys->Plan(xpath, translator);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  QueryResult last;
  for (auto _ : state) {
    state.PauseTiming();
    sys->ResetCounters();
    state.ResumeTiming();
    Result<QueryResult> result = sys->Execute(
        xpath, {.translator = translator, .engine = engine});
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = std::move(result).value();
    benchmark::DoNotOptimize(last.starts.data());
  }
  state.counters["elements"] = static_cast<double>(last.stats.elements);
  state.counters["pages"] = static_cast<double>(last.stats.page_fetches);
  state.counters["disk"] = static_cast<double>(last.stats.page_misses);
  state.counters["djoins"] = static_cast<double>(last.stats.d_joins);
  state.counters["results"] = static_cast<double>(last.stats.output_rows);
}

/// Registers one (query, translator, engine) benchmark.
inline void RegisterQuery(const std::string& label, char dataset,
                          int replicate, const std::string& xpath,
                          Translator translator, Engine engine) {
  benchmark::RegisterBenchmark(
      label.c_str(),
      [=](benchmark::State& state) {
        std::shared_ptr<BlasSystem> sys = GetSystem(dataset, replicate);
        RunQueryBenchmark(state, sys, xpath, translator, engine);
      })
      ->Unit(benchmark::kMillisecond);
}

/// Reads an integer knob from the environment (benchmark scaling).
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

/// \brief Console reporter that additionally tees every run into a
/// machine-readable JSON file.
///
/// `BENCH_<suite>.json` holds one array with an object per run: benchmark
/// name, adjusted real/cpu time in the run's own unit, iteration count,
/// repetitions and every user counter. CI uploads these files as
/// artifacts, so perf numbers are diffable across commits without
/// scraping console output.
class BenchReporter : public benchmark::ConsoleReporter {
 public:
  explicit BenchReporter(std::string suite) : suite_(std::move(suite)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string entry;
      char buf[256];
      entry += "{\"name\":\"" + run.benchmark_name() + "\"";
      std::snprintf(buf, sizeof(buf),
                    ",\"real_time\":%.6g,\"cpu_time\":%.6g,\"unit\":\"%s\""
                    ",\"iterations\":%lld,\"repetitions\":%lld",
                    run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                    benchmark::GetTimeUnitString(run.time_unit),
                    static_cast<long long>(run.iterations),
                    static_cast<long long>(run.repetitions));
      entry += buf;
      for (const auto& [name, counter] : run.counters) {
        std::snprintf(buf, sizeof(buf), ",\"%s\":%.6g", name.c_str(),
                      static_cast<double>(counter.value));
        entry += buf;
      }
      entry += "}";
      runs_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    const std::string path = "BENCH_" + suite_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < runs_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", runs_[i].c_str(),
                   i + 1 < runs_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu runs)\n", path.c_str(),
                 runs_.size());
  }

 private:
  std::string suite_;
  std::vector<std::string> runs_;
};

/// Shared tail of every bench main(): run with the JSON-teeing reporter.
inline void RunBenchmarksToJson(const std::string& suite) {
  BenchReporter reporter(suite);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
}

inline const Translator kAllTranslators[] = {
    Translator::kDLabel, Translator::kSplit, Translator::kPushUp,
    Translator::kUnfold};
/// Section 5.3 compares D-labeling, Split and Push-up only (Unfold's
/// unions are outside the twig-join prototype's scope).
inline const Translator kTwigTranslators[] = {
    Translator::kDLabel, Translator::kSplit, Translator::kPushUp};

}  // namespace bench
}  // namespace blas

#endif  // BLAS_BENCH_BENCH_UTIL_H_
