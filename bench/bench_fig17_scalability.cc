// Reproduces figure 17 (a/b): scalability of the path query QA2
// (/site/regions//item/description) over the replicated Auction corpus,
// twig engine.
//
// Expected shape: Split/Push-up outperform D-labeling (fewer joins, up to
// ~4x fewer elements), with a widening gap as the file grows.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  const int max_repl = bench::EnvInt("BLAS_SCAL_MAX_REPLICATE", 60);
  const std::string xpath = Figure10Queries('A')[1].xpath;  // QA2
  for (int repl = 10; repl <= max_repl; repl += 10) {
    for (Translator t : bench::kTwigTranslators) {
      bench::RegisterQuery(
          "Fig17/QA2/x" + std::to_string(repl) + "/" + TranslatorName(t),
          'A', repl, xpath, t, Engine::kTwig);
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig17_scalability");
  return 0;
}
