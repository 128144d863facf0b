// Reproduces figure 16 (a/b): scalability of the suffix path query QA1
// (//category/description/parlist/listitem) as the Auction corpus is
// replicated 10x..60x (the paper's 34.8MB..174MB sweep), twig engine.
//
// Expected shape: Split/Push-up nearly constant (selection only, identical
// plans); D-labeling time and visited elements grow linearly.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  const int max_repl = bench::EnvInt("BLAS_SCAL_MAX_REPLICATE", 60);
  const std::string xpath = Figure10Queries('A')[0].xpath;  // QA1
  for (int repl = 10; repl <= max_repl; repl += 10) {
    for (Translator t : bench::kTwigTranslators) {
      bench::RegisterQuery(
          "Fig16/QA1/x" + std::to_string(repl) + "/" + TranslatorName(t),
          'A', repl, xpath, t, Engine::kTwig);
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig16_scalability");
  return 0;
}
