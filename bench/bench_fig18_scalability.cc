// Reproduces figure 18 (a/b): scalability of the twig query QA3
// (/site/regions/asia/item[shipping]/description) over the replicated
// Auction corpus, twig engine.
//
// Expected shape: Push-up outperforms Split (more selective subqueries,
// fewer visited elements); both outperform D-labeling; differences grow
// with file size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  const int max_repl = bench::EnvInt("BLAS_SCAL_MAX_REPLICATE", 60);
  const std::string xpath =
      StripValuePredicates(Figure10Queries('A')[2].xpath);  // QA3
  for (int repl = 10; repl <= max_repl; repl += 10) {
    for (Translator t : bench::kTwigTranslators) {
      bench::RegisterQuery(
          "Fig18/QA3/x" + std::to_string(repl) + "/" + TranslatorName(t),
          'A', repl, xpath, t, Engine::kTwig);
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig18_scalability");
  return 0;
}
