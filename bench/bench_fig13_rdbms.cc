// Reproduces figure 13 (a/b/c): query processing time on the RDBMS-style
// engine for the figure-10 queries over Shakespeare, Protein and Auction,
// comparing D-labeling, Split, Push-up and Unfold.
//
// Expected shape (section 5.2.3): suffix path queries ~100x faster under
// BLAS than D-labeling; path queries: Unfold fastest; tree queries: Unfold
// 3-7x faster than D-labeling; Unfold >= Push-up >= Split >= D-labeling.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  for (char dataset : {'S', 'P', 'A'}) {
    for (const BenchQuery& q : Figure10Queries(dataset)) {
      for (Translator t : bench::kAllTranslators) {
        bench::RegisterQuery(
            "Fig13/" + q.name + "/" + TranslatorName(t), dataset,
            /*replicate=*/1, q.xpath, t, Engine::kRelational);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig13_rdbms");
  return 0;
}
