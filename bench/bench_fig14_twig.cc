// Reproduces figure 14 (a/b): execution time and visited elements on the
// holistic twig join engine for all nine figure-10 queries, with every
// data set replicated 20x (section 5.3.2). Value predicates are removed
// (section 5.3.1) and Unfold is excluded (it relies on unions).
//
// Expected shape: Split and Push-up beat D-labeling on every query, with
// element counts up to ~4x smaller.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  const int replicate = bench::EnvInt("BLAS_FIG14_REPLICATE", 20);
  for (char dataset : {'A', 'P', 'S'}) {  // paper's figure lists QA first
    for (const BenchQuery& q : Figure10Queries(dataset)) {
      std::string xpath = StripValuePredicates(q.xpath);
      for (Translator t : bench::kTwigTranslators) {
        bench::RegisterQuery("Fig14/" + q.name + "/" + TranslatorName(t),
                             dataset, replicate, xpath, t, Engine::kTwig);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig14_twig");
  return 0;
}
