// Reproduces figure 15 (a/b): the XMark benchmark queries (Q1, Q2, Q4, Q5,
// Q6 analogues; twig versions per section 5.3.1) on the replicated Auction
// corpus (the paper uses the 69.7MB ~ 20x corpus), holistic twig join
// engine, D-labeling vs Split vs Push-up.
//
// Expected shape: Push-up <= Split < D-labeling on every query.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace blas;
  const int replicate = bench::EnvInt("BLAS_FIG15_REPLICATE", 20);
  for (const BenchQuery& q : XMarkBenchmarkQueries()) {
    for (Translator t : bench::kTwigTranslators) {
      bench::RegisterQuery("Fig15/" + q.name + "/" + TranslatorName(t), 'A',
                           replicate, q.xpath, t, Engine::kTwig);
    }
  }
  benchmark::Initialize(&argc, argv);
  bench::RunBenchmarksToJson("fig15_xmark");
  return 0;
}
