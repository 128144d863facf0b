// Auction-site analytics over the XMark-style corpus: runs the benchmark
// query analogues (Q1, Q2, Q4, Q5, Q6) plus the figure-10 QA queries on
// both engines, printing a comparison table of time / visited elements /
// joins per translator -- a miniature of the paper's section 5 study.
//
// Build & run:  ./build/examples/auction_analytics [replication]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"

int main(int argc, char** argv) {
  int replicate = argc > 1 ? std::atoi(argv[1]) : 4;
  if (replicate < 1) replicate = 1;

  blas::GenOptions gen;
  gen.replicate = replicate;
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::FromEvents(
      [&](blas::SaxHandler* h) { blas::GenerateAuction(gen, h); });
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  std::printf("auction corpus (x%d): %zu nodes, %zu pages\n\n", replicate,
              sys->doc_stats().nodes, sys->doc_stats().pages);

  std::vector<blas::BenchQuery> queries = blas::XMarkBenchmarkQueries();
  for (const blas::BenchQuery& q : blas::Figure10Queries('A')) {
    queries.push_back(q);
  }

  for (blas::Engine engine :
       {blas::Engine::kRelational, blas::Engine::kTwig}) {
    std::printf("=== %s engine ===\n", blas::EngineName(engine));
    std::printf("%-5s %-28s %12s %10s %8s %8s\n", "query", "", "translator",
                "time(ms)", "elems", "joins");
    for (const blas::BenchQuery& q : queries) {
      for (blas::Translator t :
           {blas::Translator::kDLabel, blas::Translator::kSplit,
            blas::Translator::kPushUp, blas::Translator::kUnfold}) {
        sys->ResetCounters();
        blas::Result<blas::QueryResult> r = sys->Execute(
            q.xpath, {.translator = t, .engine = engine});
        if (!r.ok()) {
          std::printf("%-5s %-28.28s %12s %10s\n", q.name.c_str(),
                      q.xpath.c_str(), blas::TranslatorName(t), "n/a");
          continue;
        }
        std::printf("%-5s %-28.28s %12s %10.3f %8llu %8llu\n", q.name.c_str(),
                    q.xpath.c_str(), blas::TranslatorName(t), r->millis,
                    static_cast<unsigned long long>(r->stats.elements),
                    static_cast<unsigned long long>(r->stats.d_joins));
      }
    }
    std::printf("\n");
  }
  return 0;
}
