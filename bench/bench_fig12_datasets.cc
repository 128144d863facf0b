// Reproduces figure 12: the data set characteristics table (size, nodes,
// tags, depth), plus index-generation throughput for each corpus.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "xml/xml_writer.h"

namespace blas {
namespace {

struct Corpus {
  char key;
  const char* name;
  void (*gen)(const GenOptions&, SaxHandler*);
};

constexpr Corpus kCorpora[] = {
    {'S', "Shakespeare", GenerateShakespeare},
    {'P', "Protein", GenerateProtein},
    {'A', "Auction", GenerateAuction},
};

void PrintTable() {
  std::printf("=== Figure 12: XML data sets ===\n");
  std::printf("%-12s %10s %10s %6s %6s %8s %8s\n", "Dataset", "XML bytes",
              "Nodes", "Tags", "Depth", "Paths", "Pages");
  for (const Corpus& c : kCorpora) {
    // Serialize once to report the equivalent XML text size.
    XmlTextSink sink;
    c.gen(GenOptions{}, &sink);
    std::shared_ptr<BlasSystem> sys = bench::GetSystem(c.key, 1);
    BlasSystem::DocStats s = sys->doc_stats();
    std::printf("%-12s %10zu %10zu %6zu %6d %8zu %8zu\n", c.name,
                sink.text().size(), s.nodes, s.tags, s.depth,
                s.distinct_paths, s.pages);
  }
  std::printf("Paper (fig. 12): Shakespeare 1.3MB/31975/19/7, Protein "
              "3.5MB/113831/66/7, Auction 3.4MB/61890/77/12.\n\n");
}

void BM_IndexGeneration(benchmark::State& state, const Corpus& corpus) {
  for (auto _ : state) {
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [&](SaxHandler* h) { corpus.gen(GenOptions{}, h); });
    if (!sys.ok()) {
      state.SkipWithError(sys.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&sys);
    state.counters["nodes"] =
        static_cast<double>(sys->doc_stats().nodes);
  }
}

}  // namespace
}  // namespace blas

int main(int argc, char** argv) {
  blas::PrintTable();
  for (const auto& corpus : blas::kCorpora) {
    benchmark::RegisterBenchmark(
        (std::string("BM_IndexGeneration/") + corpus.name).c_str(),
        [&corpus](benchmark::State& s) {
          blas::BM_IndexGeneration(s, corpus);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  blas::bench::RunBenchmarksToJson("fig12_datasets");
  return 0;
}
