// Scatter-gather collection execution vs. the pool-less merge (every
// document claimed inline, one at a time) on an 8-document auction corpus: wall-time speedup at 1/2/4/8
// worker threads, and limit-k early termination across documents (page
// counts plus how many documents were cancelled before they ever ran).

#include <cstdio>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "blas/collection.h"
#include "service/thread_pool.h"

namespace blas {
namespace {

/// The 8-document auction corpus (distinct seeds, so distinct documents).
/// Built once and shared across benchmarks.
const BlasCollection& GetCollection() {
  static const BlasCollection* corpus = [] {
    const int docs = bench::EnvInt("BLAS_BENCH_COLL_DOCS", 8);
    auto* coll = new BlasCollection();
    for (int i = 0; i < docs; ++i) {
      GenOptions gen;
      gen.seed = 42 + static_cast<uint64_t>(i);
      Status s = coll->AddEvents("doc" + std::to_string(i),
                                 [gen](SaxHandler* h) {
                                   GenerateAuction(gen, h);
                                 });
      if (!s.ok()) {
        std::fprintf(stderr, "corpus build failed: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
    }
    return coll;
  }();
  return *corpus;
}

struct CollCase {
  const char* name;
  const char* xpath;
};

const CollCase kCases[] = {
    {"path", "//item/name"},
    {"internal", "/site/regions//item/description"},
    {"value", "//closed_auction[price < \"100\"]/date"},
};

/// threads == 0: no pool — the merge claims every document inline, lazily
/// and in name order.
void BM_Collection(benchmark::State& state, const CollCase& c,
                   size_t threads) {
  const BlasCollection& coll = GetCollection();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads, 256);
  ScatterOptions scatter;
  scatter.pool = pool.get();
  size_t total = 0;
  ExecStats last;
  for (auto _ : state) {
    Result<CollectionCursor> cursor = coll.OpenCursor(c.xpath, {}, scatter);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    Result<BlasCollection::CollectionResult> result = cursor->Drain();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->total_matches);
    total = result->total_matches;
    last = result->stats;
  }
  state.counters["matches"] = static_cast<double>(total);
  state.counters["pages"] = static_cast<double>(last.page_fetches);
  state.counters["elements"] = static_cast<double>(last.elements);
}

/// Bounded collection query: the merge cancels still-queued documents
/// once `limit` answers are out. Reports how far the scatter actually got.
void BM_CollectionLimit(benchmark::State& state, const CollCase& c,
                        uint64_t limit, size_t threads) {
  const BlasCollection& coll = GetCollection();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads, 256);
  ScatterOptions scatter;
  scatter.pool = pool.get();
  QueryOptions options;
  options.limit = limit;
  ExecStats last;
  CollectionCursor::ScatterStats scatter_stats;
  for (auto _ : state) {
    Result<CollectionCursor> cursor =
        coll.OpenCursor(c.xpath, options, scatter);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    Result<BlasCollection::CollectionResult> result = cursor->Drain();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->total_matches);
    last = result->stats;
    scatter_stats = cursor->scatter_stats();
  }
  state.counters["pages"] = static_cast<double>(last.page_fetches);
  state.counters["docs_run"] =
      static_cast<double>(scatter_stats.docs_executed);
  state.counters["docs_cancelled"] =
      static_cast<double>(scatter_stats.docs_cancelled);
}

void Register() {
  const size_t kThreads[] = {0, 1, 2, 4, 8};  // 0 = no pool
  for (const CollCase& c : kCases) {
    for (size_t threads : kThreads) {
      std::string label =
          std::string("BM_Collection/") + c.name + "/" +
          (threads == 0 ? "inline" : std::to_string(threads) + "t");
      benchmark::RegisterBenchmark(label.c_str(),
                                   [&c, threads](benchmark::State& s) {
                                     BM_Collection(s, c, threads);
                                   })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  for (const CollCase& c : kCases) {
    for (uint64_t limit : {uint64_t{10}, uint64_t{100}}) {
      for (size_t threads : {size_t{0}, size_t{4}}) {
        std::string label =
            std::string("BM_CollectionLimit/") + c.name + "/limit" +
            std::to_string(limit) + "/" +
            (threads == 0 ? "inline" : std::to_string(threads) + "t");
        benchmark::RegisterBenchmark(
            label.c_str(),
            [&c, limit, threads](benchmark::State& s) {
              BM_CollectionLimit(s, c, limit, threads);
            })
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime();
      }
    }
  }
}

}  // namespace
}  // namespace blas

int main(int argc, char** argv) {
  std::printf(
      "Scatter-gather collection queries on an 8-doc auction corpus.\n"
      "BM_Collection compares the pool-less merge (inline, one document\n"
      "at a time) against the merge over a pool of 1/2/4/8 worker\n"
      "threads (same answers, same order). BM_CollectionLimit shows\n"
      "cross-document early\n"
      "termination: bounded queries cancel still-queued documents, so\n"
      "compare `pages` and `docs_run`/`docs_cancelled` with the\n"
      "unbounded rows.\n\n");
  blas::Register();
  benchmark::Initialize(&argc, argv);
  blas::bench::RunBenchmarksToJson("collection_parallel");
  return 0;
}
