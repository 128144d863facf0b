// Demand-paged storage: cold-open latency of OpenPaged (O(1) in document
// size) vs the materializing FromIndexFile, cold-open + first-scan wall
// time of the paged pool vs the materialized load, and query cost under a
// real memory budget — page misses that are actual disk reads — vs the
// in-memory store's simulated misses.
//
// Every benchmark runs on a store={inmem,pread} axis: the store appears
// in the benchmark name and as the `backend` user counter in
// BENCH_paged_storage.json (0 = inmem, 1 = pread).
//
// Knobs: BLAS_BENCH_REPLICATE (corpus scale, default 4),
//        BLAS_BENCH_FRAMES (paged frames per shard, default 16).

#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "storage/persist.h"

namespace blas {
namespace bench {
namespace {

struct Corpus {
  std::shared_ptr<BlasSystem> memory;
  std::string path;
};

/// Builds the auction corpus once and persists it as a BLASIDX2 snapshot.
const Corpus& GetCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus();
    c->memory = GetSystem('A', EnvInt("BLAS_BENCH_REPLICATE", 4));
    c->path = "/tmp/blas_bench_paged.idx2";
    if (!c->memory->SavePagedIndex(c->path).ok()) {
      std::fprintf(stderr, "snapshot save failed\n");
      std::abort();
    }
    return c;
  }();
  return *corpus;
}

/// The `backend` user counter: 0 = in-memory store, 1 = paged (pread).
double StoreCounter(bool paged) { return paged ? 1 : 0; }

/// Query benchmarks run under real frame pressure.
StorageOptions BenchStorage() {
  StorageOptions storage;
  storage.frames_per_shard =
      static_cast<size_t>(EnvInt("BLAS_BENCH_FRAMES", 16));
  storage.shards = 1;
  return storage;
}

/// Cold open: header + schema segments only. Document size does not
/// enter the loop body.
void BM_ColdOpenPaged(benchmark::State& state) {
  const Corpus& corpus = GetCorpus();
  for (auto _ : state) {
    Result<BlasSystem> sys =
        BlasSystem::OpenPaged(corpus.path, BenchStorage());
    if (!sys.ok()) {
      state.SkipWithError(sys.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(sys->doc_stats().tags);
  }
  state.counters["backend"] = StoreCounter(true);
  state.counters["index_pages"] =
      static_cast<double>(GetCorpus().memory->doc_stats().pages);
}

/// Cold open of the materializing path: the SP leaf chain and every value
/// page are read and all four trees rebuilt before the first query can
/// run.
void BM_ColdOpenMaterialized(benchmark::State& state) {
  const Corpus& corpus = GetCorpus();
  for (auto _ : state) {
    Result<BlasSystem> sys = BlasSystem::FromIndexFile(corpus.path);
    if (!sys.ok()) {
      state.SkipWithError(sys.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(sys->doc_stats().tags);
  }
  state.counters["backend"] = StoreCounter(false);
  state.counters["index_pages"] =
      static_cast<double>(GetCorpus().memory->doc_stats().pages);
}

/// Touches every pool page once, in order, through the pool's read path.
uint64_t ScanAllPages(const BufferPool& pool) {
  const size_t pages = pool.page_count();
  pool.Readahead(0, pages);  // one ranged cold-start readahead batch
  uint64_t sum = 0;
  for (size_t id = 0; id < pages; ++id) {
    PageRef ref = pool.Fetch(static_cast<PageId>(id));
    if (!ref) break;
    sum += static_cast<uint64_t>(ref->bytes[0]);
  }
  return sum;
}

/// The acceptance benchmark: open the snapshot cold and stream every
/// index page once — the startup cost a replica or cache-warming pass
/// pays. The paged pool pays one pread (syscall + 8 KiB copy) per page
/// under an ample budget, so the comparison is the read path, not
/// eviction policy.
void BM_ColdOpenFirstScan(benchmark::State& state, bool paged) {
  const Corpus& corpus = GetCorpus();
  size_t pages = 0;
  for (auto _ : state) {
    uint64_t sum = 0;
    if (!paged) {
      // The in-memory store has no paged open: its cold start is the
      // materializing load.
      Result<BlasSystem> sys = BlasSystem::FromIndexFile(corpus.path);
      if (!sys.ok()) {
        state.SkipWithError(sys.status().ToString().c_str());
        return;
      }
      sum = ScanAllPages(sys->store().pool());
      pages = sys->store().pool().page_count();
    } else {
      Result<BlasSystem> sys =
          BlasSystem::OpenPaged(corpus.path, StorageOptions{});
      if (!sys.ok()) {
        state.SkipWithError(sys.status().ToString().c_str());
        return;
      }
      sum = ScanAllPages(sys->store().pool());
      pages = sys->store().pool().page_count();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.counters["backend"] = StoreCounter(paged);
  state.counters["pool_pages"] = static_cast<double>(pages);
}

void RunColdQuery(benchmark::State& state, const BlasSystem& sys,
                  const std::string& xpath) {
  QueryResult last;
  for (auto _ : state) {
    state.PauseTiming();
    const_cast<BlasSystem&>(sys).ResetCounters();
    state.ResumeTiming();
    Result<QueryResult> result = sys.Execute(xpath, QueryOptions{});
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    last = std::move(result).value();
    benchmark::DoNotOptimize(last.starts.data());
  }
  state.counters["backend"] = StoreCounter(sys.store().pool().paged());
  state.counters["elements"] = static_cast<double>(last.stats.elements);
  state.counters["pages"] = static_cast<double>(last.stats.page_fetches);
  state.counters["misses"] = static_cast<double>(last.stats.page_misses);
  state.counters["io_reads"] = static_cast<double>(last.stats.io_reads);
  state.counters["results"] = static_cast<double>(last.stats.output_rows);
}

/// Cold-cache query over the paged pool: misses are real disk reads.
void BM_ColdQueryPaged(benchmark::State& state, const std::string& xpath) {
  const Corpus& corpus = GetCorpus();
  Result<BlasSystem> sys =
      BlasSystem::OpenPaged(corpus.path, BenchStorage());
  if (!sys.ok()) {
    state.SkipWithError(sys.status().ToString().c_str());
    return;
  }
  RunColdQuery(state, *sys, xpath);
}

/// Cold-cache query over the in-memory store: misses are simulated.
void BM_ColdQueryMemory(benchmark::State& state, const std::string& xpath) {
  RunColdQuery(state, *GetCorpus().memory, xpath);
}

}  // namespace
}  // namespace bench
}  // namespace blas

int main(int argc, char** argv) {
  using blas::bench::BM_ColdOpenFirstScan;
  using blas::bench::BM_ColdOpenMaterialized;
  using blas::bench::BM_ColdOpenPaged;
  using blas::bench::BM_ColdQueryMemory;
  using blas::bench::BM_ColdQueryPaged;

  benchmark::RegisterBenchmark("ColdOpenPaged/pread", BM_ColdOpenPaged)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("ColdOpenMaterialized",
                               BM_ColdOpenMaterialized)
      ->Unit(benchmark::kMillisecond);

  const std::pair<const char*, bool> stores[] = {
      {"inmem", false},
      {"pread", true},
  };
  for (const auto& [name, paged] : stores) {
    benchmark::RegisterBenchmark(
        (std::string("ColdOpenFirstScan/") + name).c_str(),
        [paged = paged](benchmark::State& state) {
          BM_ColdOpenFirstScan(state, paged);
        })
        ->Unit(benchmark::kMillisecond);
  }

  const char* queries[][2] = {
      {"item_name", "//item/name"},
      {"asia_desc", "/site/regions/asia/item[shipping]/description"},
      {"dates", "/site//date"},
  };
  for (const auto& q : queries) {
    benchmark::RegisterBenchmark(
        (std::string("ColdQuery/pread/") + q[0]).c_str(),
        [xpath = std::string(q[1])](benchmark::State& state) {
          BM_ColdQueryPaged(state, xpath);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("ColdQuery/inmem/") + q[0]).c_str(),
        [xpath = std::string(q[1])](benchmark::State& state) {
          BM_ColdQueryMemory(state, xpath);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  blas::bench::RunBenchmarksToJson("paged_storage");
  return 0;
}
