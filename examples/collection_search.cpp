// Query a multi-document collection through the scatter-gather merge
// cursor: four auction shards are indexed independently, a parallel
// cursor fans per-shard execution onto a worker pool and merges answers
// in (shard, document order), and a bounded "top-k" query cancels shards
// it never needs. The same collection is then fronted by a QueryService
// whose plan cache stores one parsed query plus one translated plan per
// shard.
//
// Usage:  ./build/collection_search

#include <chrono>
#include <cstdio>
#include <string>

#include "blas/collection.h"
#include "gen/generator.h"
#include "service/query_service.h"
#include "service/thread_pool.h"

namespace {

int Fail(const blas::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  // 1. Index four auction shards (distinct seeds -> distinct documents).
  blas::BlasCollection collection;
  for (int i = 0; i < 4; ++i) {
    blas::GenOptions gen;
    gen.seed = 42 + static_cast<uint64_t>(i);
    blas::Status added = collection.AddEvents(
        "shard" + std::to_string(i),
        [gen](blas::SaxHandler* h) { blas::GenerateAuction(gen, h); });
    if (!added.ok()) return Fail(added);
  }
  size_t nodes = 0;
  for (const std::string& name : collection.names()) {
    nodes += collection.Find(name)->doc_stats().nodes;
  }
  std::printf("collection: %zu shards, %zu nodes total\n\n",
              collection.size(), nodes);

  const char* query = "//closed_auction[price < \"100\"]/date";

  // 2. Pool-less baseline (the merge runs every shard inline, one at a
  // time) vs. scatter-gather over a 4-thread pool.
  auto t0 = std::chrono::steady_clock::now();
  blas::Result<blas::BlasCollection::CollectionResult> pool_less =
      collection.Execute(query);
  if (!pool_less.ok()) return Fail(pool_less.status());
  double inline_ms = MillisSince(t0);

  blas::ThreadPool pool(4, 64);
  t0 = std::chrono::steady_clock::now();
  blas::Result<blas::CollectionCursor> cursor =
      collection.OpenCursor(query, {}, {.pool = &pool});
  if (!cursor.ok()) return Fail(cursor.status());
  blas::Result<blas::BlasCollection::CollectionResult> parallel =
      cursor->Drain();
  if (!parallel.ok()) return Fail(parallel.status());
  double par_ms = MillisSince(t0);

  std::printf("%s\n", query);
  std::printf("  no pool (inline): %5zu matches in %7.2f ms\n",
              pool_less->total_matches, inline_ms);
  std::printf("  scatter-gather (4 threads): %5zu matches in %7.2f ms\n",
              parallel->total_matches, par_ms);

  // 3. Top-10 with cross-document early termination: shards the merge
  // never reaches are cancelled before they run.
  blas::QueryOptions top10;
  top10.limit = 10;
  top10.projection = blas::Projection::kValue;
  blas::Result<blas::CollectionCursor> bounded =
      collection.OpenCursor(query, top10, {.pool = &pool});
  if (!bounded.ok()) return Fail(bounded.status());
  std::printf("\nfirst 10 answers (shard, value):\n");
  while (std::optional<blas::CollectionMatch> m = bounded->Next()) {
    std::printf("  %-8s %s\n", std::string(m->document).c_str(),
                m->match.content.c_str());
  }
  blas::CollectionCursor::ScatterStats scatter = bounded->scatter_stats();
  std::printf("early termination: %zu/%zu shards executed, %zu cancelled\n",
              scatter.docs_executed, scatter.docs_total,
              scatter.docs_cancelled);

  // 4. The collection behind a concurrent service: one parse + one plan
  // per shard on the first request, pure cache hits afterwards.
  blas::QueryService service(&collection, {.worker_threads = 4});
  for (int round = 0; round < 3; ++round) {
    auto future = service.Submit({.xpath = query});
    blas::Result<blas::BlasCollection::CollectionResult> served =
        future.get();
    if (!served.ok()) return Fail(served.status());
  }
  blas::ServiceStats stats = service.stats();
  std::printf(
      "\nservice: %llu queries, plan cache %llu hits / %llu misses, "
      "per-shard plans %llu hits / %llu misses\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.plan_cache_hits),
      static_cast<unsigned long long>(stats.plan_cache_misses),
      static_cast<unsigned long long>(stats.doc_plan_hits),
      static_cast<unsigned long long>(stats.doc_plan_misses));
  return 0;
}
