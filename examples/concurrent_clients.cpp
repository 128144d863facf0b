// Concurrent clients: serve XPath queries from several client threads
// through one QueryService — bounded submission queue, worker pool,
// plan cache, and service-wide statistics.
//
// Build & run:  ./build/concurrent_clients [num_clients] [rounds]

#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "service/query_service.h"

int main(int argc, char** argv) {
  const int num_clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 25;

  // 1. Index the XMark-auction corpus once; the service shares it across
  //    all workers (the read path is thread-safe).
  blas::GenOptions gen_options;
  blas::Result<blas::BlasSystem> built = blas::BlasSystem::FromEvents(
      [&](blas::SaxHandler* h) { blas::GenerateAuction(gen_options, h); });
  if (!built.ok()) {
    std::fprintf(stderr, "index error: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  blas::BlasSystem sys = std::move(built).value();
  blas::BlasSystem::DocStats doc = sys.doc_stats();
  std::printf("indexed %zu nodes, %zu tags, %zu pages\n\n", doc.nodes,
              doc.tags, doc.pages);

  // 2. Start the service: 4 workers, bounded queue, 64-entry plan cache.
  blas::ServiceOptions options;
  options.worker_threads = 4;
  options.queue_capacity = 256;
  options.plan_cache_capacity = 64;
  blas::QueryService service(&sys, options);

  // 3. Each client thread submits the query mix every round and waits on
  //    its futures. Repeat queries hit the plan cache; Engine::kAuto lets
  //    the optimizer pick relational vs. twig per plan.
  // Wildcard probes need the Unfold translator (schema expansion); the
  // plain queries keep the Push-up default.
  std::vector<blas::QueryRequest> mix;
  for (const blas::BenchQuery& q : blas::Figure10Queries('A')) {
    blas::QueryRequest request;
    request.xpath = q.xpath;
    mix.push_back(std::move(request));
  }
  for (const char* probe :
       {"//item//*/shipping", "//closed_auction//*/price"}) {
    blas::QueryRequest request;
    request.xpath = probe;  // structural pattern probe (plan-cache heaven)
    request.options.translator = blas::Translator::kUnfold;
    mix.push_back(std::move(request));
  }

  blas::Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&service, &mix, rounds, c] {
      size_t matches = 0;
      for (int round = 0; round < rounds; ++round) {
        std::vector<std::future<
            blas::Result<blas::BlasCollection::CollectionResult>>>
            futures;
        for (const blas::QueryRequest& request : mix) {
          futures.push_back(service.Submit(request));
        }
        for (auto& future : futures) {
          auto result = future.get();
          if (result.ok()) matches += result->total_matches;
        }
      }
      std::printf("client %d done (%zu matches total)\n", c, matches);
    });
  }
  for (std::thread& t : clients) t.join();
  double seconds = wall.ElapsedSeconds();

  // 4. Service-wide roll-up.
  blas::ServiceStats stats = service.stats();
  uint64_t lookups = stats.plan_cache_hits + stats.plan_cache_misses;
  std::printf(
      "\n%llu queries in %.2fs (%.0f q/s) on %zu workers\n"
      "plan cache: %llu hits / %llu misses (%.1f%% hit rate)\n"
      "storage: %llu elements visited, %llu page reads, %llu simulated "
      "disk\n",
      static_cast<unsigned long long>(stats.completed), seconds,
      static_cast<double>(stats.completed) / seconds,
      service.worker_threads(),
      static_cast<unsigned long long>(stats.plan_cache_hits),
      static_cast<unsigned long long>(stats.plan_cache_misses),
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(stats.plan_cache_hits) /
                         static_cast<double>(lookups),
      static_cast<unsigned long long>(stats.exec.elements),
      static_cast<unsigned long long>(stats.exec.page_fetches),
      static_cast<unsigned long long>(stats.exec.page_misses));
  return 0;
}
