// Live ingestion demo: a query service keeps streaming answers while
// auction shards are added, replaced and removed underneath it.
//
// A LiveCollection serves every query from the epoch it pinned at open
// (copy-on-write publishes; readers never block), while the ingestion
// pipeline indexes shards to paged BLASIDX2 snapshots and publishes them
// through the durable manifest log. At the end the collection is
// reopened from disk to show crash-style recovery of the last epoch.
//
// Usage: ./build/live_ingest [shards] [dir]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.h"
#include "ingest/live_collection.h"
#include "service/query_service.h"
#include "xml/xml_writer.h"

namespace {

int Fail(const blas::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string AuctionShard(uint64_t seed) {
  blas::XmlTextSink sink;
  blas::GenOptions gen;
  gen.seed = seed;
  blas::GenerateAuction(gen, &sink);
  return sink.TakeText();
}

}  // namespace

int main(int argc, char** argv) {
  const int shards = argc >= 2 ? std::atoi(argv[1]) : 6;
  const std::string dir = argc >= 3 ? argv[2] : "/tmp/blas_live_ingest";
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());

  blas::LiveOptions live_options;
  live_options.storage.memory_budget = size_t{16} << 20;
  live_options.checkpoint_every = 8;
  auto opened = blas::LiveCollection::Open(dir, live_options);
  if (!opened.ok()) return Fail(opened.status());
  blas::LiveCollection& live = **opened;
  uint64_t final_epoch = 0;
  size_t final_size = 0;

  {  // the service borrows the collection; scope it to end first
  blas::QueryService service(&live, blas::ServiceOptions{.worker_threads = 4});
  std::printf("live collection at %s (16 MB shared budget)\n\n", dir.c_str());

  // Reader: hammers the service with queries the whole time,
  // recording how often an answer drained across a publish.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0}, matches{0};
  std::thread reader([&] {
    blas::QueryRequest request;
    request.xpath = "//item/name";
    request.options.projection = blas::Projection::kValue;
    while (!done.load(std::memory_order_acquire)) {
      auto result = service.Submit(request).get();
      if (result.ok()) {
        reads.fetch_add(1, std::memory_order_relaxed);
        matches.fetch_add(result->total_matches, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Writer: ingest the shards through the admin futures, then replace
  // half of them and remove one — all while the reader streams.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<blas::Status>> futures;
  for (int i = 0; i < shards; ++i) {
    futures.push_back(service.SubmitAddDocument(
        "auction-" + std::to_string(i), AuctionShard(100 + i)));
  }
  for (auto& f : futures) {
    blas::Status s = f.get();
    if (!s.ok()) return Fail(s);
  }
  std::printf("ingested %d auction shards (epoch %llu)\n", shards,
              static_cast<unsigned long long>(live.epoch()));

  for (int i = 0; i < shards; i += 2) {
    blas::Status s = service
                         .SubmitReplaceDocument("auction-" + std::to_string(i),
                                                AuctionShard(900 + i))
                         .get();
    if (!s.ok()) return Fail(s);
  }
  if (shards > 1) {
    blas::Status s = service.SubmitRemoveDocument("auction-1").get();
    if (!s.ok()) return Fail(s);
  }
  service.DrainIngest();
  done.store(true, std::memory_order_release);
  reader.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  blas::ServiceStats stats = service.stats();
  blas::LiveCollection::Stats ingest = live.stats();
  std::printf("\nafter %.2f s of churn:\n", secs);
  std::printf("  epochs published        %llu\n",
              static_cast<unsigned long long>(ingest.epochs_published));
  std::printf("  docs ingested/removed   %llu / %llu\n",
              static_cast<unsigned long long>(ingest.docs_ingested),
              static_cast<unsigned long long>(ingest.docs_removed));
  std::printf("  manifest bytes          %llu (%llu checkpoints)\n",
              static_cast<unsigned long long>(ingest.manifest_bytes),
              static_cast<unsigned long long>(ingest.checkpoints));
  std::printf("  queries completed       %llu (%llu matches)\n",
              static_cast<unsigned long long>(reads.load()),
              static_cast<unsigned long long>(matches.load()));
  std::printf("  ...during churn         %llu\n",
              static_cast<unsigned long long>(
                  stats.queries_served_during_churn));
  std::printf("  obsolete files reclaimed %llu\n",
              static_cast<unsigned long long>(ingest.files_reclaimed));
  std::printf("  budget peak             %zu / %zu bytes\n",
              live.budget()->peak_used(), live.budget()->limit());

  final_epoch = live.epoch();
  final_size = live.size();
  }  // service shuts down here

  // Recovery: reopen from the manifest alone, exactly the last epoch.
  opened->reset();
  auto recovered = blas::LiveCollection::Open(dir, live_options);
  if (!recovered.ok()) return Fail(recovered.status());
  std::printf("\nreopened from MANIFEST: epoch %llu (expected %llu), "
              "%zu documents (expected %zu)\n",
              static_cast<unsigned long long>((*recovered)->epoch()),
              static_cast<unsigned long long>(final_epoch),
              (*recovered)->size(), final_size);
  auto check = (*recovered)->Execute("//item/name");
  if (!check.ok()) return Fail(check.status());
  std::printf("post-recovery query: %llu matches\n",
              static_cast<unsigned long long>(check->total_matches));
  return 0;
}
