// Admin-server demo: a live collection churns while the telemetry is
// served over HTTP on the loopback admin port.
//
// Starts a LiveCollection + QueryService, installs the standard admin
// endpoints (/healthz /varz /metrics /timez /tracez /slowz /buildz),
// then drives queries and document replacements for the requested
// duration so every scrape shows real, moving numbers. The bound port is
// printed first ("admin listening on 127.0.0.1:PORT") for scripts — CI's
// smoke step curls it.
//
// Usage: ./build/blas_admin [seconds] [dir]
//   BLAS_ADMIN_PORT   port to bind (unset or 0: ephemeral, see output)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "gen/generator.h"
#include "ingest/live_collection.h"
#include "server/admin_handlers.h"
#include "server/admin_server.h"
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
  const double seconds = argc >= 2 ? std::atof(argv[1]) : 10.0;
  const std::string dir = argc >= 3 ? argv[2] : "/tmp/blas_admin_demo";
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());

  blas::LiveOptions live_options;
  live_options.storage.memory_budget = size_t{16} << 20;
  auto opened = blas::LiveCollection::Open(dir, live_options);
  if (!opened.ok()) return Fail(opened.status());
  blas::LiveCollection& live = **opened;

  blas::ServiceOptions service_options;
  service_options.worker_threads = 4;
  service_options.trace_sample_every = 16;   // /tracez has material
  service_options.slow_query_millis = 5.0;   // /slowz catches stragglers
  blas::QueryService service(&live, service_options);

  const int shards = 4;
  for (int i = 0; i < shards; ++i) {
    blas::Status s = service
                         .SubmitAddDocument("auction-" + std::to_string(i),
                                            AuctionShard(100 + i))
                         .get();
    if (!s.ok()) return Fail(s);
  }

  blas::server::AdminServer::Options server_options;
  server_options.port = blas::server::AdminPortFromEnv(0);
  blas::server::AdminServer server(server_options);
  // Snapshot fast so even a short demo run has windowed data.
  blas::server::AdminEndpointsOptions endpoints;
  endpoints.snapshotter.interval_ms = 250;
  auto snapshotter =
      blas::server::InstallAdminEndpoints(&server, &service, endpoints);
  if (blas::Status s = server.Start(); !s.ok()) return Fail(s);
  std::printf("admin listening on 127.0.0.1:%d\n", server.port());
  std::printf("try: curl -s http://127.0.0.1:%d/varz | head -c 400\n\n",
              server.port());
  std::fflush(stdout);

  // Churn: queries + replacements until the clock runs out, so /varz
  // rates and /timez percentiles describe live traffic.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    blas::QueryRequest request;
    request.xpath = "//item/name";
    request.options.projection = blas::Projection::kValue;
    while (!done.load(std::memory_order_acquire)) {
      (void)service.Submit(request).get();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread writer([&] {
    uint64_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int doc = static_cast<int>(round % shards);
      (void)service
          .SubmitReplaceDocument("auction-" + std::to_string(doc),
                                 AuctionShard(900 + round))
          .get();
      ++round;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  done.store(true, std::memory_order_release);
  reader.join();
  writer.join();
  service.DrainIngest();

  blas::obs::MetricsSnapshot admin = server.metrics().Snapshot();
  std::printf("served %llu admin request(s) on %llu connection(s), %llu "
              "bytes written\n",
              static_cast<unsigned long long>(
                  admin.counters["blas_admin_requests_ok"]),
              static_cast<unsigned long long>(
                  admin.counters["blas_admin_accepted"]),
              static_cast<unsigned long long>(
                  admin.counters["blas_admin_bytes_written"]));
  server.Stop();
  snapshotter->Stop();
  service.Shutdown();
  return 0;
}
