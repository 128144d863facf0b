// Admin-surface scrape latency: GET /metrics, /varz and /healthz over
// loopback against a live service, single-client round-trip time plus an
// 8-scraper run during ingest churn (the Prometheus-fleet shape).
//
// Same harness and JSON shape as the other benches:
//   ./build/bench_admin_scrape --benchmark_format=json
//
// Counters: bytes (response body size), scrapes_per_s and p50/p99
// microseconds for the concurrent run. The concurrent benchmark asserts
// its p99 stays under the serving budget (5 ms; relaxed under
// sanitizers) and fails the binary when it does not.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "ingest/live_collection.h"
#include "server/admin_handlers.h"
#include "server/admin_server.h"
#include "service/query_service.h"
#include "xml/xml_writer.h"

namespace blas {
namespace bench {
namespace {

// ------------------------------------------------ minimal scrape client ---

int DialAdmin(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One keep-alive GET; returns the response body size, or -1 on any
/// transport/status failure.
long ScrapeOnce(int fd, const char* target) {
  char request[128];
  const int request_len = std::snprintf(
      request, sizeof(request), "GET %s HTTP/1.1\r\nHost: b\r\n\r\n", target);
  size_t off = 0;
  while (off < static_cast<size_t>(request_len)) {
    const ssize_t n = ::send(fd, request + off,
                             static_cast<size_t>(request_len) - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return -1;
    off += static_cast<size_t>(n);
  }

  std::string buf;
  size_t head_end;
  char chunk[8192];
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return -1;
    buf.append(chunk, static_cast<size_t>(n));
  }
  if (buf.rfind("HTTP/1.1 200", 0) != 0) return -1;
  const size_t cl = buf.find("Content-Length: ");
  if (cl == std::string::npos || cl > head_end) return -1;
  const size_t want =
      static_cast<size_t>(std::atoll(buf.c_str() + cl + 16));
  size_t have = buf.size() - head_end - 4;
  while (have < want) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return -1;
    have += static_cast<size_t>(n);
  }
  return static_cast<long>(want);
}

// --------------------------------------------------------------- stack ---

std::string AuctionShard(uint64_t seed) {
  XmlTextSink sink;
  GenOptions gen;
  gen.seed = seed;
  GenerateAuction(gen, &sink);
  return sink.TakeText();
}

/// Live collection + service + admin server, built once for the whole
/// binary (benchmarks run sequentially) and torn down in main.
struct AdminBenchStack {
  std::string dir;
  std::unique_ptr<LiveCollection> live;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<server::AdminServer> admin;
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter;

  AdminBenchStack() {
    dir = "/tmp/blas_bench_admin_" + std::to_string(::getpid());
    std::string cleanup = "rm -rf '" + dir + "'";
    (void)std::system(cleanup.c_str());
    ::mkdir(dir.c_str(), 0755);

    LiveOptions live_options;
    live_options.storage.memory_budget = size_t{16} << 20;
    auto opened = LiveCollection::Open(dir, live_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    live = std::move(*opened);
    ServiceOptions service_options;
    service_options.worker_threads = 4;
    service = std::make_unique<QueryService>(live.get(), service_options);
    for (int i = 0; i < 4; ++i) {
      Status s = service
                     ->SubmitAddDocument("auction-" + std::to_string(i),
                                         AuctionShard(100 + i))
                     .get();
      if (!s.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
    // Exercise the query path so /metrics has real histograms to render.
    QueryRequest request;
    request.xpath = "//item/name";
    request.options.projection = Projection::kValue;
    for (int i = 0; i < 20; ++i) {
      (void)service->Submit(request).get();
    }

    admin = std::make_unique<server::AdminServer>();
    server::AdminEndpointsOptions endpoints;
    endpoints.snapshotter.interval_ms = 100;
    snapshotter =
        server::InstallAdminEndpoints(admin.get(), service.get(), endpoints);
    Status s = admin->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "admin start failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }

  void TearDown() {
    if (admin != nullptr) admin->Stop();
    snapshotter.reset();
    if (service != nullptr) service->Shutdown();
    service.reset();
    live.reset();
    std::string cleanup = "rm -rf '" + dir + "'";
    (void)std::system(cleanup.c_str());
  }
};

AdminBenchStack* g_stack = nullptr;
bool g_budget_failed = false;

// ---------------------------------------------------------- benchmarks ---

/// One keep-alive scrape per iteration: wall time is the full HTTP
/// round-trip including exposition rendering.
void RunScrape(benchmark::State& state, const char* target) {
  const int fd = DialAdmin(g_stack->admin->port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    return;
  }
  long bytes = 0;
  for (auto _ : state) {
    bytes = ScrapeOnce(fd, target);
    if (bytes < 0) {
      state.SkipWithError("scrape failed");
      ::close(fd);
      return;
    }
  }
  ::close(fd);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["scrapes_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_ScrapeHealthz(benchmark::State& state) {
  RunScrape(state, "/healthz");
}
void BM_ScrapeMetrics(benchmark::State& state) {
  RunScrape(state, "/metrics");
}
void BM_ScrapeVarz(benchmark::State& state) { RunScrape(state, "/varz"); }
void BM_ScrapeTimez(benchmark::State& state) { RunScrape(state, "/timez"); }

/// The acceptance shape: 8 concurrent scrapers (each its own keep-alive
/// connection, alternating /metrics and /varz) while a writer replaces
/// documents — epoch churn — and a reader keeps query traffic flowing.
/// Reports scrape p50/p99 and asserts the p99 budget.
void BM_ConcurrentScrapeChurn(benchmark::State& state) {
  const int kScrapers = 8;
  const int kPerScraper = 50;
  const int port = g_stack->admin->port();

  std::vector<double> all_micros;
  for (auto _ : state) {
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    // The churn threads are background load, not a saturation test:
    // paced like live traffic (blas_bench's live_churn workload owns the
    // saturated shape) so scrape latency measures the server, not the
    // scheduler.
    std::thread writer([&] {
      uint64_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        Status s = g_stack->service
                       ->SubmitReplaceDocument(
                           "auction-" + std::to_string(round % 4),
                           AuctionShard(900 + round))
                       .get();
        if (!s.ok()) failed.store(true, std::memory_order_relaxed);
        ++round;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    std::thread reader([&] {
      QueryRequest request;
      request.xpath = "//item/name";
      request.options.projection = Projection::kValue;
      while (!done.load(std::memory_order_acquire)) {
        if (!g_stack->service->Submit(request).get().ok()) {
          failed.store(true, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });

    std::vector<std::vector<double>> per_thread(kScrapers);
    std::vector<std::thread> scrapers;
    for (int t = 0; t < kScrapers; ++t) {
      scrapers.emplace_back([&, t] {
        const int fd = DialAdmin(port);
        if (fd < 0) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        per_thread[t].reserve(kPerScraper);
        for (int i = 0; i < kPerScraper; ++i) {
          const char* target = (i % 2 == 0) ? "/metrics" : "/varz";
          const auto t0 = std::chrono::steady_clock::now();
          if (ScrapeOnce(fd, target) < 0) {
            failed.store(true, std::memory_order_relaxed);
            break;
          }
          per_thread[t].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
        ::close(fd);
      });
    }
    for (std::thread& t : scrapers) t.join();
    done.store(true, std::memory_order_release);
    writer.join();
    reader.join();
    if (failed.load()) {
      state.SkipWithError("scrape or churn failure");
      return;
    }
    for (const auto& v : per_thread) {
      all_micros.insert(all_micros.end(), v.begin(), v.end());
    }
  }

  if (all_micros.empty()) return;
  std::sort(all_micros.begin(), all_micros.end());
  auto at = [&](double q) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(
                                              all_micros.size()));
    if (rank >= all_micros.size()) rank = all_micros.size() - 1;
    return all_micros[rank];
  };
  const double p50 = at(0.50);
  const double p99 = at(0.99);
  state.counters["scrapes"] = static_cast<double>(all_micros.size());
  state.counters["p50_us"] = p50;
  state.counters["p99_us"] = p99;

// Sanitizers multiply every syscall + allocation; keep the budget
// meaningful without flaking their builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  double budget_us = 50000.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  double budget_us = 50000.0;
#else
  double budget_us = 5000.0;
#endif
#else
  double budget_us = 5000.0;
#endif
  // 8 scrapers + churn + service workers need real parallelism; with
  // too few cores the p99 measures scheduler queueing, not the server.
  // Keep asserting — a 10x bound still catches event-loop stalls and
  // Nagle-shaped regressions — and say so instead of silently passing.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && cores < 4 && budget_us < 50000.0) {
    budget_us = 50000.0;
    std::fprintf(stderr,
                 "note: only %u hardware thread(s); relaxing scrape p99 "
                 "budget to %.0f us\n",
                 cores, budget_us);
  }
  if (p99 > budget_us) {
    std::fprintf(stderr,
                 "FAIL: admin scrape p99 %.0f us exceeds %.0f us budget "
                 "under %d concurrent scrapers during churn\n",
                 p99, budget_us, kScrapers);
    g_budget_failed = true;
  }
}

void Register() {
  benchmark::RegisterBenchmark("BM_ScrapeHealthz", BM_ScrapeHealthz)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_ScrapeMetrics", BM_ScrapeMetrics)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_ScrapeVarz", BM_ScrapeVarz)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_ScrapeTimez", BM_ScrapeTimez)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BM_ConcurrentScrapeChurn",
                               BM_ConcurrentScrapeChurn)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
}

}  // namespace
}  // namespace bench
}  // namespace blas

int main(int argc, char** argv) {
  std::printf("Admin scrape latency: HTTP round-trips against a live\n"
              "service over loopback. The concurrent run drives 8 scrapers\n"
              "during document-replacement churn and enforces the p99\n"
              "serving budget.\n\n");
  blas::bench::AdminBenchStack stack;
  blas::bench::g_stack = &stack;
  blas::bench::Register();
  benchmark::Initialize(&argc, argv);
  blas::bench::RunBenchmarksToJson("admin_scrape");
  stack.TearDown();
  blas::bench::g_stack = nullptr;
  if (blas::bench::g_budget_failed) return 1;
  return 0;
}
