// Tests of the admin HTTP surface (src/server): request framing, every
// standard endpoint's shape over a real loopback socket, the protection
// envelope (connection limit, read deadline, oversized/malformed heads),
// graceful drain on Stop, and concurrent scrapers against a service
// under live ingest churn (the TSan target).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "ingest/live_collection.h"
#include "obs/snapshot.h"
#include "server/admin_handlers.h"
#include "server/admin_server.h"
#include "service/query_service.h"
#include "xml/xml_writer.h"

namespace blas {
namespace server {
namespace {

// ------------------------------------------------- loopback http client ---

/// One parsed response from the blocking test client below.
struct HttpReply {
  bool ok = false;  // transport-level success (status parsed, body read)
  int status = 0;
  std::map<std::string, std::string> headers;  // names lower-cased
  std::string body;
};

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

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one response (status line + headers + Content-Length body).
HttpReply ReadReply(int fd) {
  HttpReply reply;
  std::string buf;
  size_t head_end = std::string::npos;
  char chunk[4096];
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return reply;
    buf.append(chunk, static_cast<size_t>(n));
  }

  std::istringstream head(buf.substr(0, head_end));
  std::string line;
  if (!std::getline(head, line)) return reply;
  if (line.rfind("HTTP/1.1 ", 0) != 0) return reply;
  reply.status = std::atoi(line.c_str() + 9);
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t value_at = colon + 1;
    while (value_at < line.size() && line[value_at] == ' ') ++value_at;
    reply.headers[name] = line.substr(value_at);
  }

  size_t want = 0;
  auto it = reply.headers.find("content-length");
  if (it != reply.headers.end()) {
    want = static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  reply.body = buf.substr(head_end + 4);
  while (reply.body.size() < want) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return reply;
    reply.body.append(chunk, static_cast<size_t>(n));
  }
  reply.body.resize(want);
  reply.ok = true;
  return reply;
}

HttpReply Get(int port, const std::string& target,
              const std::string& method = "GET") {
  const int fd = DialAdmin(port);
  HttpReply reply;
  if (fd < 0) return reply;
  if (SendAll(fd, method + " " + target +
                      " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")) {
    reply = ReadReply(fd);
  }
  ::close(fd);
  return reply;
}

// ------------------------------------------------------------- fixtures ---

std::string UniqueDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::string dir = "/tmp/blas_admin_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

std::string AuctionShard(uint64_t seed) {
  XmlTextSink sink;
  GenOptions gen;
  gen.seed = seed;
  GenerateAuction(gen, &sink);
  return sink.TakeText();
}

/// One of the server's own `blas_admin_*` counters.
uint64_t AdminCounter(const AdminServer& server, const std::string& name) {
  return server.metrics().Snapshot().counters[name];
}

/// A live collection + service + admin server, torn down in order.
class AdminStack {
 public:
  explicit AdminStack(const std::string& tag, int docs = 2,
                      ServiceOptions service_options = {})
      : dir_(UniqueDir(tag)) {
    LiveOptions live_options;
    live_options.storage.memory_budget = size_t{16} << 20;
    auto opened = LiveCollection::Open(dir_, live_options);
    EXPECT_TRUE(opened.ok()) << opened.status();
    live_ = std::move(*opened);
    service_ = std::make_unique<QueryService>(live_.get(), service_options);
    for (int i = 0; i < docs; ++i) {
      Status s = service_
                     ->SubmitAddDocument("auction-" + std::to_string(i),
                                         AuctionShard(100 + i))
                     .get();
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }

  ~AdminStack() {
    if (server_ != nullptr) server_->Stop();
    snapshotter_.reset();
    service_->Shutdown();
    service_.reset();
    live_.reset();
    RemoveTree(dir_);
  }

  /// Installs endpoints (snapshotter under manual control unless told
  /// otherwise) and starts the server on an ephemeral port.
  void Serve(AdminServer::Options server_options = {},
             bool start_snapshotter = false) {
    server_options.port = 0;
    server_ = std::make_unique<AdminServer>(std::move(server_options));
    AdminEndpointsOptions endpoints;
    endpoints.start_snapshotter = start_snapshotter;
    if (start_snapshotter) endpoints.snapshotter.interval_ms = 10;
    snapshotter_ =
        InstallAdminEndpoints(server_.get(), service_.get(), endpoints);
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  void RunQueries(int n) {
    QueryRequest request;
    request.xpath = "//item/name";
    request.options.projection = Projection::kValue;
    for (int i = 0; i < n; ++i) {
      auto result = service_->Submit(request).get();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  QueryService& service() { return *service_; }
  LiveCollection& live() { return *live_; }
  AdminServer& server() { return *server_; }
  obs::MetricsSnapshotter& snapshotter() { return *snapshotter_; }
  int port() const { return server_->port(); }

 private:
  std::string dir_;
  std::unique_ptr<LiveCollection> live_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<AdminServer> server_;
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter_;
};

}  // namespace
}  // namespace server
}  // namespace blas

// Tests live outside the anonymous namespace per gtest convention.
namespace blas {
namespace server {
namespace {

// --------------------------------------------------------- http parsing ---

TEST(HttpParse, RequestLineAndQuery) {
  auto parsed = ParseHttpRequest(
      "GET /varz?window=10&format=text HTTP/1.1\r\nHost: x\r\n"
      "X-Weird:  padded  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->path, "/varz");
  EXPECT_EQ(parsed->query, "window=10&format=text");
  EXPECT_EQ(parsed->QueryParam("window"), "10");
  EXPECT_EQ(parsed->QueryParam("format"), "text");
  EXPECT_EQ(parsed->QueryParam("missing"), "");
  EXPECT_EQ(parsed->Header("HOST"), "x");
  EXPECT_EQ(parsed->Header("x-weird"), "padded");
  EXPECT_TRUE(parsed->KeepAlive());
}

TEST(HttpParse, RejectsMalformedHeads) {
  const char* bad[] = {
      "NOTHTTP",
      "GET /",                         // no version
      "GET noslash HTTP/1.1",          // target must be absolute path
      "GET / FTP/1.0",                 // not an HTTP version
      "GET / HTTP/1.1\r\nnocolon",     // malformed header
      "GET / HTTP/1.1\r\n: novalue",   // empty header name
      "GET / HTTP/1.1\r\nContent-Length: 3",     // body announced
      "GET / HTTP/1.1\r\nTransfer-Encoding: chunked",
  };
  for (const char* head : bad) {
    EXPECT_FALSE(ParseHttpRequest(head).ok()) << head;
  }
}

TEST(HttpParse, KeepAliveSemantics) {
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.1")->KeepAlive());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close")->KeepAlive());
  EXPECT_FALSE(ParseHttpRequest("GET / HTTP/1.0")->KeepAlive());
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.0\r\nConnection: Keep-Alive")
                  ->KeepAlive());
}

TEST(HttpSerialize, HeadOmitsBodyButKeepsLength) {
  HttpResponse response;
  response.body = "abcde";
  const std::string full =
      SerializeHttpResponse(response, /*head_only=*/false, true);
  const std::string head =
      SerializeHttpResponse(response, /*head_only=*/true, true);
  EXPECT_NE(full.find("Content-Length: 5"), std::string::npos);
  EXPECT_NE(full.find("abcde"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(head.find("abcde"), std::string::npos);
}

// ------------------------------------------------------------ endpoints ---

TEST(AdminEndpoints, EveryStandardEndpointServes) {
  AdminStack stack("endpoints");
  stack.Serve();
  stack.snapshotter().CaptureNow();
  stack.RunQueries(5);
  stack.snapshotter().CaptureNow();
  const int port = stack.port();

  HttpReply health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  HttpReply varz = Get(port, "/varz");
  ASSERT_TRUE(varz.ok);
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.headers["content-type"], "application/json; charset=utf-8");
  EXPECT_EQ(varz.body.rfind("{\"metrics\":{\"counters\":{", 0), 0u)
      << varz.body;
  EXPECT_NE(varz.body.find("\"windowed\":{"), std::string::npos);
  EXPECT_NE(varz.body.find("\"admin\":{\"counters\":{"), std::string::npos);
  EXPECT_NE(varz.body.find("\"blas_admin_requests_ok\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"blas_service_completed\""), std::string::npos);
  EXPECT_EQ(varz.body.back(), '}');

  HttpReply metrics = Get(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.headers["content-type"],
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("# TYPE blas_service_completed counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE blas_query_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE blas_queue_wait_ns histogram"),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("blas_collection_query_latency_ns"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("blas_admin_requests_ok"), std::string::npos);

  HttpReply timez = Get(port, "/timez");
  ASSERT_TRUE(timez.ok);
  EXPECT_EQ(timez.status, 200);
  EXPECT_EQ(timez.body.front(), '{');
  EXPECT_NE(timez.body.find("\"10s\":"), std::string::npos);
  EXPECT_NE(timez.body.find("\"60s\":"), std::string::npos);
  EXPECT_NE(timez.body.find("\"300s\":"), std::string::npos);

  HttpReply tracez = Get(port, "/tracez");
  ASSERT_TRUE(tracez.ok);
  EXPECT_EQ(tracez.status, 200);
  EXPECT_EQ(tracez.body.rfind("{\"traces\":[", 0), 0u);
  HttpReply tracez_text = Get(port, "/tracez?format=text");
  ASSERT_TRUE(tracez_text.ok);
  EXPECT_EQ(tracez_text.status, 200);
  EXPECT_NE(tracez_text.body.find("recent trace"), std::string::npos);

  HttpReply slowz = Get(port, "/slowz");
  ASSERT_TRUE(slowz.ok);
  EXPECT_EQ(slowz.status, 200);
  EXPECT_NE(slowz.body.find("\"entries\":["), std::string::npos);

  HttpReply buildz = Get(port, "/buildz");
  ASSERT_TRUE(buildz.ok);
  EXPECT_EQ(buildz.status, 200);
  EXPECT_NE(buildz.body.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(buildz.body.find("\"uptime_seconds\":"), std::string::npos);

  HttpReply index = Get(port, "/");
  ASSERT_TRUE(index.ok);
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/healthz"), std::string::npos);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  HttpReply missing = Get(port, "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  // HEAD: framing headers describe the body, none arrives. ReadReply
  // hits EOF before Content-Length bytes, so only status/headers count.
  HttpReply head = Get(port, "/healthz", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_EQ(head.headers["content-length"], "3");
  EXPECT_TRUE(head.body.empty());
}

/// Every cumulative `_bucket{le=}` line of `name` in `exposition` must
/// equal the registry's own bucket counts. Returns how many non-empty
/// buckets were checked.
size_t ExpectBucketsMatch(const std::string& exposition,
                          const std::string& name, obs::Histogram* h) {
  EXPECT_NE(h, nullptr) << name;
  if (h == nullptr) return 0;
  const auto dense = h->Snapshot();
  uint64_t cumulative = 0;
  size_t checked = 0;
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (dense[i] == 0) continue;
    cumulative += dense[i];
    char line[160];
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"%llu\"} %llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(
                      obs::Histogram::BucketHi(i) - 1),
                  static_cast<unsigned long long>(cumulative));
    EXPECT_NE(exposition.find(line), std::string::npos) << line;
    ++checked;
  }
  char inf[160];
  std::snprintf(inf, sizeof(inf), "%s_bucket{le=\"+Inf\"} %llu\n",
                name.c_str(), static_cast<unsigned long long>(cumulative));
  EXPECT_NE(exposition.find(inf), std::string::npos) << inf;
  char count[160];
  std::snprintf(count, sizeof(count), "%s_count %llu\n", name.c_str(),
                static_cast<unsigned long long>(h->count()));
  EXPECT_NE(exposition.find(count), std::string::npos) << count;
  EXPECT_EQ(cumulative, h->count()) << name;
  return checked;
}

/// Acceptance: the Prometheus exposition's query-latency bucket counts
/// equal the in-process registry's, bucket for bucket.
TEST(AdminEndpoints, PrometheusBucketsMatchRegistry) {
  AdminStack stack("prom");
  stack.Serve();
  stack.RunQueries(25);

  HttpReply metrics = Get(stack.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  ASSERT_EQ(metrics.status, 200);

  // The service is idle after RunQueries, so the registry cannot move
  // between the scrape above and these snapshots. Every query records
  // into the one latency histogram, the queue-wait histogram and the
  // parse stage.
  obs::MetricsRegistry& registry = stack.service().metrics();
  for (const char* name : {"blas_query_latency_ns", "blas_queue_wait_ns",
                           "blas_stage_parse_ns"}) {
    EXPECT_GT(ExpectBucketsMatch(metrics.body, name,
                                 registry.GetHistogram(name)),
              0u)
        << name;
  }
  EXPECT_NE(metrics.body.find("blas_query_latency_ns_count 25\n"),
            std::string::npos);
}

/// Acceptance: /varz's 10s window reports a queries/s within +-20% of the
/// load actually driven between two snapshots.
TEST(AdminEndpoints, WindowedQpsTracksDrivenLoad) {
  AdminStack stack("windowed");
  stack.Serve();

  stack.snapshotter().CaptureNow();
  const auto t0 = std::chrono::steady_clock::now();
  const int kQueries = 60;
  stack.RunQueries(kQueries);
  // Pad the window so scheduling noise is small relative to the span.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double driven_span =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stack.snapshotter().CaptureNow();
  const double driven_qps = kQueries / driven_span;

  HttpReply varz = Get(stack.port(), "/varz");
  ASSERT_TRUE(varz.ok);
  const size_t windowed = varz.body.find("\"windowed\":{");
  ASSERT_NE(windowed, std::string::npos);
  const std::string key = "\"blas_service_completed\":";
  const size_t at = varz.body.find(key, windowed);
  ASSERT_NE(at, std::string::npos) << varz.body.substr(windowed, 400);
  const double reported = std::atof(varz.body.c_str() + at + key.size());
  EXPECT_GT(reported, driven_qps * 0.8)
      << "driven " << driven_qps << " qps, /varz " << reported;
  EXPECT_LT(reported, driven_qps * 1.2)
      << "driven " << driven_qps << " qps, /varz " << reported;
}

// ------------------------------------------------- protection envelope ---

TEST(AdminServerLimits, MalformedAndOversizedGet400WithoutCrash) {
  AdminStack stack("badreq", /*docs=*/1);
  stack.Serve();
  const int port = stack.port();

  {
    const int fd = DialAdmin(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "NOTHTTP\r\n\r\n"));
    HttpReply reply = ReadReply(fd);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 400);
    ::close(fd);
  }
  {
    const int fd = DialAdmin(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        SendAll(fd, "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"));
    HttpReply reply = ReadReply(fd);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 400);
    ::close(fd);
  }
  {
    // A head that never terminates and exceeds max_request_bytes.
    const int fd = DialAdmin(port);
    ASSERT_GE(fd, 0);
    std::string huge = "GET / HTTP/1.1\r\n";
    huge += "X-Filler: " + std::string(20000, 'x');
    ASSERT_TRUE(SendAll(fd, huge));
    HttpReply reply = ReadReply(fd);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 400);
    ::close(fd);
  }
  {
    // Unsupported method: connection stays usable afterwards.
    const int fd = DialAdmin(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "DELETE /healthz HTTP/1.1\r\n\r\n"));
    HttpReply reply = ReadReply(fd);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 405);
    ASSERT_TRUE(SendAll(fd, "GET /healthz HTTP/1.1\r\n\r\n"));
    reply = ReadReply(fd);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.status, 200);
    ::close(fd);
  }

  // The server survived all of it.
  HttpReply health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_GE(AdminCounter(stack.server(), "blas_admin_requests_bad"), 3u);
}

TEST(AdminServerLimits, ConnectionLimitAnswers503) {
  AdminStack stack("connlimit", /*docs=*/1);
  AdminServer::Options options;
  options.max_connections = 2;
  stack.Serve(options);
  const int port = stack.port();

  // Fill both slots with live keep-alive connections (round-trips prove
  // the server registered them).
  const int a = DialAdmin(port);
  const int b = DialAdmin(port);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(SendAll(a, "GET /healthz HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(ReadReply(a).ok);
  ASSERT_TRUE(SendAll(b, "GET /healthz HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(ReadReply(b).ok);

  const int c = DialAdmin(port);
  ASSERT_GE(c, 0);
  HttpReply reply = ReadReply(c);  // 503 arrives unprompted
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 503);
  ::close(c);

  ::close(a);
  ::close(b);
  EXPECT_GE(
      AdminCounter(stack.server(), "blas_admin_rejected_over_capacity"), 1u);
}

TEST(AdminServerLimits, ReadDeadlineAnswers408) {
  AdminStack stack("deadline", /*docs=*/1);
  AdminServer::Options options;
  options.read_deadline_ms = 120;
  stack.Serve(options);

  const int fd = DialAdmin(stack.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /healthz HT"));  // stall mid-request-line
  HttpReply reply = ReadReply(fd);  // blocks until the sweep answers
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.status, 408);
  ::close(fd);

  // A connection that never sends anything is closed silently.
  const int idle = DialAdmin(stack.port());
  ASSERT_GE(idle, 0);
  char byte;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);  // clean EOF, no response
  ::close(idle);
  EXPECT_GE(AdminCounter(stack.server(), "blas_admin_deadline_closes"), 2u);
}

TEST(AdminServerLimits, StopDrainsInFlightResponse) {
  AdminStack stack("drain", /*docs=*/1);
  stack.Serve();
  // A response far larger than the socket buffers, so Stop() lands while
  // bytes are still in flight.
  const std::string big(8 << 20, 'z');
  stack.server().RegisterHandler("/big", [&big](const HttpRequest&) {
    HttpResponse response;
    response.body = big;
    return response;
  });

  const int fd = DialAdmin(stack.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      SendAll(fd, "GET /big HTTP/1.1\r\nConnection: close\r\n\r\n"));
  // Let the server accept + start writing, then stop it mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] { stack.server().Stop(); });
  HttpReply reply = ReadReply(fd);
  stopper.join();
  ::close(fd);
  ASSERT_TRUE(reply.ok) << "drain did not deliver the full response";
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body.size(), big.size());

  // After Stop the port no longer accepts.
  EXPECT_LT(DialAdmin(stack.port()), 0);
}

TEST(AdminServer, EphemeralPortsAreDistinctAndReported) {
  AdminStack one("port_a", /*docs=*/1);
  AdminStack two("port_b", /*docs=*/1);
  one.Serve();
  two.Serve();
  EXPECT_GT(one.port(), 0);
  EXPECT_GT(two.port(), 0);
  EXPECT_NE(one.port(), two.port());
  EXPECT_EQ(Get(one.port(), "/healthz").status, 200);
  EXPECT_EQ(Get(two.port(), "/healthz").status, 200);
}

TEST(AdminServer, PortFromEnv) {
  ::unsetenv("BLAS_ADMIN_PORT");
  EXPECT_EQ(AdminPortFromEnv(8080), 8080);
  ::setenv("BLAS_ADMIN_PORT", "0", 1);
  EXPECT_EQ(AdminPortFromEnv(8080), 0);  // 0 = ephemeral, report via port()
  ::setenv("BLAS_ADMIN_PORT", "9123", 1);
  EXPECT_EQ(AdminPortFromEnv(8080), 9123);
  ::setenv("BLAS_ADMIN_PORT", "notaport", 1);
  EXPECT_EQ(AdminPortFromEnv(8080), 8080);
  ::setenv("BLAS_ADMIN_PORT", "70000", 1);
  EXPECT_EQ(AdminPortFromEnv(8080), 8080);
  ::unsetenv("BLAS_ADMIN_PORT");
}

TEST(AdminServer, StartTwiceFailsAndStopIsIdempotent) {
  AdminStack stack("twice", /*docs=*/1);
  stack.Serve();
  EXPECT_FALSE(stack.server().Start().ok());
  stack.server().Stop();
  stack.server().Stop();  // no-op
}

// ---------------------------------------------- concurrency under churn ---

/// The TSan headline: 8 scrapers hammer every endpoint over keep-alive
/// connections while documents are replaced (epoch churn) and queries
/// run, with the snapshotter capturing throughout.
TEST(AdminConcurrency, ScrapersDuringIngestChurn) {
  ServiceOptions service_options;
  service_options.trace_sample_every = 8;
  AdminStack stack("churn", /*docs=*/2, service_options);
  stack.Serve({}, /*start_snapshotter=*/true);
  const int port = stack.port();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0}, failures{0};

  std::thread writer([&] {
    uint64_t round = 0;
    while (!done.load(std::memory_order_acquire)) {
      Status s = stack.service()
                     .SubmitReplaceDocument("auction-" +
                                                std::to_string(round % 2),
                                            AuctionShard(500 + round))
                     .get();
      if (!s.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      ++round;
    }
  });
  std::thread reader([&] {
    QueryRequest request;
    request.xpath = "//item/name";
    request.options.projection = Projection::kValue;
    while (!done.load(std::memory_order_acquire)) {
      auto result = stack.service().Submit(request).get();
      if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const char* kTargets[] = {"/metrics", "/varz", "/timez", "/tracez",
                            "/slowz"};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 8; ++t) {
    scrapers.emplace_back([&, t] {
      const int fd = DialAdmin(port);
      if (fd < 0) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (int i = 0; i < 25; ++i) {
        const char* target = kTargets[(t + i) % 5];
        if (!SendAll(fd, std::string("GET ") + target +
                             " HTTP/1.1\r\nHost: t\r\n\r\n")) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        HttpReply reply = ReadReply(fd);
        if (!reply.ok || reply.status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      ::close(fd);
    });
  }

  for (std::thread& t : scrapers) t.join();
  done.store(true, std::memory_order_release);
  writer.join();
  reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(scrapes.load(), 8u * 25u);
  EXPECT_GT(stack.live().stats().epochs_published, 2u);
}

}  // namespace
}  // namespace server
}  // namespace blas
