#ifndef BLAS_SERVER_ADMIN_SERVER_H_
#define BLAS_SERVER_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "server/http.h"

namespace blas {
namespace server {

/// \brief Minimal epoll-based HTTP/1.1 server for the admin/telemetry
/// surface: a path -> handler registry behind a nonblocking event loop.
///
/// Design points (deliberately the reusable skeleton for the future
/// query-serving front door):
///   * one acceptor thread owns the event loop; connections live in a
///     loop-local table, so the hot path takes no lock at all — the
///     server's mutex guards only the handler registry and lifecycle
///     state, and nothing blocking (accept/read/write are nonblocking,
///     clock reads happen on the loop thread outside the lock);
///   * bounded connections: past `max_connections`, new sockets get an
///     immediate 503 and close;
///   * per-request read deadline: a connection that has not delivered a
///     complete request head within `read_deadline_ms` gets 408 (or a
///     plain close when it sent nothing at all) — slowloris protection;
///   * keep-alive: HTTP/1.1 connections serve any number of sequential
///     requests, each re-arming the deadline;
///   * graceful Stop(): the listener closes first, in-flight response
///     bytes drain for up to `drain_timeout_ms`, then the loop joins.
///
/// GET and HEAD only; request bodies are rejected with 400. Handlers run
/// on the loop thread and must not block (see HttpHandler).
class AdminServer {
 public:
  struct Options {
    /// Loopback by default: the admin surface is unauthenticated.
    std::string bind_address = "127.0.0.1";
    /// 0 binds an ephemeral port; read the real one from port().
    int port = 0;
    size_t max_connections = 64;
    int read_deadline_ms = 5000;
    /// How long Stop() lets in-flight response bytes flush.
    int drain_timeout_ms = 2000;
    /// Request heads larger than this are answered 400 and closed.
    size_t max_request_bytes = 8192;
  };

  AdminServer() : AdminServer(Options()) {}
  explicit AdminServer(Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers (or replaces) the handler for an exact path. Safe before
  /// or after Start.
  void RegisterHandler(std::string path, HttpHandler handler);

  /// Paths with a registered handler, sorted (the "/" index page).
  std::vector<std::string> HandlerPaths() const;

  /// Binds, listens and spawns the event loop. Fails (without leaking
  /// fds) when the address is unavailable; calling twice is an error.
  Status Start();

  /// Graceful shutdown: stop accepting, drain in-flight responses (up to
  /// drain_timeout_ms), join the loop. Idempotent; the destructor calls
  /// it.
  void Stop();

  /// The bound port (the resolved one under Options::port == 0), or -1
  /// before Start. Required for parallel test runs — never hard-code an
  /// admin port in a test.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Telemetry about the server itself: the `blas_admin_*` counters
  /// (accepted, rejected_over_capacity, requests_ok, requests_bad,
  /// deadline_closes, bytes_written) and the active_connections gauge.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Conn;

  void RunLoop(int listen_fd, int wake_fd);
  /// Parses/serves every complete request head in `conn`'s input buffer;
  /// returns false when the connection must close (framing error already
  /// queued as a 400).
  bool ServeBuffered(Conn* conn, uint64_t now_ns);
  HttpResponse Dispatch(const HttpRequest& request);

  const Options options_;

  mutable Mutex mu_;
  std::map<std::string, HttpHandler> handlers_ BLAS_GUARDED_BY(mu_);
  bool started_ BLAS_GUARDED_BY(mu_) = false;
  std::thread thread_ BLAS_GUARDED_BY(mu_);

  std::atomic<int> port_{-1};
  /// Write end of the loop's wake pipe; Stop() pokes it.
  std::atomic<int> wake_write_fd_{-1};
  std::atomic<bool> stop_{false};

  // blas-analyze: allow(guarded-coverage) -- synchronizes itself
  obs::MetricsRegistry metrics_;
  obs::Counter* const accepted_;
  obs::Counter* const rejected_over_capacity_;
  obs::Counter* const requests_ok_;     // handler responses, any status
  obs::Counter* const requests_bad_;    // framing rejections (400)
  obs::Counter* const deadline_closes_;  // 408s and idle-timeout closes
  obs::Counter* const bytes_written_;
  obs::Gauge* const active_connections_;
};

/// Resolves the admin port from BLAS_ADMIN_PORT (0 = ephemeral, see
/// AdminServer::port()), falling back to `fallback` when unset/invalid.
int AdminPortFromEnv(int fallback);

}  // namespace server
}  // namespace blas

#endif  // BLAS_SERVER_ADMIN_SERVER_H_
