#include "server/admin_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace blas {
namespace server {

namespace {

uint64_t MonoNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

std::string ErrnoText(const char* what) {
  std::string out = what;
  out += ": ";
  out += ::strerror(errno);
  return out;
}

HttpResponse PlainResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

}  // namespace

/// Per-connection state, owned by the event loop (never shared across
/// threads, never behind a lock).
struct AdminServer::Conn {
  int fd = -1;
  std::string in;        // bytes read, not yet parsed
  std::string out;       // serialized responses, not yet written
  size_t out_off = 0;
  /// Absolute steady-clock deadline; re-armed on every served request.
  uint64_t idle_deadline_ns = 0;
  bool close_after = false;  // close once `out` drains
};

AdminServer::AdminServer(Options options)
    : options_(std::move(options)),
      accepted_(metrics_.GetCounter("blas_admin_accepted",
                                    "Connections accepted")),
      rejected_over_capacity_(metrics_.GetCounter(
          "blas_admin_rejected_over_capacity",
          "Connections refused with 503 at max_connections")),
      requests_ok_(metrics_.GetCounter("blas_admin_requests_ok",
                                       "Requests answered by a handler")),
      requests_bad_(metrics_.GetCounter("blas_admin_requests_bad",
                                        "Requests rejected as malformed")),
      deadline_closes_(metrics_.GetCounter(
          "blas_admin_deadline_closes",
          "Connections closed at the read deadline")),
      bytes_written_(metrics_.GetCounter("blas_admin_bytes_written",
                                         "Response bytes written")),
      active_connections_(metrics_.GetGauge("blas_admin_active_connections",
                                            "Open connections")) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::RegisterHandler(std::string path, HttpHandler handler) {
  MutexLock lock(mu_);
  handlers_[std::move(path)] = std::move(handler);
}

std::vector<std::string> AdminServer::HandlerPaths() const {
  std::vector<std::string> paths;
  MutexLock lock(mu_);
  paths.reserve(handlers_.size());
  for (const auto& [path, handler] : handlers_) paths.push_back(path);
  return paths;
}

Status AdminServer::Start() {
  const int listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Status::Internal(ErrnoText("socket"));

  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::Internal(ErrnoText("bind"));
    CloseFd(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 128) != 0) {
    const Status status = Status::Internal(ErrnoText("listen"));
    CloseFd(listen_fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status = Status::Internal(ErrnoText("getsockname"));
    CloseFd(listen_fd);
    return status;
  }

  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) {
    const Status status = Status::Internal(ErrnoText("pipe2"));
    CloseFd(listen_fd);
    return status;
  }

  {
    MutexLock lock(mu_);
    if (started_) {
      CloseFd(listen_fd);
      CloseFd(wake[0]);
      CloseFd(wake[1]);
      return Status::InvalidArgument("AdminServer already started");
    }
    started_ = true;
    stop_.store(false, std::memory_order_release);
    wake_write_fd_.store(wake[1], std::memory_order_release);
    port_.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);
    const int wake_read_fd = wake[0];
    thread_ = std::thread(
        [this, listen_fd, wake_read_fd] { RunLoop(listen_fd, wake_read_fd); });
  }
  return Status::OK();
}

void AdminServer::Stop() {
  std::thread joiner;
  {
    MutexLock lock(mu_);
    if (!thread_.joinable()) return;
    joiner = std::move(thread_);
  }
  stop_.store(true, std::memory_order_release);
  const int wake_fd = wake_write_fd_.load(std::memory_order_acquire);
  if (wake_fd >= 0) {
    const char byte = 'q';
    const ssize_t ignored = ::write(wake_fd, &byte, 1);
    (void)ignored;  // best effort; the loop also polls stop_
  }
  joiner.join();  // outside the lock: join is a blocking call
  CloseFd(wake_write_fd_.exchange(-1, std::memory_order_acq_rel));
}

HttpResponse AdminServer::Dispatch(const HttpRequest& request) {
  HttpHandler handler;
  {
    MutexLock lock(mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  // Invoked outside the lock: handlers read clocks and take their own
  // subsystem locks (registry, trace ring).
  if (!handler) {
    return PlainResponse(404, "no handler for " + request.path + "\n");
  }
  return handler(request);
}

bool AdminServer::ServeBuffered(Conn* conn, uint64_t now_ns) {
  const uint64_t deadline_ns =
      static_cast<uint64_t>(options_.read_deadline_ms) * 1000000ull;
  for (;;) {
    const size_t head_end = conn->in.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (conn->in.size() > options_.max_request_bytes) {
        requests_bad_->Increment();
        conn->out += SerializeHttpResponse(
            PlainResponse(400, "request head too large\n"),
            /*head_only=*/false, /*keep_alive=*/false);
        conn->close_after = true;
      }
      return true;
    }
    std::string head = conn->in.substr(0, head_end);
    conn->in.erase(0, head_end + 4);

    Result<HttpRequest> parsed = ParseHttpRequest(head);
    if (!parsed.ok()) {
      requests_bad_->Increment();
      conn->out += SerializeHttpResponse(
          PlainResponse(400, std::string(parsed.status().message()) + "\n"),
          /*head_only=*/false, /*keep_alive=*/false);
      conn->close_after = true;
      return true;
    }
    const HttpRequest& request = *parsed;

    HttpResponse response;
    if (request.method == "GET" || request.method == "HEAD") {
      response = Dispatch(request);
    } else {
      response = PlainResponse(405, "only GET and HEAD are supported\n");
    }
    requests_ok_->Increment();

    const bool keep_alive = request.KeepAlive() && !conn->close_after;
    conn->out += SerializeHttpResponse(response,
                                       /*head_only=*/request.method == "HEAD",
                                       keep_alive);
    if (!keep_alive) conn->close_after = true;
    conn->idle_deadline_ns = now_ns + deadline_ns;
    if (conn->close_after) return true;  // ignore pipelined leftovers
  }
}

void AdminServer::RunLoop(int listen_fd, int wake_fd) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::unordered_map<int, Conn> conns;

  auto add_fd = [&](int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  };
  auto update_interest = [&](const Conn& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (conn.out_off < conn.out.size()) ev.events |= EPOLLOUT;
    ev.data.fd = conn.fd;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
  };
  auto close_conn = [&](int fd) {
    conns.erase(fd);  // closing the fd drops its epoll registration
    ::close(fd);
    active_connections_->Set(static_cast<int64_t>(conns.size()));
  };
  // Returns false when the connection is done (drained a close_after
  // response, or the socket errored) and must be closed by the caller.
  auto flush = [&](Conn& conn) -> bool {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        bytes_written_->Add(static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer error / reset
    }
    conn.out.clear();
    conn.out_off = 0;
    return !conn.close_after;
  };

  if (ep < 0) {  // pathological; refuse to serve rather than spin
    CloseFd(listen_fd);
    CloseFd(wake_fd);
    return;
  }
  add_fd(listen_fd, EPOLLIN);
  add_fd(wake_fd, EPOLLIN);

  const uint64_t read_deadline_ns =
      static_cast<uint64_t>(options_.read_deadline_ms) * 1000000ull;
  bool draining = false;
  uint64_t drain_deadline_ns = 0;
  epoll_event events[64];

  for (;;) {
    // 50 ms tick bounds deadline-sweep latency even with no socket
    // activity at all.
    const int n_events = ::epoll_wait(ep, events, 64, 50);
    const uint64_t now_ns = MonoNanos();

    if (stop_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline_ns =
          now_ns + static_cast<uint64_t>(options_.drain_timeout_ms) * 1000000ull;
      ::epoll_ctl(ep, EPOLL_CTL_DEL, listen_fd, nullptr);
      CloseFd(listen_fd);
      listen_fd = -1;
      // Keep only connections with response bytes still in flight.
      std::vector<int> idle;
      for (auto& [fd, conn] : conns) {
        conn.close_after = true;
        if (conn.out_off >= conn.out.size()) idle.push_back(fd);
      }
      for (const int fd : idle) close_conn(fd);
    }

    for (int i = 0; i < n_events; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;

      if (fd == wake_fd) {
        char buf[64];
        while (::read(wake_fd, buf, sizeof(buf)) > 0) {
        }
        continue;
      }

      if (fd == listen_fd) {
        for (;;) {
          const int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;
          if (draining) {
            ::close(cfd);
            continue;
          }
          if (conns.size() >= options_.max_connections) {
            rejected_over_capacity_->Increment();
            // Best effort: the socket buffer is empty, so the short 503
            // almost always fits without blocking.
            const std::string bytes = SerializeHttpResponse(
                PlainResponse(503, "admin connection limit reached\n"),
                /*head_only=*/false, /*keep_alive=*/false);
            const ssize_t ignored =
                ::send(cfd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            (void)ignored;
            ::close(cfd);
            continue;
          }
          int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          accepted_->Increment();
          Conn conn;
          conn.fd = cfd;
          conn.idle_deadline_ns = now_ns + read_deadline_ns;
          conns.emplace(cfd, std::move(conn));
          active_connections_->Set(static_cast<int64_t>(conns.size()));
          add_fd(cfd, EPOLLIN);
        }
        continue;
      }

      auto it = conns.find(fd);
      if (it == conns.end()) continue;  // closed earlier this batch
      Conn& conn = it->second;

      if (ev & (EPOLLHUP | EPOLLERR)) {
        close_conn(fd);
        continue;
      }

      bool alive = true;
      if (ev & EPOLLIN) {
        for (;;) {
          char buf[4096];
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          alive = false;  // EOF or error
          break;
        }
        if (alive && !draining && !conn.close_after) {
          ServeBuffered(&conn, now_ns);
        }
      }
      if (alive && (conn.out_off < conn.out.size() || conn.close_after)) {
        alive = flush(conn);
      }
      if (!alive) {
        close_conn(fd);
        continue;
      }
      update_interest(conn);
    }

    // Deadline sweep: connections that sat partial/idle past their
    // deadline get a 408 (when they sent something) or a silent close.
    std::vector<int> expired;
    for (auto& [fd, conn] : conns) {
      if (now_ns < conn.idle_deadline_ns) continue;
      deadline_closes_->Increment();
      if (conn.out_off < conn.out.size()) {
        // Slow reader holding response bytes: give up on it.
        expired.push_back(fd);
      } else if (!conn.in.empty() && !conn.close_after) {
        conn.out += SerializeHttpResponse(
            PlainResponse(408, "request head not received in time\n"),
            /*head_only=*/false, /*keep_alive=*/false);
        conn.close_after = true;
        // Re-arm so the 408 gets one deadline's worth of flush time
        // before the slow-reader branch above reaps the connection.
        conn.idle_deadline_ns = now_ns + read_deadline_ns;
        if (flush(conn)) {
          update_interest(conn);
        } else {
          expired.push_back(fd);
        }
      } else {
        expired.push_back(fd);  // idle keep-alive, nothing owed
      }
    }
    for (const int fd : expired) close_conn(fd);

    if (draining) {
      if (conns.empty() || now_ns >= drain_deadline_ns) break;
    }
  }

  std::vector<int> rest;
  rest.reserve(conns.size());
  for (const auto& [fd, conn] : conns) rest.push_back(fd);
  for (const int fd : rest) close_conn(fd);
  CloseFd(listen_fd);
  CloseFd(wake_fd);
  CloseFd(ep);
}

int AdminPortFromEnv(int fallback) {
  const char* text = std::getenv("BLAS_ADMIN_PORT");
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 65535) {
    return fallback;
  }
  return static_cast<int>(value);
}

}  // namespace server
}  // namespace blas
