#include "server/admin_handlers.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

namespace blas {
namespace server {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

HttpResponse JsonResponse(std::string body) {
  HttpResponse response;
  response.content_type = "application/json; charset=utf-8";
  response.body = std::move(body);
  return response;
}

std::string TraceJson(const obs::Trace& trace) {
  std::string out;
  AppendF(&out, "{\"label\":\"%s\",\"total_ns\":%" PRIu64
                ",\"started_unix_ms\":%" PRId64 ",\"spans\":[",
          JsonEscape(trace.label).c_str(), trace.total_ns,
          trace.started_unix_ms);
  bool first = true;
  for (const obs::TraceSpan& span : trace.spans) {
    AppendF(&out, "%s{\"name\":\"%s\",\"note\":\"%s\",\"depth\":%d",
            first ? "" : ",", JsonEscape(span.name).c_str(),
            JsonEscape(span.note).c_str(), span.depth);
    AppendF(&out, ",\"start_ns\":%" PRIu64 ",\"duration_ns\":%" PRIu64,
            span.start_ns, span.duration_ns);
    AppendF(&out, ",\"elements\":%" PRIu64 ",\"page_fetches\":%" PRIu64
                  ",\"page_misses\":%" PRIu64 ",\"io_reads\":%" PRIu64 "}",
            span.elements, span.page_fetches, span.page_misses,
            span.io_reads);
    first = false;
  }
  out += "]}";
  return out;
}

std::string SlowEntryJson(const obs::SlowQueryEntry& entry) {
  std::string out;
  AppendF(&out, "{\"query\":\"%s\",\"translator\":\"%s\",\"engine\":\"%s\"",
          JsonEscape(entry.query).c_str(),
          JsonEscape(entry.translator).c_str(),
          JsonEscape(entry.engine).c_str());
  AppendF(&out, ",\"millis\":%.3f,\"elements\":%" PRIu64
                ",\"page_fetches\":%" PRIu64 ",\"page_misses\":%" PRIu64,
          entry.millis, entry.elements, entry.page_fetches,
          entry.page_misses);
  AppendF(&out, ",\"io_reads\":%" PRIu64 ",\"output_rows\":%" PRIu64,
          entry.io_reads, entry.output_rows);
  out += ",\"trace\":";
  out += entry.trace ? TraceJson(*entry.trace) : "null";
  out += "}";
  return out;
}

}  // namespace

std::string BuildInfoJson(double uptime_seconds) {
  std::string out = "{\"name\":\"blas\",\"version\":\"dev\"";
#if defined(__VERSION__)
  AppendF(&out, ",\"compiler\":\"%s\"", JsonEscape(__VERSION__).c_str());
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  AppendF(&out, ",\"cxx_standard\":%ld", static_cast<long>(__cplusplus));
#if defined(NDEBUG)
  out += ",\"build\":\"release\"";
#else
  out += ",\"build\":\"debug\"";
#endif
  out += ",\"sanitizers\":[";
  {
    bool first = true;
#if defined(__SANITIZE_ADDRESS__)
    out += "\"address\"";
    first = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    out += "\"address\"";
    first = false;
#endif
#endif
#if defined(__SANITIZE_THREAD__)
    out += first ? "\"thread\"" : ",\"thread\"";
    first = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    out += first ? "\"thread\"" : ",\"thread\"";
    first = false;
#endif
#endif
    (void)first;
  }
  out += "]";
  AppendF(&out, ",\"uptime_seconds\":%.3f}", uptime_seconds);
  return out;
}

std::unique_ptr<obs::MetricsSnapshotter> InstallAdminEndpoints(
    AdminServer* server, QueryService* service,
    AdminEndpointsOptions options) {
  auto snapshotter = std::make_unique<obs::MetricsSnapshotter>(
      [service] { return service->SnapshotMetrics(); }, options.snapshotter);
  obs::MetricsSnapshotter* snaps = snapshotter.get();
  const std::vector<int> windows = options.windows_seconds;
  const auto started = std::chrono::steady_clock::now();

  server->RegisterHandler("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });

  server->RegisterHandler("/varz", [service, server, snaps,
                                    windows](const HttpRequest&) {
    // Statsz() is one JSON object; splice the windowed and admin sections
    // in before its closing brace so /varz stays a single document.
    std::string body = service->Statsz();
    body.pop_back();
    body += ",\"windowed\":" + snaps->WindowsJson(windows) +
            ",\"admin\":" + server->metrics().DumpJson() + "}";
    return JsonResponse(std::move(body));
  });

  server->RegisterHandler("/metrics", [service, server](const HttpRequest&) {
    HttpResponse response;
    // The exact string Prometheus sniffs for text exposition 0.0.4.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        service->StatszPrometheus() + server->metrics().DumpPrometheus();
    return response;
  });

  server->RegisterHandler("/timez", [snaps, windows](const HttpRequest&) {
    return JsonResponse(snaps->WindowsJson(windows));
  });

  server->RegisterHandler("/tracez", [service](const HttpRequest& request) {
    const auto traces = service->recent_traces();
    if (request.QueryParam("format") == "text") {
      HttpResponse response;
      std::string body;
      AppendF(&body, "%zu recent trace(s)\n\n", traces.size());
      for (const auto& trace : traces) {
        body += trace->Render();
        body += "\n";
      }
      response.body = std::move(body);
      return response;
    }
    std::string body = "{\"traces\":[";
    bool first = true;
    for (const auto& trace : traces) {
      if (!first) body += ",";
      body += TraceJson(*trace);
      first = false;
    }
    body += "]}";
    return JsonResponse(std::move(body));
  });

  server->RegisterHandler("/slowz", [service](const HttpRequest& request) {
    const obs::SlowQueryLog& log = service->slow_query_log();
    const auto entries = log.Entries();
    if (request.QueryParam("format") == "text") {
      HttpResponse response;
      std::string body;
      AppendF(&body,
              "slow-query log: threshold %.1f ms, %zu entrie(s), %" PRIu64
              " recorded total\n\n",
              log.threshold_millis(), entries.size(), log.total_recorded());
      for (const auto& entry : entries) {
        body += entry.ToString();
        body += "\n";
      }
      response.body = std::move(body);
      return response;
    }
    std::string body;
    AppendF(&body,
            "{\"threshold_millis\":%.3f,\"total_recorded\":%" PRIu64
            ",\"entries\":[",
            log.threshold_millis(), log.total_recorded());
    bool first = true;
    for (const auto& entry : entries) {
      if (!first) body += ",";
      body += SlowEntryJson(entry);
      first = false;
    }
    body += "]}";
    return JsonResponse(std::move(body));
  });

  server->RegisterHandler("/buildz", [started](const HttpRequest&) {
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    return JsonResponse(BuildInfoJson(uptime));
  });

  server->RegisterHandler("/", [server](const HttpRequest&) {
    HttpResponse response;
    std::string body = "blas admin endpoints:\n";
    for (const std::string& path : server->HandlerPaths()) {
      body += "  " + path + "\n";
    }
    response.body = std::move(body);
    return response;
  });

  if (options.start_snapshotter) snapshotter->Start();
  return snapshotter;
}

}  // namespace server
}  // namespace blas
