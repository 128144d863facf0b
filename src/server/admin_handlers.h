#ifndef BLAS_SERVER_ADMIN_HANDLERS_H_
#define BLAS_SERVER_ADMIN_HANDLERS_H_

#include <memory>
#include <vector>

#include "obs/snapshot.h"
#include "server/admin_server.h"
#include "service/query_service.h"

namespace blas {
namespace server {

/// Knobs for InstallAdminEndpoints.
struct AdminEndpointsOptions {
  /// Windows reported by /timez and /varz's "windowed" section.
  std::vector<int> windows_seconds = {10, 60, 300};
  obs::MetricsSnapshotter::Options snapshotter;
  /// Start the capture thread immediately. Tests turn this off and drive
  /// CaptureNow() by hand for determinism.
  bool start_snapshotter = true;
};

/// Installs the standard telemetry endpoints on `server`, backed by
/// `service` (which must outlive the server):
///
///   /         index of registered paths
///   /healthz  liveness probe ("ok")
///   /varz     QueryService::Statsz() JSON + a "windowed" section + the
///             server's own registry ("admin")
///   /metrics  Prometheus text exposition 0.0.4 of the same registries
///   /timez    windowed rates + percentiles (10s/60s/300s by default)
///   /tracez   recent trace span trees (JSON; ?format=text for humans)
///   /slowz    slow-query log (JSON; ?format=text for humans)
///   /buildz   version, toolchain, build flags, uptime
///
/// Returns the windowed-metrics snapshotter feeding /timez and /varz,
/// already capturing once per second (unless start_snapshotter is off).
/// The caller owns it and must keep it alive while the server serves.
std::unique_ptr<obs::MetricsSnapshotter> InstallAdminEndpoints(
    AdminServer* server, QueryService* service,
    AdminEndpointsOptions options = AdminEndpointsOptions());

/// /buildz's body (also handy for startup logs): one JSON object with
/// version, compiler, C++ standard, build mode, sanitizers and uptime.
std::string BuildInfoJson(double uptime_seconds);

}  // namespace server
}  // namespace blas

#endif  // BLAS_SERVER_ADMIN_HANDLERS_H_
