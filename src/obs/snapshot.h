#ifndef BLAS_OBS_SNAPSHOT_H_
#define BLAS_OBS_SNAPSHOT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace blas {
namespace obs {

/// \brief Copyable point-in-time state of one Histogram.
///
/// Buckets are stored sparsely ((index, count) pairs, sorted by index,
/// zero counts omitted) so a whole-registry snapshot costs kilobytes, not
/// the 496-slot dense array per histogram — the snapshotter keeps hundreds
/// of these in its ring.
struct HistogramSnapshot {
  /// Non-empty buckets, ascending by bucket index.
  std::vector<std::pair<uint32_t, uint64_t>> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Largest sample since the histogram was created. Not windowable:
  /// Subtract keeps the later snapshot's max, which upper-bounds the
  /// window's true max.
  uint64_t max = 0;

  /// Adds `other`'s buckets/count/sum into this (max takes the larger).
  void Merge(const HistogramSnapshot& other);

  /// This snapshot minus an `earlier` one of the same histogram: the
  /// distribution of samples recorded in between. Counts saturate at 0
  /// per bucket, so a registry reset (or mismatched operands) degrades to
  /// empty deltas instead of wrapping.
  HistogramSnapshot Subtract(const HistogramSnapshot& earlier) const;

  /// Same nearest-rank / bucket-midpoint estimate as Histogram's, over
  /// the snapshot's buckets. 0 when empty.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t p50() const { return ValueAtQuantile(0.50); }
  uint64_t p90() const { return ValueAtQuantile(0.90); }
  uint64_t p99() const { return ValueAtQuantile(0.99); }
  uint64_t p999() const { return ValueAtQuantile(0.999); }
};

/// \brief Copyable state of a whole registry (or of several, merged):
/// what MetricsRegistry::Snapshot() returns and what the
/// MetricsSnapshotter rings.
///
/// Counter and histogram state is cumulative since process start, so two
/// snapshots subtract into an exact per-window view; gauges are levels
/// and Subtract keeps the later value.
struct MetricsSnapshot {
  /// steady_clock at capture — the denominator of every windowed rate.
  uint64_t captured_mono_ns = 0;
  /// system_clock at capture, ms since epoch, for display only.
  int64_t captured_unix_ms = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Union with `other`; same-name counters/histograms add, same-name
  /// gauges keep this snapshot's value. Timestamps keep this snapshot's.
  void Merge(const MetricsSnapshot& other);

  /// This snapshot minus an `earlier` one: counter deltas (saturating),
  /// histogram deltas (HistogramSnapshot::Subtract), later gauge values.
  /// Names missing from `earlier` keep their full value (metric created
  /// inside the window).
  MetricsSnapshot Subtract(const MetricsSnapshot& earlier) const;
};

/// \brief Background thread that captures a bounded ring of periodic
/// snapshots and answers windowed questions over it: rates (counter delta
/// over elapsed time) and per-window histogram percentiles — "what was
/// the QPS and p99 over the last 30 seconds", which point-in-time
/// counters cannot answer.
///
/// The capture callback runs on the snapshotter thread (and on callers of
/// CaptureNow) and must be safe from any thread; registry Snapshot()
/// methods are. Window queries interpolate nothing: a "10s" window is the
/// delta between the newest snapshot and the newest one at least ~10s
/// older (or the oldest available), divided by the *actual* span between
/// them — so a freshly started process reports honest rates over the
/// span it has actually observed.
class MetricsSnapshotter {
 public:
  struct Options {
    /// Capture period. The default (1s) matches the ring capacity below
    /// to a 6-minute horizon — enough for 10s/60s/300s windows.
    int interval_ms = 1000;
    size_t ring_capacity = 360;
  };

  explicit MetricsSnapshotter(std::function<MetricsSnapshot()> capture)
      : MetricsSnapshotter(std::move(capture), Options()) {}
  MetricsSnapshotter(std::function<MetricsSnapshot()> capture,
                     Options options);
  ~MetricsSnapshotter();

  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  /// Starts the capture thread (idempotent).
  void Start();
  /// Stops and joins it (idempotent; the destructor calls it).
  void Stop();

  /// Captures one snapshot synchronously into the ring — the test hook,
  /// also useful to seed the ring before Start.
  void CaptureNow();

  size_t ring_size() const;
  size_t ring_capacity() const { return options_.ring_capacity; }
  /// Oldest first.
  std::vector<MetricsSnapshot> Ring() const;

  /// Delta over (up to) the last `seconds`: newest snapshot minus the
  /// best base for that window. False when fewer than two snapshots or a
  /// non-positive span. `span_seconds` (optional) receives the actual
  /// elapsed time the delta covers.
  bool WindowDelta(double seconds, MetricsSnapshot* delta,
                   double* span_seconds = nullptr) const;

  /// JSON for /timez and /varz's "windowed" section: one object per
  /// requested window, e.g. {"10s":{"span_seconds":9.98,"rates":
  /// {"blas_service_completed":123.4,...},"histograms":{"blas_query_
  /// latency_ns":{"count":..,"sum":..,"p50":..,"p90":..,"p99":..,
  /// "p999":..},...}},...}. Rates are counter deltas per second; windows
  /// with no data yet appear as {}.
  std::string WindowsJson(const std::vector<int>& windows_seconds) const;

 private:
  void Loop();

  const std::function<MetricsSnapshot()> capture_;
  const Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<MetricsSnapshot> ring_ BLAS_GUARDED_BY(mu_);
  bool running_ BLAS_GUARDED_BY(mu_) = false;
  bool stop_ BLAS_GUARDED_BY(mu_) = false;
  std::thread thread_ BLAS_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace blas

#endif  // BLAS_OBS_SNAPSHOT_H_
