#ifndef BLAS_OBS_METRICS_H_
#define BLAS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace blas {
namespace obs {

struct MetricsSnapshot;  // obs/snapshot.h

/// \brief Monotonic event counter. One relaxed atomic add per event —
/// safe to hit from any thread, including under storage-layer latches.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time signed level (frames resident, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket log-scale histogram of non-negative integer samples
/// (nanoseconds on the latency paths).
///
/// Bucketing is HdrHistogram-style: values below 16 get one bucket each
/// (exact); above that, each power-of-two octave splits into 8 linear
/// sub-buckets, so any reconstructed quantile is within 1/8 octave
/// (~12.5% relative error) of the true sample. 496 buckets cover the full
/// uint64 range — 1 ns to centuries — with no configuration.
///
/// Recording is sharded: each thread picks a fixed shard (round-robin at
/// first use) and pays two relaxed atomic adds, so concurrent hot paths
/// never contend on a lock or a shared cache line. Reads (count / sum /
/// percentiles / exposition) merge the shards into a snapshot; they are
/// safe concurrently with writers and see a consistent-enough view (each
/// cell is read atomically, the set is not fenced).
class Histogram {
 public:
  static constexpr size_t kBuckets = 16 + 60 * 8;  // 496

  void Record(uint64_t value);

  uint64_t count() const;
  /// Sum of recorded values (Prometheus `_sum`).
  uint64_t sum() const;
  uint64_t max_recorded() const;

  /// Inclusive lower bound of bucket `i` / exclusive upper bound.
  static uint64_t BucketLo(size_t i);
  static uint64_t BucketHi(size_t i);
  static size_t BucketIndex(uint64_t value);

  /// Merged per-bucket counts.
  std::array<uint64_t, kBuckets> Snapshot() const;

  /// Value at quantile `q` in [0,1] (0.5 = p50). Returns the midpoint of
  /// the bucket holding the q-th sample — within one sub-bucket of the
  /// true order statistic. 0 when empty.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t p50() const { return ValueAtQuantile(0.50); }
  uint64_t p90() const { return ValueAtQuantile(0.90); }
  uint64_t p99() const { return ValueAtQuantile(0.99); }
  uint64_t p999() const { return ValueAtQuantile(0.999); }

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Shard& shard_for_this_thread();

  std::array<Shard, kShards> shards_;
};

/// \brief Named registry of counters, gauges and histograms with two
/// machine-readable exporters (Prometheus text exposition and JSON).
///
/// Registration (GetX) takes a mutex once per name; the returned pointer
/// is stable for the registry's lifetime, so hot paths register once
/// (e.g. into a function-local static) and then pay only the metric's own
/// atomic. Names must match Prometheus conventions ([a-zA-Z_][a-zA-Z0-9_]*);
/// dumps are sorted by name, so exposition is deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the existing metric of that name, creating it on first use.
  /// `help` is kept from the first registration. A name registered as one
  /// kind must not be re-requested as another (returns nullptr then).
  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::string_view help = "");

  /// Gauge whose value is computed at dump time (frame occupancy, queue
  /// depth — anything already counted elsewhere). The callback must stay
  /// valid for the registry's lifetime and be safe from any thread; it
  /// runs under the registry's mutex, so it must not block.
  void RegisterCallbackGauge(std::string_view name, std::string_view help,
                             std::function<int64_t()> fn);
  /// The same for a monotonic count kept elsewhere (a cache's hit count):
  /// dumped and snapshotted as a counter, so windowed rates apply.
  void RegisterCallbackCounter(std::string_view name, std::string_view help,
                               std::function<uint64_t()> fn);

  /// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
  /// headers, counter/gauge samples, and histograms as cumulative
  /// `_bucket{le="..."}` series (non-empty buckets only, plus `+Inf`) with
  /// `_sum` and `_count`.
  std::string DumpPrometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{"count","sum","max","p50","p90","p99","p999"}}}. Quantiles,
  /// counts and sums are bare JSON numbers (never strings) so scrapers
  /// can compute rates and averages without parsing Prometheus text.
  std::string DumpJson() const;

  /// Copyable state of every metric (see obs/snapshot.h): counters,
  /// gauge levels (callback gauges evaluated now) and full sparse
  /// histogram buckets. Two snapshots subtract into an exact windowed
  /// view; the MetricsSnapshotter rings these. Defined in snapshot.cc.
  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    enum class Kind {
      kCounter,
      kGauge,
      kHistogram,
      kCallbackGauge,
      kCallbackCounter
    };
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> callback;
    std::function<uint64_t()> counter_callback;

    /// Current value of a counter or callback counter.
    uint64_t CounterValue() const;
    /// Current level of a gauge or callback gauge.
    int64_t GaugeValue() const;
  };

  Entry* GetOrCreate(std::string_view name, std::string_view help,
                     Entry::Kind kind);

  mutable Mutex mu_;
  /// std::map: stable iteration order -> deterministic exposition. The
  /// map is guarded; the metric objects it owns are deliberately not —
  /// their pointers are handed out for the registry's lifetime and are
  /// internally synchronized (atomics / sharded atomics).
  std::map<std::string, Entry, std::less<>> entries_ BLAS_GUARDED_BY(mu_);
};

/// The process-wide registry. Layers without a service handle (buffer
/// pool, manifest writer, live collection) record here; the query service
/// dumps it alongside its own registry in Statsz().
MetricsRegistry& DefaultRegistry();

}  // namespace obs
}  // namespace blas

#endif  // BLAS_OBS_METRICS_H_
