#ifndef BLAS_SERVICE_QUERY_SERVICE_H_
#define BLAS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "blas/collection.h"
#include "common/stopwatch.h"
#include "ingest/ingest_queue.h"
#include "ingest/live_collection.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "service/plan_cache.h"
#include "service/thread_pool.h"

namespace blas {

/// Construction options for QueryService.
struct ServiceOptions {
  /// Worker threads executing queries. 0 means hardware concurrency.
  size_t worker_threads = 4;
  /// Bounded submission queue; Submit blocks (backpressure) when full.
  size_t queue_capacity = 1024;
  /// LRU entries of the plan cache. 0 disables caching entirely.
  size_t plan_cache_capacity = 256;
  /// Trace every Nth completed query in addition to explicit
  /// QueryOptions::trace requests (1 = every query, 0 = explicit only).
  /// Finished traces land in recent_traces().
  size_t trace_sample_every = 0;
  /// Finished traces kept for recent_traces() (oldest evicted first).
  size_t trace_ring_capacity = 32;
  /// Completed queries slower than this (wall milliseconds) land in the
  /// slow-query log with their per-stage breakdown; <= 0 disables it.
  double slow_query_millis = 0.0;
  /// Most recent slow-query entries kept.
  size_t slow_query_log_capacity = 64;
};

/// One client request: an XPath query plus the unified per-query knobs
/// (translator, engine, exec, limit/offset, projection).
struct QueryRequest {
  std::string xpath;
  QueryOptions options;
  /// Skip the plan cache for this request (both lookup and insert).
  bool bypass_plan_cache = false;
};

/// Final measurements of a streamed (callback) query.
struct StreamSummary {
  ExecStats stats;
  /// Wall time from submission to the last match delivered.
  double millis = 0.0;
  /// Matches handed to the callback.
  uint64_t delivered = 0;
  /// True when the callback stopped the stream early.
  bool cancelled = false;
};

/// Service-wide counters: a read-only view of the service's registry
/// entries (`blas_service_<field>`, the roll-up as `blas_service_exec_*`).
/// Every value is monotonic since construction; `stats()` returns a
/// consistent-enough snapshot (each field is read atomically, the set is
/// not fenced). A live collection's own figures (documents ingested,
/// epochs, the manifest size) are in LiveCollection::stats().
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  // queries run to completion by the service
  uint64_t failed = 0;     // parse/translate/execute errors
  uint64_t rejected = 0;   // submissions refused after Shutdown
  /// Cursors handed out via OpenCursor. Counted separately from
  /// `completed`: an escaped cursor executes on the client's thread, so
  /// its ExecStats never enter the `exec` roll-up below and must not
  /// dilute per-completed-query averages.
  uint64_t cursors_opened = 0;
  /// Streaming submissions whose callback cancelled mid-stream. Counted
  /// separately from `completed` for the same reason: their truncated
  /// ExecStats stay out of the exec roll-up.
  uint64_t cancelled = 0;
  // Plan-cache accounting (mirrors PlanCache::stats()).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_evictions = 0;
  /// Per-document plan reuse inside the cached entries: a hot query pays
  /// one parse plus one translation per document (doc_plan_misses), then
  /// only doc_plan_hits. A single-document service has one slot per entry,
  /// so its doc_plan_* track the plan cache's own hits and misses. An
  /// epoch-mismatched lookup (the document was replaced since the plan was
  /// translated) counts as a miss — stale plans are structurally
  /// unservable.
  uint64_t doc_plan_hits = 0;
  uint64_t doc_plan_misses = 0;
  /// Completed collection queries that overlapped at least one publish:
  /// the epoch they pinned was superseded by the time they drained. The
  /// headline number of the live-ingestion design — readers kept
  /// streaming while the data changed under them.
  uint64_t queries_served_during_churn = 0;
  /// Scatter-side accounting, summed over completed queries (see
  /// CollectionCursor::ScatterStats): documents whose per-document cursor
  /// actually ran, and documents cancelled while still queued because the
  /// limit budget was already spent.
  uint64_t docs_executed = 0;
  uint64_t docs_cancelled = 0;
  // Roll-up of every completed query's ExecStats.
  struct ExecRollup {
    uint64_t elements = 0;
    uint64_t page_fetches = 0;
    uint64_t page_misses = 0;
    /// Real disk reads (demand-paged documents; 0 for in-memory).
    uint64_t io_reads = 0;
    uint64_t d_joins = 0;
    uint64_t intermediate_rows = 0;
    uint64_t output_rows = 0;
    /// Matches consumed by `offset` before the first delivered one,
    /// summed over completed queries.
    uint64_t offset_skipped = 0;
  };
  ExecRollup exec;
};

/// \brief Concurrent query front door over one indexed document or a
/// whole document collection.
///
/// Every backing is served as a collection snapshot: a single document is
/// a one-member static collection (the member is named ""), a
/// BlasCollection a static copy, a LiveCollection the epoch current at
/// each query's open. Requests enter a bounded queue, a fixed pool of
/// workers translates and executes them against the shared read path
/// (safe for concurrent readers), and results come back through futures.
/// Repeat queries hit an LRU plan cache keyed by normalized query text and
/// skip the whole parse/decompose/translate/optimize pipeline: an entry
/// caches the parsed query once plus one translated plan per document.
///
/// A query's merge runs the first document itself and scatters the others
/// across the same worker pool (see BlasCollection::OpenCursor), so one
/// collection query can occupy several workers while bounded queues cap
/// its memory.
///
/// \code
///   QueryService service(&sys, {.worker_threads = 4});
///   auto f1 = service.Submit({.xpath = "/site/regions//item"});
///   auto f2 = service.Submit({.xpath = "//person[name]"});
///   Result<BlasCollection::CollectionResult> r1 = f1.get();
/// \endcode
class QueryService {
 public:
  /// Serves queries against a document owned by the caller, which must
  /// outlive the service.
  explicit QueryService(const BlasSystem* system,
                        const ServiceOptions& options = {});
  /// Serves queries against the documents `collection` holds now: the
  /// service keeps a shallow copy (sharing the member documents) and
  /// serves it as a collection state that never publishes, so later
  /// changes to `collection` are not seen.
  explicit QueryService(const BlasCollection* collection,
                        const ServiceOptions& options = {});
  /// Serves queries against a live (continuously-ingesting) collection
  /// owned by the caller, which must outlive the service. Every query
  /// pins the epoch current at its open and drains it to the end
  /// regardless of concurrent publishes; the admin Submit*Document methods
  /// below feed the same worker pool. The service installs itself as the
  /// collection's change listener (per-document plan invalidation) — don't
  /// overwrite it while the service is alive.
  explicit QueryService(LiveCollection* live,
                        const ServiceOptions& options = {});
  /// Builds a document from XML text and serves it, owning it.
  static Result<std::unique_ptr<QueryService>> FromXml(
      std::string_view xml, const BlasOptions& blas_options = {},
      const ServiceOptions& options = {});

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Per-match delivery callback of the streaming Submit. Return false to
  /// cancel the stream: the merge cancels still-queued documents and a
  /// bounded request's producers abandon their remaining scans.
  using CollectionMatchCallback = std::function<bool(const CollectionMatch&)>;
  /// The same without the owning document's name.
  using MatchCallback = std::function<bool(const Match&)>;

  /// Enqueues one query; blocks only when the submission queue is full.
  /// A worker runs the merge while other documents' producers scatter
  /// across the same pool. After Shutdown the returned future holds a
  /// kUnsupported error.
  std::future<Result<BlasCollection::CollectionResult>> Submit(
      QueryRequest request);

  /// Streaming form: matches arrive in (document name, document order)
  /// through `on_match` on a worker thread, which must be
  /// thread-compatible with the caller; the future completes with the
  /// final measurements.
  std::future<Result<StreamSummary>> SubmitCollection(
      QueryRequest request, CollectionMatchCallback on_match);

  /// SubmitCollection for callers that ignore the document name.
  std::future<Result<StreamSummary>> Submit(QueryRequest request,
                                            MatchCallback on_match);

  /// Runs one query on the calling thread (same plan cache and stats; the
  /// merge runs here, other documents still scatter onto the pool).
  Result<BlasCollection::CollectionResult> Execute(const QueryRequest& request);

  /// Opens a cursor on the calling thread; the caller pulls the merged
  /// stream. The cursor borrows the service's pool and must not outlive
  /// the service.
  Result<CollectionCursor> OpenCursor(const QueryRequest& request);

  // --------------------------------------------------- admin (live) ---
  // Document mutations on a live-collection service. Each runs the full
  // ingestion pipeline (parse -> label -> paged snapshot -> durable
  // publish) on a worker thread and settles the future with the publish
  // outcome. On a non-live service the future holds InvalidArgument.

  std::future<Status> SubmitAddDocument(std::string name, std::string xml);
  std::future<Status> SubmitReplaceDocument(std::string name,
                                            std::string xml);
  std::future<Status> SubmitRemoveDocument(std::string name);
  /// Publishes the whole batch as one epoch (one manifest record).
  std::future<Status> SubmitIngestBatch(std::vector<IngestQueue::DocOp> ops);
  /// Blocks until every admin submission so far has published or failed.
  void DrainIngest();

  /// Stops accepting work, drains queued queries, joins the workers.
  void Shutdown();

  ServiceStats stats() const;

  // ---------------------------------------------------- observability ---

  /// Machine-readable status page: one JSON object with this service's
  /// metric registry ("metrics" — the `blas_service_*` counters and the
  /// query/stage latency histograms with percentiles) and the
  /// process-wide registry ("process" — storage + ingest metrics).
  std::string Statsz() const;

  /// Prometheus text exposition (format 0.0.4) of the same two registries.
  std::string StatszPrometheus() const;

  /// Cumulative snapshot of the same two registries, merged, for the
  /// windowed layer (obs/snapshot.h). This is the capture callback a
  /// MetricsSnapshotter should ring — two of these subtract into an exact
  /// per-window view.
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// This service's metric registry: every ServiceStats counter, the
  /// plan cache's and (live backing) the collection's figures, and the
  /// query/stage latency histograms. Stable pointers; safe to read
  /// concurrently.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Recently finished traces, oldest first (sampled via
  /// ServiceOptions::trace_sample_every or requested via
  /// QueryOptions::trace).
  std::vector<std::shared_ptr<const obs::Trace>> recent_traces() const {
    return trace_ring_.Recent();
  }
  const obs::TraceRing& trace_ring() const { return trace_ring_; }
  const obs::SlowQueryLog& slow_query_log() const { return slow_query_log_; }

  const PlanCache& plan_cache() const { return plan_cache_; }
  size_t worker_threads() const { return pool_.thread_count(); }

 private:
  /// Everything but a live backing; every public constructor delegates
  /// here.
  QueryService(const ServiceOptions& options,
               std::shared_ptr<const CollectionState> static_state);

  /// Plan-cache lookup and, on a miss, the parse stage; a cacheable miss
  /// inserts the new entry. With a non-null `trace` both record a span.
  Result<std::shared_ptr<const CachedQuery>> LookupQuery(
      const QueryRequest& request, obs::TraceContext* trace);
  /// Front half of every query: LookupQuery, then a merge cursor over the
  /// pinned state. Its per-document opener is the one per-document open:
  /// the document's plan slot at its epoch (counted in doc_plan_hits /
  /// misses); on a miss translate, optimize, choose the engine and analyze
  /// streamability, publishing the result into the slot; then OpenPlan.
  /// A live service pins the epoch current now; `epoch_at_open`
  /// (optional) receives it. `trace` is shared because the per-document
  /// opener reports spans from scatter workers that may outlive this
  /// call's frame.
  Result<CollectionCursor> MakeCursor(
      const QueryRequest& request, uint64_t* epoch_at_open = nullptr,
      std::shared_ptr<obs::TraceContext> trace = nullptr);
  /// The one query body: opens the cursor, pushes every match into
  /// `on_match` and completes the query. `since` started at submission;
  /// `offset_skipped` (optional) receives the matches the offset consumed.
  Result<StreamSummary> Stream(const QueryRequest& request,
                               const CollectionMatchCallback& on_match,
                               const Stopwatch& since,
                               uint64_t* offset_skipped = nullptr);
  /// Stream into a materialized result.
  Result<BlasCollection::CollectionResult> Run(const QueryRequest& request,
                                               const Stopwatch& since);
  void RollUp(const ExecStats& stats);

  /// Registers this service's metrics (counters, latency histograms,
  /// plan-cache callbacks) and caches the hot pointers.
  void InitMetrics();
  /// A new trace context when this query is traced (explicit
  /// QueryOptions::trace or every-Nth sampling); null otherwise.
  std::shared_ptr<obs::TraceContext> MaybeStartTrace(
      const QueryRequest& request);
  /// Completion accounting of every non-cancelled query: counts it, rolls
  /// up its ExecStats, offset skips and scatter accounting, records the
  /// latency histogram, seals + rings the trace (when any), feeds the
  /// slow-query log and notes churn overlap (the live epoch moved past
  /// `epoch_at_open`).
  void Complete(const QueryRequest& request, double millis,
                const ExecStats& stats, const CollectionCursor& cursor,
                obs::TraceContext* trace, uint64_t epoch_at_open);

  /// Enqueues `work`, handing it a stopwatch started at submission (the
  /// latency clock), and records the queue wait when a worker picks it up.
  template <typename T>
  std::future<Result<T>> SubmitTask(
      std::function<Result<T>(const Stopwatch& since)> work);

  // The backing: exactly one of static_state_ (a document or a static
  // collection) and live_ is set.
  std::shared_ptr<const CollectionState> static_state_;
  LiveCollection* live_ = nullptr;
  PlanCache plan_cache_;
  /// Declared before pool_: the pool's shutdown (which runs queued
  /// ingest tasks) must happen while the queue still exists.
  std::unique_ptr<IngestQueue> ingest_;
  ThreadPool pool_;

  // Observability state. The registry member keeps metric pointers stable
  // for the service's lifetime; InitMetrics caches the hot ones below.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_ring_;
  obs::SlowQueryLog slow_query_log_;
  const size_t trace_sample_every_;
  std::atomic<uint64_t> trace_ticker_{0};
  obs::Histogram* query_latency_ns_ = nullptr;
  obs::Histogram* queue_wait_ns_ = nullptr;
  obs::Histogram* stage_parse_ns_ = nullptr;
  obs::Histogram* stage_translate_ns_ = nullptr;
  obs::Histogram* stage_optimize_ns_ = nullptr;
  obs::Histogram* stage_execute_ns_ = nullptr;

  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* cursors_opened_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* doc_plan_hits_ = nullptr;
  obs::Counter* doc_plan_misses_ = nullptr;
  obs::Counter* churn_queries_ = nullptr;
  obs::Counter* docs_executed_ = nullptr;
  obs::Counter* docs_cancelled_ = nullptr;
  obs::Counter* elements_ = nullptr;
  obs::Counter* page_fetches_ = nullptr;
  obs::Counter* page_misses_ = nullptr;
  obs::Counter* io_reads_ = nullptr;
  obs::Counter* d_joins_ = nullptr;
  obs::Counter* intermediate_rows_ = nullptr;
  obs::Counter* output_rows_ = nullptr;
  obs::Counter* offset_skipped_ = nullptr;
};

}  // namespace blas

#endif  // BLAS_SERVICE_QUERY_SERVICE_H_
