#include "service/query_service.h"

#include <utility>

#include "exec/optimizer.h"
#include "obs/snapshot.h"
#include "service/normalize.h"
#include "xpath/parser.h"

namespace blas {

namespace {

/// A collection state that never publishes (epoch 0 for every document).
std::shared_ptr<const CollectionState> StaticState(BlasCollection collection) {
  auto state = std::make_shared<CollectionState>();
  state->collection = std::move(collection);
  return state;
}

/// A single document as the one member, named "", of a static collection.
std::shared_ptr<const CollectionState> OneMember(
    std::shared_ptr<const BlasSystem> system) {
  BlasCollection collection;
  collection.PutSystem("", std::move(system));
  return StaticState(std::move(collection));
}

}  // namespace

QueryService::QueryService(const ServiceOptions& options,
                           std::shared_ptr<const CollectionState> static_state)
    : static_state_(std::move(static_state)),
      plan_cache_(options.plan_cache_capacity),
      pool_(options.worker_threads, options.queue_capacity),
      trace_ring_(options.trace_ring_capacity),
      slow_query_log_(options.slow_query_millis,
                      options.slow_query_log_capacity),
      trace_sample_every_(options.trace_sample_every) {
  InitMetrics();
}

QueryService::QueryService(const BlasSystem* system,
                           const ServiceOptions& options)
    : QueryService(options,
                   // Borrowed: the caller keeps the document alive.
                   OneMember(std::shared_ptr<const BlasSystem>(
                       system, [](const BlasSystem*) {}))) {}

QueryService::QueryService(const BlasCollection* collection,
                           const ServiceOptions& options)
    // Shallow copy: shares the member documents.
    : QueryService(options, StaticState(*collection)) {}

QueryService::QueryService(LiveCollection* live, const ServiceOptions& options)
    : QueryService(options, nullptr) {
  live_ = live;
  // The collection's own figures, exported under the service's names.
  metrics_.RegisterCallbackCounter(
      "blas_service_docs_ingested", "Documents published by add/replace",
      [live] { return live->stats().docs_ingested; });
  metrics_.RegisterCallbackCounter(
      "blas_service_docs_removed", "Documents removed",
      [live] { return live->stats().docs_removed; });
  metrics_.RegisterCallbackCounter(
      "blas_service_epochs_published", "Epochs published",
      [live] { return live->stats().epochs_published; });
  // A gauge: a checkpoint compacts the manifest, so the size falls.
  metrics_.RegisterCallbackGauge(
      "blas_service_manifest_bytes", "Durable manifest size in bytes",
      [live] { return static_cast<int64_t>(live->stats().manifest_bytes); });
  ingest_ = std::make_unique<IngestQueue>(live_, &pool_);
  // Epoch tags already make stale per-document plans unservable; the
  // listener reclaims their memory eagerly and keeps the cache honest.
  live_->SetChangeListener(
      [this](const std::string& name, ManifestOp::Kind kind, uint64_t) {
        if (kind != ManifestOp::Kind::kAdd) {
          plan_cache_.InvalidateDocument(name);
        }
      });
}

Result<std::unique_ptr<QueryService>> QueryService::FromXml(
    std::string_view xml, const BlasOptions& blas_options,
    const ServiceOptions& options) {
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys, BlasSystem::FromXml(xml, blas_options));
  return std::unique_ptr<QueryService>(new QueryService(
      options, OneMember(std::make_shared<const BlasSystem>(std::move(sys)))));
}

QueryService::~QueryService() {
  Shutdown();
  // The listener captures `this`; the collection outlives the service.
  if (live_ != nullptr) live_->SetChangeListener(nullptr);
}

void QueryService::Shutdown() { pool_.Shutdown(); }

void QueryService::InitMetrics() {
  query_latency_ns_ = metrics_.GetHistogram(
      "blas_query_latency_ns",
      "Wall time of completed queries, from submission to the last match");
  queue_wait_ns_ = metrics_.GetHistogram(
      "blas_queue_wait_ns",
      "Time from submission to a worker starting the query");
  stage_parse_ns_ =
      metrics_.GetHistogram("blas_stage_parse_ns", "XPath parse stage");
  stage_translate_ns_ = metrics_.GetHistogram(
      "blas_stage_translate_ns", "Query-to-plan translation stage");
  stage_optimize_ns_ = metrics_.GetHistogram(
      "blas_stage_optimize_ns",
      "Join-order optimization, engine choice and streamability analysis");
  stage_execute_ns_ = metrics_.GetHistogram(
      "blas_stage_execute_ns",
      "Cursor open (engine execution / streaming prefix)");
  auto counter = [this](const char* name, const char* help) {
    return metrics_.GetCounter(std::string("blas_service_") + name, help);
  };
  submitted_ = counter("submitted", "Queries and cursors submitted");
  completed_ = counter("completed", "Queries run to completion");
  failed_ = counter("failed", "Parse, translate and execute errors");
  rejected_ = counter("rejected", "Submissions refused after Shutdown");
  cursors_opened_ = counter("cursors_opened", "Cursors handed out");
  cancelled_ = counter("cancelled", "Streams cancelled by their callback");
  doc_plan_hits_ = counter("doc_plan_hits", "Per-document plan slot hits");
  doc_plan_misses_ =
      counter("doc_plan_misses", "Per-document plan slot misses");
  churn_queries_ = counter("queries_served_during_churn",
                           "Completed queries that overlapped a publish");
  docs_executed_ = counter("docs_executed", "Documents a query's cursor ran");
  docs_cancelled_ =
      counter("docs_cancelled", "Documents cancelled while still queued");
  elements_ = counter("exec_elements", "Elements visited");
  page_fetches_ = counter("exec_page_fetches", "Page accesses");
  page_misses_ = counter("exec_page_misses", "Page accesses that missed");
  io_reads_ = counter("exec_io_reads", "Disk reads");
  d_joins_ = counter("exec_d_joins", "D-joins executed");
  intermediate_rows_ =
      counter("exec_intermediate_rows", "Rows between operators");
  output_rows_ = counter("exec_output_rows", "Rows the engines returned");
  offset_skipped_ =
      counter("exec_offset_skipped", "Matches consumed by offset");
  metrics_.RegisterCallbackCounter("blas_service_plan_cache_hits",
                                   "Plan-cache hits",
                                   [this] { return plan_cache_.stats().hits; });
  metrics_.RegisterCallbackCounter(
      "blas_service_plan_cache_misses", "Plan-cache misses",
      [this] { return plan_cache_.stats().misses; });
  metrics_.RegisterCallbackCounter(
      "blas_service_plan_cache_evictions", "Plan-cache evictions",
      [this] { return plan_cache_.stats().evictions; });
}

std::shared_ptr<obs::TraceContext> QueryService::MaybeStartTrace(
    const QueryRequest& request) {
  bool traced = request.options.trace;
  if (!traced && trace_sample_every_ > 0) {
    traced = trace_ticker_.fetch_add(1, std::memory_order_relaxed) %
                 trace_sample_every_ ==
             0;
  }
  if (!traced) return nullptr;
  return std::make_shared<obs::TraceContext>(NormalizeXPath(request.xpath));
}

void QueryService::Complete(const QueryRequest& request, double millis,
                            const ExecStats& stats,
                            const CollectionCursor& cursor,
                            obs::TraceContext* trace,
                            uint64_t epoch_at_open) {
  completed_->Increment();
  RollUp(stats);
  offset_skipped_->Add(cursor.offset_skipped());
  CollectionCursor::ScatterStats scatter = cursor.scatter_stats();
  docs_executed_->Add(scatter.docs_executed);
  docs_cancelled_->Add(scatter.docs_cancelled);
  // A live query that overlapped a publish: the epoch it pinned was
  // superseded by the time it drained.
  if (live_ != nullptr && live_->epoch() != epoch_at_open) {
    churn_queries_->Increment();
  }
  query_latency_ns_->Record(static_cast<uint64_t>(millis * 1e6));
  std::shared_ptr<const obs::Trace> sealed;
  if (trace != nullptr) {
    sealed = trace->Finish();
    trace_ring_.Push(sealed);
  }
  if (slow_query_log_.enabled() &&
      millis >= slow_query_log_.threshold_millis()) {
    obs::SlowQueryEntry entry;
    entry.query = NormalizeXPath(request.xpath);
    entry.translator = TranslatorName(request.options.translator);
    entry.engine = EngineName(request.options.engine);
    entry.millis = millis;
    entry.elements = stats.elements;
    entry.page_fetches = stats.page_fetches;
    entry.page_misses = stats.page_misses;
    entry.io_reads = stats.io_reads;
    entry.output_rows = cursor.delivered();
    entry.trace = std::move(sealed);
    slow_query_log_.MaybeRecord(std::move(entry));
  }
}

template <typename T>
std::future<Result<T>> QueryService::SubmitTask(
    std::function<Result<T>(const Stopwatch& since)> work) {
  submitted_->Increment();
  // Started before the (possibly blocking) enqueue: latency includes
  // backpressure and queue wait.
  Stopwatch since;
  auto task = std::make_shared<std::packaged_task<Result<T>()>>(
      [this, since, work = std::move(work)] {
        queue_wait_ns_->Record(since.ElapsedNanos());
        return work(since);
      });
  std::future<Result<T>> future = task->get_future();
  if (!pool_.Submit([task] { (*task)(); })) {
    rejected_->Increment();
    std::promise<Result<T>> refused;
    refused.set_value(Status::Unsupported("service is shut down"));
    return refused.get_future();
  }
  return future;
}

std::future<Result<BlasCollection::CollectionResult>> QueryService::Submit(
    QueryRequest request) {
  return SubmitTask<BlasCollection::CollectionResult>(
      [this, request = std::move(request)](const Stopwatch& since) {
        return Run(request, since);
      });
}

std::future<Result<StreamSummary>> QueryService::SubmitCollection(
    QueryRequest request, CollectionMatchCallback on_match) {
  return SubmitTask<StreamSummary>(
      [this, request = std::move(request),
       on_match = std::move(on_match)](const Stopwatch& since) {
        return Stream(request, on_match, since);
      });
}

std::future<Result<StreamSummary>> QueryService::Submit(
    QueryRequest request, MatchCallback on_match) {
  return SubmitCollection(
      std::move(request),
      [on_match = std::move(on_match)](const CollectionMatch& m) {
        return on_match(m.match);
      });
}

Result<BlasCollection::CollectionResult> QueryService::Execute(
    const QueryRequest& request) {
  submitted_->Increment();
  return Run(request, Stopwatch());
}

Result<CollectionCursor> QueryService::OpenCursor(const QueryRequest& request) {
  submitted_->Increment();
  Result<CollectionCursor> cursor = MakeCursor(request);
  // The cursor escapes the service and executes on the client's thread,
  // so it is tallied as an opened cursor, not a completed query, and its
  // ExecStats stay out of the exec roll-up.
  (cursor.ok() ? cursors_opened_ : failed_)->Increment();
  return cursor;
}

Result<std::shared_ptr<const CachedQuery>> QueryService::LookupQuery(
    const QueryRequest& request, obs::TraceContext* trace) {
  const QueryOptions& options = request.options;
  const bool use_cache =
      !request.bypass_plan_cache && plan_cache_.capacity() > 0;
  std::shared_ptr<const CachedQuery> entry;
  std::string key;
  if (use_cache) {
    key = PlanCacheKey(request.xpath, options.translator,
                       options.exec.optimize_join_order);
    obs::SpanTimer span(trace, "plan_cache");
    entry = plan_cache_.Get(key);
    if (trace != nullptr) span.set_note(entry != nullptr ? "hit" : "miss");
    if (entry != nullptr) return entry;
  }
  obs::SpanTimer span(trace, "parse");
  Stopwatch timer;
  Result<Query> parsed = ParseXPath(request.xpath);
  stage_parse_ns_->Record(timer.ElapsedNanos());
  if (!parsed.ok()) return std::move(parsed).status();
  entry = std::make_shared<const CachedQuery>(std::move(parsed).value());
  if (use_cache) plan_cache_.Put(key, entry);
  return entry;
}

Result<CollectionCursor> QueryService::MakeCursor(
    const QueryRequest& request, uint64_t* epoch_at_open,
    std::shared_ptr<obs::TraceContext> trace) {
  // A live service pins the epoch current right now; the cursor drains
  // exactly this generation no matter what publishes meanwhile (each
  // per-document producer holds its document via shared_ptr).
  std::shared_ptr<const CollectionState> state =
      live_ != nullptr ? live_->Snapshot() : static_state_;
  if (epoch_at_open != nullptr) *epoch_at_open = state->epoch;
  BLAS_ASSIGN_OR_RETURN(std::shared_ptr<const CachedQuery> entry,
                        LookupQuery(request, trace.get()));

  // Per-document opener, run on the merge thread or a scatter worker.
  // Plans are tagged with the document's last-changed epoch, so a
  // replaced document can never serve its predecessor's plan (static
  // collections tag everything 0).
  BlasCollection::DocCursorOpener opener =
      [this, entry, state, trace](
          const std::string& name, const BlasSystem& sys,
          const QueryOptions& options) -> Result<ResultCursor> {
    // Install the trace context so this document's page reads attribute
    // to the query, and nest its open stages under one span named for the
    // document.
    obs::TraceContext* ctx = trace.get();
    obs::TraceContext::Scope trace_scope(ctx);
    obs::SpanTimer doc_span(ctx, "open_doc");
    if (ctx != nullptr) doc_span.set_note(name);
    auto it = state->doc_epochs.find(name);
    const uint64_t epoch = it != state->doc_epochs.end() ? it->second : 0;
    std::shared_ptr<const CachedPlan> plan = entry->ForDoc(name, epoch);
    (plan != nullptr ? doc_plan_hits_ : doc_plan_misses_)->Increment();
    if (plan == nullptr) {
      CachedPlan fresh;
      {
        obs::SpanTimer span(ctx, "translate");
        if (ctx != nullptr) span.set_note(TranslatorName(options.translator));
        Stopwatch timer;
        Result<ExecPlan> planned = sys.Plan(entry->query(), options.translator);
        stage_translate_ns_->Record(timer.ElapsedNanos());
        if (!planned.ok()) return std::move(planned).status();
        fresh.plan = std::move(planned).value();
      }
      {
        obs::SpanTimer span(ctx, "optimize");
        Stopwatch timer;
        CostModel model(&sys.summary(), &sys.dict());
        if (options.exec.optimize_join_order) {
          fresh.plan = OptimizeJoinOrder(fresh.plan, model);
        }
        fresh.auto_engine = ChooseEngine(fresh.plan, model);
        fresh.stream_info = sys.AnalyzeStreamability(fresh.plan);
        stage_optimize_ns_->Record(timer.ElapsedNanos());
      }
      plan = std::make_shared<const CachedPlan>(std::move(fresh));
      entry->PutDoc(name, epoch, plan);
    }

    Engine engine =
        options.engine == Engine::kAuto ? plan->auto_engine : options.engine;
    // Alias the cached plan so it outlives any eviction while this cursor
    // is still streaming.
    std::shared_ptr<const ExecPlan> shared_plan(plan, &plan->plan);
    obs::SpanTimer span(ctx, "execute");
    if (ctx != nullptr) span.set_note(EngineName(engine));
    Stopwatch timer;
    Result<ResultCursor> cursor = sys.OpenPlan(std::move(shared_plan), engine,
                                               options, &plan->stream_info);
    stage_execute_ns_->Record(timer.ElapsedNanos());
    if (ctx != nullptr && cursor.ok()) {
      // Open runs the engine (or the streaming prefix); attribute the
      // counters it accumulated to this stage.
      const ExecStats& s = cursor->stats();
      span.set_counters(s.elements, s.page_fetches, s.page_misses,
                        s.io_reads);
    }
    return cursor;
  };

  obs::SpanTimer span(trace.get(), "open_scatter");
  return state->collection.OpenCursor(std::move(opener), request.options,
                                      {.pool = &pool_});
}

Result<StreamSummary> QueryService::Stream(
    const QueryRequest& request, const CollectionMatchCallback& on_match,
    const Stopwatch& since, uint64_t* offset_skipped) {
  std::shared_ptr<obs::TraceContext> trace = MaybeStartTrace(request);
  obs::TraceContext::Scope scope(trace.get());
  uint64_t epoch_at_open = 0;
  Result<CollectionCursor> cursor =
      MakeCursor(request, &epoch_at_open, trace);
  if (!cursor.ok()) {
    failed_->Increment();
    return std::move(cursor).status();
  }
  StreamSummary summary;
  {
    obs::SpanTimer span(trace.get(), "merge");
    while (std::optional<CollectionMatch> match = cursor->Next()) {
      ++summary.delivered;
      if (!on_match(*match)) {
        summary.cancelled = true;
        break;
      }
    }
    if (!cursor->status().ok()) {
      failed_->Increment();
      return cursor->status();
    }
    summary.stats = cursor->SettledStats();
    if (trace != nullptr) {
      span.set_counters(summary.stats.elements, summary.stats.page_fetches,
                        summary.stats.page_misses, summary.stats.io_reads);
    }
  }
  summary.millis = since.ElapsedMillis();
  if (offset_skipped != nullptr) *offset_skipped = cursor->offset_skipped();
  if (summary.cancelled) {
    // An abandoned stream's truncated stats would skew the
    // per-completed-query roll-up.
    cancelled_->Increment();
  } else {
    Complete(request, summary.millis, summary.stats, *cursor, trace.get(),
             epoch_at_open);
  }
  return summary;
}

Result<BlasCollection::CollectionResult> QueryService::Run(
    const QueryRequest& request, const Stopwatch& since) {
  BlasCollection::CollectionResult result;
  const bool project = request.options.projection != Projection::kDLabel;
  Result<StreamSummary> summary = Stream(
      request,
      [&result, project](const CollectionMatch& m) {
        result.Add(m, project);
        return true;
      },
      since, &result.offset_skipped);
  if (!summary.ok()) return std::move(summary).status();
  result.stats = summary->stats;
  return result;
}

// ------------------------------------------------------- admin (live) ---

namespace {

std::future<Status> NotLive() {
  std::promise<Status> refused;
  refused.set_value(Status::InvalidArgument(
      "service does not front a live collection; use the LiveCollection "
      "constructor"));
  return refused.get_future();
}

}  // namespace

std::future<Status> QueryService::SubmitAddDocument(std::string name,
                                                    std::string xml) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitAdd(std::move(name), std::move(xml));
}

std::future<Status> QueryService::SubmitReplaceDocument(std::string name,
                                                        std::string xml) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitReplace(std::move(name), std::move(xml));
}

std::future<Status> QueryService::SubmitRemoveDocument(std::string name) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitRemove(std::move(name));
}

std::future<Status> QueryService::SubmitIngestBatch(
    std::vector<IngestQueue::DocOp> ops) {
  if (ingest_ == nullptr) return NotLive();
  return ingest_->SubmitBatch(std::move(ops));
}

void QueryService::DrainIngest() {
  if (ingest_ != nullptr) ingest_->Drain();
}

void QueryService::RollUp(const ExecStats& stats) {
  elements_->Add(stats.elements);
  page_fetches_->Add(stats.page_fetches);
  page_misses_->Add(stats.page_misses);
  io_reads_->Add(stats.io_reads);
  d_joins_->Add(stats.d_joins);
  intermediate_rows_->Add(stats.intermediate_rows);
  output_rows_->Add(stats.output_rows);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_->value();
  s.completed = completed_->value();
  s.failed = failed_->value();
  s.rejected = rejected_->value();
  s.cursors_opened = cursors_opened_->value();
  s.cancelled = cancelled_->value();
  PlanCache::Stats cache = plan_cache_.stats();
  s.plan_cache_hits = cache.hits;
  s.plan_cache_misses = cache.misses;
  s.plan_cache_evictions = cache.evictions;
  s.doc_plan_hits = doc_plan_hits_->value();
  s.doc_plan_misses = doc_plan_misses_->value();
  s.queries_served_during_churn = churn_queries_->value();
  s.docs_executed = docs_executed_->value();
  s.docs_cancelled = docs_cancelled_->value();
  s.exec.elements = elements_->value();
  s.exec.page_fetches = page_fetches_->value();
  s.exec.page_misses = page_misses_->value();
  s.exec.io_reads = io_reads_->value();
  s.exec.d_joins = d_joins_->value();
  s.exec.intermediate_rows = intermediate_rows_->value();
  s.exec.output_rows = output_rows_->value();
  s.exec.offset_skipped = offset_skipped_->value();
  return s;
}

std::string QueryService::Statsz() const {
  return "{\"metrics\":" + metrics_.DumpJson() +
         ",\"process\":" + obs::DefaultRegistry().DumpJson() + "}";
}

std::string QueryService::StatszPrometheus() const {
  return metrics_.DumpPrometheus() + obs::DefaultRegistry().DumpPrometheus();
}

obs::MetricsSnapshot QueryService::SnapshotMetrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.Merge(obs::DefaultRegistry().Snapshot());
  return snapshot;
}

}  // namespace blas
