#ifndef BLAS_BLAS_CURSOR_H_
#define BLAS_BLAS_CURSOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "blas/projection.h"
#include "blas/query_options.h"
#include "common/result.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

class PathSummary;

/// One fully materialized answer: result node start positions plus all
/// measurements (the one-shot Execute form; `ResultCursor::Drain` produces
/// it, and `matches` carries projected content when requested).
struct QueryResult {
  std::vector<uint32_t> starts;
  /// Filled only when the producing cursor's projection != kDLabel;
  /// parallel to `starts`.
  std::vector<Match> matches;
  ExecStats stats;
  ExecPlan::Shape shape;
  double millis = 0.0;
  /// Matches consumed by the cursor's `offset` before the first delivered
  /// one.
  uint64_t offset_skipped = 0;
};

/// Plan-derived inputs of a bounded cursor's producer choice. Computing
/// them walks the path summary and decodes P-labels, so the query service
/// caches this alongside the translated plan; only the offset+limit
/// arithmetic is per-request.
struct StreamPlanInfo {
  /// True when a bounded cursor reads the plan return-first: every part is
  /// a P-label part and no equality literal seeds the plan.
  bool return_first = false;
  /// Return-first: the return part's exact path count, which caps every
  /// batch, and the number of distinct paths (P-labels) it spans.
  uint64_t return_count = 0;
  uint64_t return_paths = 0;
  /// Return-first: the structural share of return-part records expected
  /// to match, the product over each branch part anchored on the return
  /// part's anchor chain of min(1, its path count / its anchor's). Each
  /// value part's exact share (CostModel::ValueCount) multiplies in when
  /// the cursor opens, not here: this is cached with the plan, and a
  /// count's page fetches belong to the query that reads them.
  double match_rate = 1.0;
  /// The one tag every alternative of the return part ends in, when there
  /// is one: a return-first batch may read its SD run instead of SP (no
  /// equality literal on the part), and the SD stream needs it (with the
  /// part a leaf of the part tree).
  std::optional<TagId> tag;
  /// SD stream: estimated cardinality of the return part's own access
  /// path.
  uint64_t cardinality = 0;
  /// Size of the tag's SD run (exact: no value predicate applies).
  uint64_t run_size = 0;
};

/// \brief Pull-based enumeration of one query's answers.
///
/// A cursor delivers matches in document order, one `Next()` at a time,
/// paying per answer delivered rather than per answer that exists:
///
///   * Unbounded cursors (`limit == 0`) run the full engine once and serve
///     from the materialized position list — `Drain()` is byte-identical
///     (results and stats) to a full engine run (`ExecutePlan`).
///   * Bounded cursors (`limit > 0`) stop early where the plan allows it,
///     by one of two producers:
///       - Return-first, for plans of P-label parts only that no equality
///         literal seeds: the return part's records are read in
///         document-order batches (NodeStore::FirstByStart), each batch
///         seeds a PartFetcher that finds its anchors by ancestor seeks,
///         and the resolved engine runs over that reduced plan. Every
///         match of a batch is one of its records and batches move
///         forward in start order, so each batch's matches are final and
///         already in document order. Batches grow until `offset + limit`
///         matches are found or the part runs out.
///       - The SD stream, for D-labeling plans and literal-seeded P-label
///         plans whose return part is a single-tag leaf, behind a cost
///         gate: the pattern minus the return part is evaluated first (the
///         relational executor's pipelined final D-join / the twig
///         engine's arc-consistency passes), then return candidates stream
///         from the tag-clustered SD index in document order, and all
///         scanning stops after `offset + limit` matches.
///     Other bounded cursors materialize like unbounded ones and truncate.
///
/// Projection (`QueryOptions::projection`) materializes per-match content
/// from the store and dictionary; no retained DOM is needed.
///
/// Thread-compatibility: a cursor may be handed between threads but must
/// be pulled by one thread at a time; the underlying system must outlive
/// it.
class ResultCursor {
 public:
  /// Everything a cursor borrows from the owning system: what the engines
  /// read plus the tag names projection renders. All pointers must outlive
  /// the cursor.
  struct Env : ExecEnv {
    const TagRegistry* tags = nullptr;
  };

  /// Opens a cursor over an already-translated plan. `engine` must be
  /// resolved (not kAuto). Execution errors (e.g. an empty plan) surface
  /// here; `Next` itself cannot fail. Pass a cached `stream_info` to skip
  /// the per-open streamability analysis (nullptr recomputes it).
  static Result<ResultCursor> Open(const Env& env,
                                   std::shared_ptr<const ExecPlan> plan,
                                   Engine engine, const QueryOptions& options,
                                   const StreamPlanInfo* stream_info = nullptr);

  /// Computes the streaming-gate inputs for a plan once (see
  /// StreamPlanInfo).
  static StreamPlanInfo AnalyzePlan(const ExecPlan& plan, const Env& env);

  ResultCursor(ResultCursor&&) = default;
  ResultCursor& operator=(ResultCursor&&) = default;

  /// The next match in document order, or nullopt once the cursor is
  /// exhausted (end of results, or `limit` matches delivered).
  std::optional<Match> Next();

  /// Delivers every remaining match as a QueryResult. With the default
  /// kDLabel projection this moves positions through without per-match
  /// record lookups.
  QueryResult Drain();

  bool exhausted() const { return exhausted_; }
  /// Matches delivered so far (after `offset`, counted toward `limit`).
  uint64_t delivered() const { return delivered_; }
  /// Matches consumed by `offset` so far (mirrors
  /// QueryResult::offset_skipped).
  uint64_t offset_skipped() const { return skipped_; }
  /// Execution counters accumulated so far; grows as the cursor advances.
  const ExecStats& stats() const { return stats_; }
  /// The resolved engine this cursor executes with.
  Engine engine() const { return engine_; }
  /// True when this bounded cursor stops early: it reads return-first
  /// batches or streams the SD run.
  bool streaming() const {
    return batches_.has_value() || stream_.has_value();
  }

 private:
  struct StreamState {
    explicit StreamState(NodeStore::TagScan scan_in)
        : scan(std::move(scan_in)) {}

    NodeStore::TagScan scan;
    /// Sweep over the anchor bindings matching the rest of the pattern.
    /// Unused when the plan has a single part.
    AnchorSweep sweep;
    bool need_anchor = false;
    JoinPred pred;
    PerAltDeltas per_alt;
    /// Residual filters of the return part's access path.
    const PlanPart* part = nullptr;
    std::optional<uint32_t> data_eq;
    bool value_residual = false;
  };

  /// Return-first mode: the return part read in start-ordered batches.
  struct BatchState {
    /// The return part's alternatives, sorted and merged.
    std::vector<PLabelRange> ranges;
    /// Its equality literal's id: batches then read the value tree.
    std::optional<uint32_t> data;
    /// The plan's sizes: path count, paths and SD tag of the return part.
    StreamPlanInfo info;
    /// Where the next batch starts, and how many records it reads.
    uint32_t next_lo = 0;
    uint64_t size = 0;
    /// Records read and matches found (offset included) so far: the
    /// observed match rate that sizes later batches.
    uint64_t read = 0;
    uint64_t matched = 0;
    /// The part has no records left past the last batch.
    bool done = false;
    /// The current batch's matches in start order, and the next to go.
    std::vector<NodeRecord> matches;
    size_t pos = 0;
  };

  ResultCursor(const Env& env, std::shared_ptr<const ExecPlan> plan,
               Engine engine, const QueryOptions& options);

  /// `offset + limit`, saturating.
  uint64_t Wanted() const;
  /// Sets up return-first batches, sized by the structural match rate
  /// times each value part's exact share; a value part no record passes
  /// ends the cursor here. Only the counts' descents read pages; the
  /// batches are read by Next.
  Status InitBatches(const StreamPlanInfo& info);
  /// Reads the next batch, runs the engine over it and sizes the next.
  void RunBatch();
  /// True when a batch of `n` records costs fewer pages from the return
  /// tag's SD run than from SP.
  bool TagRunCheaper(uint64_t n) const;
  /// The next `n` records of the return part from the tag's SD run.
  std::vector<NodeRecord> ReadTagRun(size_t n) const;

  /// Runs the setup phase (engine execution, the SD stream's prefix plus
  /// scan positioning, or the first batch's sizing). Called once from Open
  /// under a counter scope.
  Status Init();
  bool StreamCandidatePasses(const NodeRecord& rec);
  std::optional<NodeRecord> NextStreamMatch();

  Env env_;
  std::shared_ptr<const ExecPlan> plan_;
  Engine engine_ = Engine::kRelational;
  QueryOptions options_;
  ContentProjector projector_;
  std::optional<StreamPlanInfo> plan_info_;

  ExecStats stats_;
  ExecPlan::Shape shape_;
  double millis_ = 0.0;
  uint64_t delivered_ = 0;
  uint64_t skipped_ = 0;
  bool exhausted_ = false;

  /// Materialized mode: the full engine result (D-label bindings), served
  /// incrementally without further lookups.
  std::vector<DLabel> bindings_;
  size_t pos_ = 0;

  /// Return-first mode.
  std::optional<BatchState> batches_;

  /// SD streaming mode.
  std::optional<StreamState> stream_;
};

}  // namespace blas

#endif  // BLAS_BLAS_CURSOR_H_
