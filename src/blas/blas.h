#ifndef BLAS_BLAS_BLAS_H_
#define BLAS_BLAS_BLAS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "blas/cursor.h"
#include "blas/query_options.h"
#include "common/result.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "labeling/plabel.h"
#include "labeling/tag_registry.h"
#include "schema/path_summary.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"
#include "translate/decomposition.h"
#include "twig/twig.h"
#include "xml/dom.h"
#include "xml/sax.h"
#include "xpath/ast.h"

namespace blas {

class CostModel;

/// Cost-based engine selection for Engine::kAuto. The relational engine
/// materializes every intermediate D-join result; the twig engine reads
/// each part stream exactly once with O(streams * depth) extra memory.
/// Single-part plans go relational (no join work to save); deep plans or
/// plans whose input streams dwarf the estimated return cardinality go to
/// the twig engine. Deterministic: same plan, same summary, same answer.
Engine ChooseEngine(const ExecPlan& plan, const CostModel& model);

/// Construction options for BlasSystem.
struct BlasOptions {
  /// LRU frames of the shared buffer pool.
  size_t cache_pages = 4096;
  /// Latch shards of the buffer pool's LRU. 0 = auto (scales with
  /// cache_pages, up to 16 — the concurrent-service default); 1 = one
  /// global LRU with the exact miss accounting of the paper's
  /// single-threaded cold-cache experiments.
  size_t cache_shards = 0;
  /// Retain the DOM (needed for NaiveEval ground truth and for examples
  /// that print matched content). Costs memory proportional to the input.
  bool keep_dom = false;
};

/// \brief The BLAS system facade (figure 6): index generator + query
/// translator + query engines over one XML document.
///
/// Typical use:
/// \code
///   auto sys = BlasSystem::FromXml(xml);
///   auto cursor = sys->Open("/site/regions//item/description",
///                           {.limit = 10, .projection = Projection::kValue});
///   while (auto match = cursor->Next()) { use(match->content); }
/// \endcode
class BlasSystem {
 public:
  /// Indexes an XML document from text (two SAX passes: tag/depth
  /// collection, then labeling).
  static Result<BlasSystem> FromXml(std::string_view xml,
                                    const BlasOptions& options = {});

  /// Indexes a document produced by an event source. `emit` is invoked
  /// twice with different handlers and must replay identical events (the
  /// synthetic generators are deterministic).
  static Result<BlasSystem> FromEvents(
      const std::function<void(SaxHandler*)>& emit,
      const BlasOptions& options = {});

  /// Reopens a system fully in memory from a BLASIDX2 snapshot written by
  /// SavePagedIndex (every page materialized, no paging). No XML re-parse
  /// happens: the store, codec, dictionary and path summary are rebuilt
  /// from the persisted records, each range-checked (level, tag, data
  /// id) against the file's own header. The DOM is not available.
  static Result<BlasSystem> FromIndexFile(const std::string& path,
                                          const BlasOptions& options = {});

  /// Opens a BLASIDX2 snapshot written by SavePagedIndex as a
  /// demand-paged system: O(1) in document size (header + schema-sized
  /// segments only), with index pages — and dictionary values — read
  /// from disk as queries touch them, resident frames bounded by
  /// `storage.memory_budget` (or the shared budget). The DOM is not
  /// available; results are byte-identical to the in-memory system's.
  static Result<BlasSystem> OpenPaged(const std::string& path,
                                      const StorageOptions& storage = {});

  /// Persists the index (records, tags, dictionary, path summary) in the
  /// page-aligned BLASIDX2 format, which OpenPaged serves without
  /// materializing it and FromIndexFile loads whole.
  Status SavePagedIndex(const std::string& path) const;

  BlasSystem(BlasSystem&&) = default;
  BlasSystem& operator=(BlasSystem&&) = default;

  /// Opens a pull-based cursor over the query's answers: parse, translate
  /// and (for bounded cursors) start the incremental producers. All knobs
  /// — translator, engine, join-order optimization, limit/offset,
  /// projection — come in through QueryOptions. The system must outlive
  /// the cursor.
  Result<ResultCursor> Open(std::string_view xpath,
                            const QueryOptions& options = {}) const;
  Result<ResultCursor> Open(const Query& query,
                            const QueryOptions& options = {}) const;

  /// Opens a cursor over an already-translated plan (no parse / translate
  /// / optimize) — the query service's plan-cache-hit path. The plan is
  /// kept alive through the shared_ptr; Engine::kAuto is resolved via
  /// ChooseEngine. Pass a cached AnalyzeStreamability result to skip the
  /// per-open streamability analysis.
  Result<ResultCursor> OpenPlan(std::shared_ptr<const ExecPlan> plan,
                                Engine engine,
                                const QueryOptions& options = {},
                                const StreamPlanInfo* stream_info =
                                    nullptr) const;

  /// Precomputes the bounded-cursor streaming-gate inputs for a plan
  /// (cacheable alongside the plan; see StreamPlanInfo).
  StreamPlanInfo AnalyzeStreamability(const ExecPlan& plan) const;

  /// One-shot execution: Open + Drain.
  Result<QueryResult> Execute(std::string_view xpath,
                              const QueryOptions& options) const;
  Result<QueryResult> Execute(const Query& query,
                              const QueryOptions& options) const;

  /// Runs an already-translated plan to completion. Engine::kAuto is
  /// resolved via ChooseEngine.
  Result<QueryResult> ExecutePlan(const ExecPlan& plan, Engine engine) const;

  /// Translation only (no execution).
  Result<ExecPlan> Plan(std::string_view xpath, Translator translator) const;
  Result<ExecPlan> Plan(const Query& query, Translator translator) const;

  /// SQL / relational algebra text of the translated plan (figure 11).
  Result<std::string> ExplainSql(std::string_view xpath,
                                 Translator translator) const;
  Result<std::string> ExplainAlgebra(std::string_view xpath,
                                     Translator translator) const;

  /// Document characteristics (figure 12).
  struct DocStats {
    size_t nodes = 0;        // element + attribute nodes
    size_t tags = 0;         // distinct tags
    int depth = 0;           // longest simple path
    size_t distinct_paths = 0;
    size_t pages = 0;        // storage pages across all trees
    size_t distinct_values = 0;
  };
  DocStats doc_stats() const;

  const TagRegistry& tags() const { return *tags_; }
  const PLabelCodec& codec() const { return *codec_; }
  const PathSummary& summary() const { return *summary_; }
  const NodeStore& store() const { return *store_; }
  const StringDict& dict() const { return *dict_; }
  /// Non-null only with BlasOptions::keep_dom.
  const DomTree* dom() const { return dom_.get(); }

  /// Resets storage counters and drops the page cache (cold-cache runs).
  void ResetCounters();

 private:
  BlasSystem() = default;

  TranslateContext translate_context() const;
  ResultCursor::Env cursor_env() const;

  std::unique_ptr<TagRegistry> tags_;
  std::unique_ptr<PLabelCodec> codec_;
  std::unique_ptr<PathSummary> summary_;
  std::unique_ptr<StringDict> dict_;
  std::unique_ptr<NodeStore> store_;
  std::unique_ptr<DomTree> dom_;
  size_t node_count_ = 0;
  int max_depth_ = 0;
};

}  // namespace blas

#endif  // BLAS_BLAS_BLAS_H_
