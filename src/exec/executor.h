#ifndef BLAS_EXEC_EXECUTOR_H_
#define BLAS_EXEC_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "exec/plan.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

/// Per-query execution counters (the paper's evaluation metrics).
struct ExecStats {
  /// Elements fetched from storage ("visited elements", figures 14-18).
  uint64_t elements = 0;
  /// Logical page reads / simulated disk accesses.
  uint64_t page_fetches = 0;
  uint64_t page_misses = 0;
  /// Misses that performed a real disk read (demand-paged stores opened
  /// via BlasSystem::OpenPaged; 0 for in-memory stores).
  uint64_t io_reads = 0;
  /// Number of D-joins actually executed. Wide enough to aggregate over a
  /// service lifetime, not just one query.
  uint64_t d_joins = 0;
  /// Total tuples materialized in intermediate join results.
  uint64_t intermediate_rows = 0;
  /// Distinct return bindings produced.
  uint64_t output_rows = 0;

  ExecStats& operator+=(const ExecStats& o) {
    elements += o.elements;
    page_fetches += o.page_fetches;
    page_misses += o.page_misses;
    io_reads += o.io_reads;
    d_joins += o.d_joins;
    intermediate_rows += o.intermediate_rows;
    output_rows += o.output_rows;
    return *this;
  }
};

/// \brief The RDBMS-style query engine (section 5.2).
///
/// Evaluates a translated plan with index selections and structural merge
/// D-joins over the NodeStore relations, materializing intermediate result
/// tuples like a relational engine would.
class RelationalExecutor {
 public:
  RelationalExecutor(const NodeStore* store, const StringDict* dict)
      : store_(store), dict_(dict) {}

  /// Returns the distinct, sorted start positions of the return part.
  Result<std::vector<uint32_t>> Execute(const ExecPlan& plan,
                                        ExecStats* stats) const;

  /// Same execution, but returns the return part's full D-label bindings
  /// (distinct by start, sorted) — cursors enumerate these without
  /// per-match point lookups.
  Result<std::vector<DLabel>> ExecuteBindings(const ExecPlan& plan,
                                              ExecStats* stats) const;

  /// \brief The prefix of a pipelined execution: evaluates the plan with
  /// part `skip` (a leaf of the part tree) left out and returns the
  /// distinct D-label bindings of `skip`'s anchor part that participate in
  /// a match of the remaining pattern, sorted by start.
  ///
  /// The final D-join (anchor contains `skip`-part element) is then
  /// streamed by the caller against these bindings — the cursor's limit-k
  /// early-termination path. Requires plan.parts.size() >= 2, skip >= 1,
  /// and that no other part anchors into `skip`.
  Result<std::vector<DLabel>> MatchedAnchors(const ExecPlan& plan,
                                             size_t skip,
                                             ExecStats* stats) const;

 private:
  const NodeStore* store_;
  const StringDict* dict_;
};

/// Fetches one plan part's tuples from storage, sorted by start. Shared by
/// both engines; counts storage accesses in the store's counters. A
/// P-label part reads only records inside `windows` (sorted, disjoint; see
/// OutermostWindows); D-labeling tag and wildcard parts ignore them and
/// scan their whole SD run.
std::vector<NodeRecord> FetchPartTuples(
    const PlanPart& part, const NodeStore& store, const StringDict& dict,
    std::span<const StartWindow> windows = kWholeDocument);

}  // namespace blas

#endif  // BLAS_EXEC_EXECUTOR_H_
