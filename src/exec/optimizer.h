#ifndef BLAS_EXEC_OPTIMIZER_H_
#define BLAS_EXEC_OPTIMIZER_H_

#include <cstdint>

#include "exec/plan.h"
#include "schema/path_summary.h"
#include "storage/string_dict.h"

namespace blas {

/// \brief Cardinality estimation from the path summary.
///
/// The path summary records the exact number of instances of every simple
/// path, so P-label selections have exact input-cardinality estimates;
/// tag scans sum the counts of all paths ending in the tag. An equality
/// value predicate applies a fixed reduction factor (kValueSelectivity) —
/// zero when the literal does not occur in the document at all.
class CostModel {
 public:
  CostModel(const PathSummary* summary, const StringDict* dict)
      : summary_(summary), dict_(dict) {}

  /// Estimated number of tuples the part's scan produces.
  uint64_t EstimateCardinality(const PlanPart& part) const;

  /// Exact number of records the part's access path covers before its
  /// value and level predicates.
  uint64_t PathCount(const PlanPart& part) const;

  /// Number of distinct document paths (P-labels) inside a P-label part's
  /// alternatives.
  uint64_t PathLabels(const PlanPart& part) const;

  static constexpr double kValueSelectivity = 0.05;

 private:
  const PathSummary* summary_;
  const StringDict* dict_;
};

/// \brief Join-order optimization.
///
/// Translators emit parts in decomposition order. Any topological order of
/// the part tree (anchors before children) is executable; joining the most
/// selective parts first shrinks the intermediate results the relational
/// engine materializes. This pass greedily picks, among parts whose anchor
/// is already placed, the one with the smallest estimated cardinality.
/// Part 0 (the unanchored root) always stays first; all join predicates
/// are preserved (anchor indices are remapped).
ExecPlan OptimizeJoinOrder(const ExecPlan& plan, const CostModel& model);

}  // namespace blas

#endif  // BLAS_EXEC_OPTIMIZER_H_
