#ifndef BLAS_EXEC_OPTIMIZER_H_
#define BLAS_EXEC_OPTIMIZER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/plan.h"
#include "schema/path_summary.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

/// \brief Cardinality estimation from the path summary.
///
/// The path summary records the exact number of instances of every simple
/// path, so P-label selections have exact input-cardinality estimates;
/// tag scans sum the counts of all paths ending in the tag. A value
/// predicate on a P-label part has an exact count too (ValueCount: one
/// value-tree key range per path, counted in the store), which sizes
/// return-first batches. EstimateCardinality does not take it yet: it
/// applies a fixed reduction factor (kValueSelectivity), zero when an
/// equality literal does not occur in the document at all.
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

  /// The document paths inside a P-label part's alternatives, each with
  /// its instance count.
  std::vector<std::pair<PLabel, uint64_t>> Paths(const PlanPart& part) const;

  /// A P-label part's exact counts: the records its paths hold
  /// (PathCount) and those whose value passes the part's predicate, both
  /// before its level predicate.
  struct ValueShare {
    uint64_t records = 0;
    uint64_t matches = 0;
  };

  /// Counts a P-label part with a value predicate exactly, without
  /// visiting a record: the predicate's id interval (StringDict::Select)
  /// on each of the part's paths is one value-tree key range
  /// (NodeStore::CountValues). `!=` is the records minus the `=` count;
  /// records without a value pass as the empty string does. Fails with
  /// Corruption when the value tree breaks its bulk-load shape.
  Result<ValueShare> ValueCount(const PlanPart& part,
                                const NodeStore& store) const;

  /// The reduction factor EstimateCardinality (and through it join order,
  /// ChooseEngine and the SD stream's cost gate) applies per value
  /// predicate.
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
