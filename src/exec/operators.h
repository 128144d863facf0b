#ifndef BLAS_EXEC_OPERATORS_H_
#define BLAS_EXEC_OPERATORS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "labeling/dlabel.h"
#include "labeling/node_record.h"
#include "storage/node_store.h"

namespace blas {

/// Sorted (plabel -> valid anchor level distances) table for Unfold parts.
using PerAltDeltas = std::vector<std::pair<PLabel, std::vector<int32_t>>>;

/// Restores document order and drops duplicate bindings (equal starts name
/// the same element) — the projection step shared by both engines' result
/// and anchor lists.
void SortUniqueByStart(std::vector<DLabel>* labels);

/// The windows a part joined against `anchors` (D-labels or records,
/// sorted by start) is scanned in: the open interval (start, end) of every
/// outermost anchor — nested anchors add nothing, and an anchor without
/// room for a descendant adds no window.
template <typename Labels>
std::vector<StartWindow> OutermostWindows(const Labels& anchors) {
  std::vector<StartWindow> windows;
  uint32_t covered_to = 0;  // end of the last outermost anchor
  for (const auto& anchor : anchors) {
    if (anchor.start < covered_to) continue;  // nested or repeated
    covered_to = anchor.end;
    if (anchor.end - anchor.start >= 2) {
      windows.push_back(StartWindow{anchor.start + 1, anchor.end - 1});
    }
  }
  return windows;
}

/// Builds the per-alternative delta table of an Unfold plan part.
PerAltDeltas BuildPerAltDeltas(const PlanPart& part);

/// \brief Evaluable D-join predicate between an anchor binding and a
/// descendant-side record (section 3.1 + the level refinements of 4.1).
struct JoinPred {
  PlanPart::Join kind = PlanPart::Join::kContain;
  int delta = 0;
  const PerAltDeltas* per_alt = nullptr;  // required for kContainPerAlt

  /// Containment is checked by the sweep; this evaluates the residual
  /// level condition only.
  bool LevelOk(const DLabel& anc, const NodeRecord& desc) const;
};

/// One intermediate tuple of the relational executor: the D-label binding
/// of every part processed so far (column i = plan part i).
using Row = std::vector<DLabel>;

/// \brief Structural merge join (stack-based interval sweep).
///
/// Extends each row whose anchor column strictly contains a `descs` record
/// satisfying `pred`. `descs` must be sorted by start; rows are re-sorted
/// internally. Output rows have one extra column (the desc binding) and
/// arbitrary order. Runs in O((rows + descs) * depth + output).
std::vector<Row> StructuralJoinRows(const std::vector<Row>& rows,
                                    int anchor_col,
                                    const std::vector<NodeRecord>& descs,
                                    const JoinPred& pred);

/// Semi-join marking of the anchor side: result[i] is 1 iff anchors[i]
/// strictly contains some desc with desc_alive set and `pred` satisfied.
/// Both inputs sorted by start.
std::vector<char> SemiMarkAnchors(const std::vector<NodeRecord>& anchors,
                                  const std::vector<NodeRecord>& descs,
                                  const std::vector<char>& desc_alive,
                                  const JoinPred& pred);

/// Semi-join marking of the descendant side: result[j] is 1 iff descs[j]
/// is strictly contained in some anchor with anchor_alive set and `pred`
/// satisfied. Both inputs sorted by start.
std::vector<char> SemiMarkDescs(const std::vector<NodeRecord>& anchors,
                                const std::vector<char>& anchor_alive,
                                const std::vector<NodeRecord>& descs,
                                const JoinPred& pred);

/// \brief Incremental form of the sweep the batch operators above run:
/// anchors sorted by start, candidates fed in ascending start order, a
/// stack of the anchors containing the current position (intervals of a
/// well-formed document either nest or are disjoint). The streaming
/// cursor probes one candidate at a time instead of marking a whole
/// stream.
class AnchorSweep {
 public:
  AnchorSweep() = default;
  /// `anchors` must be sorted by start.
  explicit AnchorSweep(std::vector<DLabel> anchors)
      : anchors_(std::move(anchors)) {}

  bool empty() const { return anchors_.empty(); }

  /// True iff some anchor strictly contains `desc` and satisfies `pred`.
  /// Successive calls must not decrease desc.start.
  bool Matches(const NodeRecord& desc, const JoinPred& pred);

 private:
  std::vector<DLabel> anchors_;
  size_t next_ = 0;
  std::vector<size_t> stack_;
};

}  // namespace blas

#endif  // BLAS_EXEC_OPERATORS_H_
