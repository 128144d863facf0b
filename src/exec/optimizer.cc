#include "exec/optimizer.h"

#include <algorithm>
#include <vector>

namespace blas {

namespace {

/// Instances summed over the summary's paths: those inside the part's
/// alternatives, those ending in its tag, and all.
struct Counts {
  uint64_t plabel_hits = 0;
  uint64_t tag_hits = 0;
  uint64_t total = 0;
};

void SumCounts(const SummaryNode* node, const PlanPart& part, Counts* out) {
  for (const auto& child : node->children) {
    out->total += child->count;
    if (child->tag == part.tag) out->tag_hits += child->count;
    for (const PlanAlt& alt : part.alts) {
      if (alt.range.Contains(child->plabel)) {
        out->plabel_hits += child->count;
        break;
      }
    }
    SumCounts(child.get(), part, out);
  }
}

}  // namespace

uint64_t CostModel::PathCount(const PlanPart& part) const {
  Counts counts;
  SumCounts(summary_->root(), part, &counts);
  switch (part.scan) {
    case PlanPart::Scan::kPlabelAlts:
      return counts.plabel_hits;
    case PlanPart::Scan::kTag:
      return counts.tag_hits;
    case PlanPart::Scan::kAllTags:
      return counts.total;
  }
  return counts.total;
}

uint64_t CostModel::PathLabels(const PlanPart& part) const {
  return Paths(part).size();
}

std::vector<std::pair<PLabel, uint64_t>> CostModel::Paths(
    const PlanPart& part) const {
  std::vector<std::pair<PLabel, uint64_t>> paths;
  std::vector<const SummaryNode*> stack = {summary_->root()};
  while (!stack.empty()) {
    const SummaryNode* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) {
      for (const PlanAlt& alt : part.alts) {
        if (alt.range.Contains(child->plabel)) {
          paths.emplace_back(child->plabel, child->count);
          break;
        }
      }
      stack.push_back(child.get());
    }
  }
  return paths;
}

Result<CostModel::ValueShare> CostModel::ValueCount(
    const PlanPart& part, const NodeStore& store) const {
  const ValuePred& pred = *part.value;
  const ValueIds ids = dict_->Select(pred);
  // `=` and `!=` against "" also match the records without a value.
  const bool empty_literal =
      (pred.op == ValueOp::kEq || pred.op == ValueOp::kNe) &&
      pred.literal.empty();
  ValueShare share;
  uint64_t selected = 0;
  uint64_t valued = 0;
  for (const auto& [plabel, count] : Paths(part)) {
    share.records += count;
    BLAS_ASSIGN_OR_RETURN(uint64_t n,
                          store.CountValues(plabel, ids.lo, ids.hi));
    selected += n;
    if (empty_literal) {
      BLAS_ASSIGN_OR_RETURN(n, store.CountValues(plabel, 0, kNullData));
      valued += n;
    }
  }
  // The `=` count (the ordered operators never match a missing value).
  uint64_t equal = selected;
  if (empty_literal) equal += share.records - std::min(valued, share.records);
  equal = std::min(equal, share.records);
  share.matches = ids.negated ? share.records - equal : equal;
  return share;
}

uint64_t CostModel::EstimateCardinality(const PlanPart& part) const {
  uint64_t base = PathCount(part);
  if (part.value.has_value()) {
    if (part.value->op == ValueOp::kEq &&
        !dict_->Find(part.value->literal).has_value()) {
      return 0;  // equality against a literal that never occurs
    }
    base = static_cast<uint64_t>(static_cast<double>(base) *
                                 kValueSelectivity) +
           1;
  }
  return base;
}

ExecPlan OptimizeJoinOrder(const ExecPlan& plan, const CostModel& model) {
  const size_t n = plan.parts.size();
  if (n <= 2) return plan;

  std::vector<uint64_t> cost(n);
  for (size_t i = 0; i < n; ++i) {
    cost[i] = model.EstimateCardinality(plan.parts[i]);
  }

  // Greedy topological order: next = cheapest part whose anchor is placed.
  std::vector<int> order;
  std::vector<char> placed(n, 0);
  order.reserve(n);
  order.push_back(0);
  placed[0] = 1;
  while (order.size() < n) {
    int best = -1;
    for (size_t i = 1; i < n; ++i) {
      if (placed[i]) continue;
      int anchor = plan.parts[i].anchor;
      if (anchor >= 0 && !placed[anchor]) continue;
      if (best < 0 || cost[i] < cost[best]) best = static_cast<int>(i);
    }
    order.push_back(best);
    placed[best] = 1;
  }

  std::vector<int> new_index(n);
  for (size_t pos = 0; pos < n; ++pos) {
    new_index[order[pos]] = static_cast<int>(pos);
  }

  ExecPlan out;
  out.parts.reserve(n);
  for (size_t pos = 0; pos < n; ++pos) {
    PlanPart part = plan.parts[order[pos]];
    if (part.anchor >= 0) part.anchor = new_index[part.anchor];
    out.parts.push_back(std::move(part));
  }
  out.return_part = new_index[plan.return_part];
  return out;
}

}  // namespace blas
