#ifndef BLAS_TWIG_TWIG_H_
#define BLAS_TWIG_TWIG_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

/// \brief Holistic twig join engine (the paper's second query engine,
/// section 5.3, after Bruno et al.'s TwigStack).
///
/// Each plan part contributes one element stream sorted by document order.
/// The twig match is computed holistically: every stream is read exactly
/// once and matched with stack-based interval sweeps — a bottom-up pass
/// establishes, per element, whether the pattern subtree below it can be
/// embedded, and a top-down pass keeps exactly the elements participating
/// in at least one full twig match (for a tree pattern, this arc-
/// consistency pair is equivalent to enumerating TwigStack's merged path
/// solutions and projecting the return node, without materializing any
/// path solution). Memory is O(streams * depth) beyond the streams.
class TwigEngine {
 public:
  explicit TwigEngine(const ExecEnv& env) : env_(env) {}

  /// Returns the distinct, sorted start positions of return-part elements
  /// that participate in at least one full twig match.
  Result<std::vector<uint32_t>> Execute(const ExecPlan& plan,
                                        ExecStats* stats) const;

  /// Same execution, but returns the return part's full D-label bindings
  /// (distinct by start, sorted) — cursors enumerate these without
  /// per-match point lookups. `fetcher` as for
  /// RelationalExecutor::ExecuteBindings.
  Result<std::vector<DLabel>> ExecuteBindings(
      const ExecPlan& plan, ExecStats* stats,
      PartFetcher* fetcher = nullptr) const;

  /// \brief Streaming prefix: runs both arc-consistency passes with part
  /// `skip` (a leaf of the part tree) left out and returns the D-labels of
  /// `skip`'s anchor-part elements that participate in a match of the
  /// remaining pattern, sorted by start.
  ///
  /// The caller then emits `skip`-part matches as its stream advances
  /// against these bindings (limit-k early termination). Requires
  /// plan.parts.size() >= 2, skip >= 1, and that no other part anchors
  /// into `skip`.
  Result<std::vector<DLabel>> MatchedAnchors(const ExecPlan& plan,
                                             size_t skip,
                                             ExecStats* stats) const;

 private:
  ExecEnv env_;
};

}  // namespace blas

#endif  // BLAS_TWIG_TWIG_H_
