#ifndef BLAS_EXEC_EXECUTOR_H_
#define BLAS_EXEC_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "exec/plan.h"
#include "labeling/plabel.h"
#include "schema/path_summary.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

/// What the engines read: the store and its value dictionary, the codec
/// that derives an ancestor's P-label from a node's, and the path summary
/// whose exact path counts cap a seed read (see PartFetcher). All must
/// outlive the engine.
struct ExecEnv {
  const NodeStore* store = nullptr;
  const StringDict* dict = nullptr;
  const PLabelCodec* codec = nullptr;
  const PathSummary* summary = nullptr;
};

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

class PartFetcher;

/// \brief The RDBMS-style query engine (section 5.2).
///
/// Evaluates a translated plan with index selections and structural merge
/// D-joins over the NodeStore relations, materializing intermediate result
/// tuples like a relational engine would.
class RelationalExecutor {
 public:
  explicit RelationalExecutor(const ExecEnv& env) : env_(env) {}

  /// Returns the distinct, sorted start positions of the return part.
  Result<std::vector<uint32_t>> Execute(const ExecPlan& plan,
                                        ExecStats* stats) const;

  /// Same execution, but returns the return part's full D-label bindings
  /// (distinct by start, sorted) — cursors enumerate these without
  /// per-match point lookups. `fetcher` supplies the parts' tuples: nullptr
  /// reads them top-down or from a literal (PartFetcher(plan, -1, env)); a
  /// return-first cursor passes one seeded from its batch.
  Result<std::vector<DLabel>> ExecuteBindings(
      const ExecPlan& plan, ExecStats* stats,
      PartFetcher* fetcher = nullptr) const;

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
  ExecEnv env_;
};

/// \brief The fetch step both engines share: each plan part's tuples,
/// sorted by start, with storage accesses counted in the store's counters.
///
/// Top-down, part 0 is read whole and every other P-label part only
/// inside its anchors' windows (sorted, disjoint; see OutermostWindows);
/// D-labeling tag and wildcard parts ignore windows and scan their whole
/// SD run. A seeded plan is read from one part's seeds upward instead:
///   * seed — part s's records, from one of two sources: an equality
///     literal's matches, read from the value tree without windows, or
///     records the caller supplies (a return-first cursor's batch of the
///     return part, see ResultCursor);
///   * chain — every part from the seed's anchor up to part 0, by
///     ancestor seeks: a node's depth-k ancestor carries the depth-k
///     prefix of its P-label path (PLabelCodec::ParentLabel), so each
///     prefix inside a chain part's alternatives names one ancestor,
///     found by NodeStore::SeekAncestors.
/// The engines then join top-down as before over these reduced lists, and
/// every other part (branches, and parts below the seed) is windowed by
/// them. The literal read stops once it would visit more than part 0's
/// exact path-summary count, and the plan then runs top-down: that capped
/// read is the only work the rule can add. The first equality part
/// qualifies unless it is `skip` (the part a cursor streams) or a
/// D-labeling tag or wildcard scan lies on its chain.
class PartFetcher {
 public:
  /// Runs the literal read and the chain's ancestor seeks when a part
  /// qualifies. `skip` < 0 fetches the whole plan.
  PartFetcher(const ExecPlan& plan, int skip, const ExecEnv& env);

  /// Seeds part `s` from `seeds` — records inside its alternatives that
  /// pass its level and value predicates — and runs the chain's ancestor
  /// seeks. Every part on the chain must be a P-label part.
  PartFetcher(const ExecPlan& plan, size_t s, std::vector<NodeRecord> seeds,
              const ExecEnv& env);

  /// The part a literal read seeds from: the first qualifying equality
  /// part other than `skip` (see the class comment), or nullopt.
  static std::optional<size_t> LiteralSeedPart(const ExecPlan& plan,
                                               int skip);

  /// Part i's tuples: its seeded list when it lies on the seed chain
  /// (fetch each part once), else a scan inside `windows`.
  std::vector<NodeRecord> Fetch(size_t i,
                                std::span<const StartWindow> windows);

 private:
  /// Part `s`'s literal matches, or nullopt once they pass the cap.
  std::optional<std::vector<NodeRecord>> ReadLiteral(size_t s) const;
  /// Fills seeded_ with `seeds` at part `s` and the ancestors along its
  /// chain.
  void SeedChain(size_t s, std::vector<NodeRecord> seeds);

  const ExecPlan& plan_;
  ExecEnv env_;
  std::vector<std::optional<std::vector<NodeRecord>>> seeded_;
};

}  // namespace blas

#endif  // BLAS_EXEC_EXECUTOR_H_
