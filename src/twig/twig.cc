#include "twig/twig.h"

#include <algorithm>

#include "exec/operators.h"

namespace blas {

namespace {

/// Output of the two arc-consistency passes: per part, the element
/// stream and the marks of elements participating in a full match of the
/// evaluated pattern.
struct TwigPasses {
  std::vector<std::vector<NodeRecord>> streams;
  /// matched[i][e] <=> streams[i][e] is in at least one full match
  /// (alive ∧ reachable).
  std::vector<std::vector<char>> matched;
};

/// Loads the streams and runs the bottom-up and top-down passes over the
/// plan's part tree. `skip` < 0 evaluates the whole pattern; otherwise the
/// (leaf) part `skip` is left out — the cursor's streaming prefix.
TwigPasses RunPasses(const ExecPlan& plan, int skip, PartFetcher& fetcher,
                     ExecStats* local) {
  const size_t n = plan.parts.size();
  TwigPasses out;

  // Load all evaluated streams (each stream is read exactly once) through
  // the shared PartFetcher: on a seeded plan, part 0 and the seed chain
  // arrive reduced to the literal's ancestors. Any other P-label stream
  // reads only records inside its anchor stream's outermost intervals:
  // nothing outside them can join. Anchors precede their children, so the
  // anchor stream is already loaded.
  out.streams.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == skip) continue;
    const PlanPart& part = plan.parts[i];
    if (i == 0 || part.scan != PlanPart::Scan::kPlabelAlts) {
      out.streams[i] = fetcher.Fetch(i, kWholeDocument);
    } else {
      out.streams[i] =
          fetcher.Fetch(i, OutermostWindows(out.streams[part.anchor]));
    }
  }

  std::vector<PerAltDeltas> alt_tables(n);
  auto pred_of = [&](size_t i) {
    JoinPred pred;
    pred.kind = plan.parts[i].join;
    pred.delta = plan.parts[i].delta;
    if (pred.kind == PlanPart::Join::kContainPerAlt) {
      if (alt_tables[i].empty()) {
        alt_tables[i] = BuildPerAltDeltas(plan.parts[i]);
      }
      pred.per_alt = &alt_tables[i];
    }
    return pred;
  };

  // Bottom-up pass: alive[i][e] <=> the pattern subtree below part i can
  // be embedded with e as part i's binding. Children have larger indices,
  // so a reverse scan finalizes each part before it is used as a child.
  std::vector<std::vector<char>> alive(n);
  for (size_t i = 0; i < n; ++i) alive[i].assign(out.streams[i].size(), 1);
  for (size_t i = n; i-- > 1;) {
    if (static_cast<int>(i) == skip) continue;
    int anchor = plan.parts[i].anchor;
    std::vector<char> support = SemiMarkAnchors(
        out.streams[anchor], out.streams[i], alive[i], pred_of(i));
    ++local->d_joins;
    for (size_t e = 0; e < alive[anchor].size(); ++e) {
      alive[anchor][e] = alive[anchor][e] && support[e];
    }
  }

  // Top-down pass: reachable[i][e] <=> e additionally extends to a match
  // of everything outside part i's subtree.
  out.matched.resize(n);
  out.matched[0] = alive[0];
  for (size_t i = 1; i < n; ++i) {
    if (static_cast<int>(i) == skip) continue;
    int anchor = plan.parts[i].anchor;
    std::vector<char> down = SemiMarkDescs(out.streams[anchor],
                                           out.matched[anchor],
                                           out.streams[i], pred_of(i));
    out.matched[i].assign(out.streams[i].size(), 0);
    for (size_t e = 0; e < down.size(); ++e) {
      out.matched[i][e] = down[e] && alive[i][e];
    }
  }
  return out;
}

}  // namespace

Result<std::vector<uint32_t>> TwigEngine::Execute(const ExecPlan& plan,
                                                  ExecStats* stats) const {
  BLAS_ASSIGN_OR_RETURN(std::vector<DLabel> bindings,
                        ExecuteBindings(plan, stats));
  std::vector<uint32_t> result;
  result.reserve(bindings.size());
  for (const DLabel& binding : bindings) result.push_back(binding.start);
  return result;
}

Result<std::vector<DLabel>> TwigEngine::ExecuteBindings(
    const ExecPlan& plan, ExecStats* stats, PartFetcher* fetcher) const {
  if (plan.parts.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  // Per-thread attribution; see RelationalExecutor::Execute.
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  std::optional<PartFetcher> own;
  if (fetcher == nullptr) fetcher = &own.emplace(plan, /*skip=*/-1, env_);
  TwigPasses passes = RunPasses(plan, /*skip=*/-1, *fetcher, &local);

  std::vector<DLabel> result;
  const auto& ret_stream = passes.streams[plan.return_part];
  const auto& ret_matched = passes.matched[plan.return_part];
  for (size_t e = 0; e < ret_stream.size(); ++e) {
    if (ret_matched[e]) result.push_back(ret_stream[e].dlabel());
  }
  SortUniqueByStart(&result);

  if (stats != nullptr) {
    local.elements = counters.elements;
    local.page_fetches = counters.fetches;
    local.page_misses = counters.misses;
    local.io_reads = counters.io_reads;
    local.output_rows = result.size();
    *stats += local;
  }
  return result;
}

Result<std::vector<DLabel>> TwigEngine::MatchedAnchors(const ExecPlan& plan,
                                                       size_t skip,
                                                       ExecStats* stats) const {
  if (plan.parts.size() < 2 || skip == 0 || skip >= plan.parts.size()) {
    return Status::InvalidArgument("MatchedAnchors needs an anchored part");
  }
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  PartFetcher fetcher(plan, static_cast<int>(skip), env_);
  TwigPasses passes =
      RunPasses(plan, static_cast<int>(skip), fetcher, &local);

  const int a = plan.parts[skip].anchor;
  std::vector<DLabel> anchors;
  for (size_t e = 0; e < passes.streams[a].size(); ++e) {
    if (passes.matched[a][e]) anchors.push_back(passes.streams[a][e].dlabel());
  }
  SortUniqueByStart(&anchors);

  if (stats != nullptr) {
    local.elements = counters.elements;
    local.page_fetches = counters.fetches;
    local.page_misses = counters.misses;
    local.io_reads = counters.io_reads;
    *stats += local;
  }
  return anchors;
}

}  // namespace blas
