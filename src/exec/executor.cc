#include "exec/executor.h"

#include <algorithm>
#include <queue>

#include "exec/operators.h"
#include "exec/optimizer.h"

namespace blas {

namespace {

/// Restores document order (start ascending) on a tuple list that is a
/// concatenation of start-sorted runs (one per distinct plabel, as
/// produced by SP range scans). A k-way merge is O(n log k) versus the
/// O(n log n) full sort, and k is the number of distinct source paths in
/// the range -- usually small.
void SortByStartRunAware(std::vector<NodeRecord>* tuples) {
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end)
  size_t begin = 0;
  for (size_t i = 1; i <= tuples->size(); ++i) {
    if (i == tuples->size() || (*tuples)[i].start < (*tuples)[i - 1].start) {
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  if (runs.size() <= 1) return;

  struct Head {
    uint32_t start;
    size_t run;
  };
  auto cmp = [](const Head& a, const Head& b) { return a.start > b.start; };
  std::priority_queue<Head, std::vector<Head>, decltype(cmp)> heap(cmp);
  std::vector<size_t> cursor(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    cursor[r] = runs[r].first;
    heap.push(Head{(*tuples)[runs[r].first].start, r});
  }
  std::vector<NodeRecord> merged;
  merged.reserve(tuples->size());
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    merged.push_back((*tuples)[cursor[head.run]]);
    if (++cursor[head.run] < runs[head.run].second) {
      heap.push(Head{(*tuples)[cursor[head.run]].start, head.run});
    }
  }
  *tuples = std::move(merged);
}

/// The part's value predicate on one record's data. Comparison operators
/// decode the data column (a node without character data compares as the
/// empty string — which fails every ordered comparison under the numeric
/// XPath 1.0 semantics of ValuePred::Matches).
bool ValueMatches(const PlanPart& part, const StringDict& dict,
                  const NodeRecord& rec) {
  std::string_view text =
      rec.data == kNullData ? std::string_view() : dict.Get(rec.data);
  return part.value->Matches(text);
}

/// One plan part's tuples read top-down; see PartFetcher.
std::vector<NodeRecord> FetchPartTuples(const PlanPart& part,
                                        const NodeStore& store,
                                        const StringDict& dict,
                                        std::span<const StartWindow> windows) {
  std::optional<uint32_t> data;
  bool residual_filter = false;
  if (part.value.has_value()) {
    if (part.value->op == ValueOp::kEq && !part.value->literal.empty()) {
      // Equality fast path: one dictionary lookup turns the predicate
      // into an integer comparison inside the scan.
      auto id = dict.Find(part.value->literal);
      if (!id.has_value()) return {};  // value never occurs: empty scan
      data = *id;
    } else {
      residual_filter = true;
    }
  }

  std::vector<NodeRecord> tuples;
  switch (part.scan) {
    case PlanPart::Scan::kPlabelAlts:
      for (const PlanAlt& alt : part.alts) {
        std::vector<NodeRecord> chunk =
            store.ScanPlabelRange(alt.range, data, part.level_eq, windows);
        tuples.insert(tuples.end(), chunk.begin(), chunk.end());
      }
      break;
    case PlanPart::Scan::kTag: {
      tuples = store.ScanTag(part.tag, data);
      if (part.level_eq.has_value()) {
        std::erase_if(tuples, [&](const NodeRecord& r) {
          return r.level != *part.level_eq;
        });
      }
      break;
    }
    case PlanPart::Scan::kAllTags: {
      tuples = store.ScanAll(data);
      if (part.level_eq.has_value()) {
        std::erase_if(tuples, [&](const NodeRecord& r) {
          return r.level != *part.level_eq;
        });
      }
      break;
    }
  }
  if (residual_filter) {
    std::erase_if(tuples, [&](const NodeRecord& rec) {
      return !ValueMatches(part, dict, rec);
    });
  }
  SortByStartRunAware(&tuples);
  return tuples;
}

}  // namespace

std::optional<size_t> PartFetcher::LiteralSeedPart(const ExecPlan& plan,
                                                   int skip) {
  for (size_t s = 1; s < plan.parts.size(); ++s) {
    const PlanPart& part = plan.parts[s];
    bool qualifies = static_cast<int>(s) != skip &&
                     part.scan == PlanPart::Scan::kPlabelAlts &&
                     part.value.has_value() &&
                     part.value->op == ValueOp::kEq &&
                     !part.value->literal.empty();
    for (int c = part.anchor; qualifies && c >= 0;
         c = plan.parts[c].anchor) {
      qualifies = plan.parts[c].scan == PlanPart::Scan::kPlabelAlts;
    }
    if (qualifies) return s;
  }
  return std::nullopt;
}

PartFetcher::PartFetcher(const ExecPlan& plan, int skip, const ExecEnv& env)
    : plan_(plan), env_(env), seeded_(plan.parts.size()) {
  if (std::optional<size_t> s = LiteralSeedPart(plan, skip)) {
    if (std::optional<std::vector<NodeRecord>> seeds = ReadLiteral(*s)) {
      SeedChain(*s, std::move(*seeds));
    }
  }
}

PartFetcher::PartFetcher(const ExecPlan& plan, size_t s,
                         std::vector<NodeRecord> seeds, const ExecEnv& env)
    : plan_(plan), env_(env), seeded_(plan.parts.size()) {
  SeedChain(s, std::move(seeds));
}

std::optional<std::vector<NodeRecord>> PartFetcher::ReadLiteral(
    size_t s) const {
  const PlanPart& seed_part = plan_.parts[s];
  std::vector<NodeRecord> seeds;
  if (std::optional<uint32_t> id = env_.dict->Find(seed_part.value->literal)) {
    const uint64_t cap =
        CostModel(env_.summary, env_.dict).PathCount(plan_.parts[0]);
    for (const PlanAlt& alt : seed_part.alts) {
      std::optional<std::vector<NodeRecord>> chunk =
          env_.store->ScanValueCapped(alt.range, *id, cap - seeds.size());
      if (!chunk.has_value()) return std::nullopt;  // past the cap
      seeds.insert(seeds.end(), chunk->begin(), chunk->end());
    }
  }
  if (seed_part.level_eq.has_value()) {
    std::erase_if(seeds, [&](const NodeRecord& rec) {
      return rec.level != *seed_part.level_eq;
    });
  }
  return seeds;
}

void PartFetcher::SeedChain(size_t s, std::vector<NodeRecord> seeds) {
  // Every prefix of a seed's path that lies in a chain part's
  // alternatives names the seed's ancestor in that part.
  std::vector<int> chain;
  for (int c = plan_.parts[s].anchor; c >= 0; c = plan_.parts[c].anchor) {
    chain.push_back(c);
  }
  std::vector<std::vector<SpKey>> targets(chain.size());
  for (const NodeRecord& rec : seeds) {
    PLabel prefix = rec.plabel;
    for (int level = rec.level - 1; level >= 1; --level) {
      prefix = env_.codec->ParentLabel(prefix);
      for (size_t c = 0; c < chain.size(); ++c) {
        for (const PlanAlt& alt : plan_.parts[chain[c]].alts) {
          if (alt.range.Contains(prefix)) {
            targets[c].push_back(SpKey{prefix, rec.start});
            break;
          }
        }
      }
    }
  }
  for (size_t c = 0; c < chain.size(); ++c) {
    std::sort(targets[c].begin(), targets[c].end());
    std::vector<NodeRecord> found = env_.store->SeekAncestors(targets[c]);
    const PlanPart& part = plan_.parts[chain[c]];
    std::erase_if(found, [&](const NodeRecord& rec) {
      return (part.level_eq.has_value() && rec.level != *part.level_eq) ||
             (part.value.has_value() && !ValueMatches(part, *env_.dict, rec));
    });
    SortByStartRunAware(&found);
    seeded_[chain[c]] = std::move(found);
  }
  SortByStartRunAware(&seeds);
  seeded_[s] = std::move(seeds);
}

std::vector<NodeRecord> PartFetcher::Fetch(
    size_t i, std::span<const StartWindow> windows) {
  if (seeded_[i].has_value()) return std::move(*seeded_[i]);
  return FetchPartTuples(plan_.parts[i], *env_.store, *env_.dict, windows);
}

namespace {

/// Row column of `part` when part `skip` (< 0: none) is left out.
int ColOf(int part, int skip) {
  return skip >= 0 && part > skip ? part - 1 : part;
}

/// Scan windows of a part anchored at column `col` of `rows`.
std::vector<StartWindow> AnchorWindows(const std::vector<Row>& rows,
                                       int col) {
  std::vector<DLabel> anchors;
  anchors.reserve(rows.size());
  for (const Row& row : rows) anchors.push_back(row[col]);
  SortUniqueByStart(&anchors);
  return OutermostWindows(anchors);
}

/// Materializes part 0, then folds every other (non-skipped) part in with
/// one D-join. `skip` < 0 processes the whole plan; otherwise the (leaf)
/// part `skip` is left out and row columns follow processing order (part
/// index minus one past the skip) — see ColOf. Parts come from the shared
/// PartFetcher: on a seeded plan part 0 and the seed chain arrive reduced
/// to the literal's ancestors. Any other P-label part is scanned only
/// inside the outermost intervals of its anchor column, so once the
/// intermediate result empties the remaining P-label parts scan nothing;
/// D-labeling tag parts are always scanned in full (the baseline
/// relational engine materializes each base input of the join).
std::vector<Row> FoldJoins(const ExecPlan& plan, int skip,
                           PartFetcher& fetcher, ExecStats* local) {
  std::vector<Row> rows;
  {
    std::vector<NodeRecord> tuples = fetcher.Fetch(0, kWholeDocument);
    rows.reserve(tuples.size());
    for (const NodeRecord& rec : tuples) rows.push_back(Row{rec.dlabel()});
  }

  std::vector<PerAltDeltas> alt_tables(plan.parts.size());
  for (size_t i = 1; i < plan.parts.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    const PlanPart& part = plan.parts[i];
    const int anchor_col = ColOf(part.anchor, skip);
    std::vector<StartWindow> windows;
    if (part.scan == PlanPart::Scan::kPlabelAlts) {
      windows = AnchorWindows(rows, anchor_col);
    }
    std::vector<NodeRecord> tuples = fetcher.Fetch(i, windows);
    ++local->d_joins;
    if (rows.empty()) continue;
    JoinPred pred;
    pred.kind = part.join;
    pred.delta = part.delta;
    if (part.join == PlanPart::Join::kContainPerAlt) {
      alt_tables[i] = BuildPerAltDeltas(part);
      pred.per_alt = &alt_tables[i];
    }
    rows = StructuralJoinRows(rows, anchor_col, tuples, pred);
    local->intermediate_rows += rows.size();
  }
  return rows;
}

}  // namespace

Result<std::vector<uint32_t>> RelationalExecutor::Execute(
    const ExecPlan& plan, ExecStats* stats) const {
  BLAS_ASSIGN_OR_RETURN(std::vector<DLabel> bindings,
                        ExecuteBindings(plan, stats));
  std::vector<uint32_t> result;
  result.reserve(bindings.size());
  for (const DLabel& binding : bindings) result.push_back(binding.start);
  return result;
}

Result<std::vector<DLabel>> RelationalExecutor::ExecuteBindings(
    const ExecPlan& plan, ExecStats* stats, PartFetcher* fetcher) const {
  if (plan.parts.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  // Count exactly this query's storage accesses on this thread; the
  // store-wide counters keep accumulating globally, but diffing them
  // would attribute other threads' concurrent accesses to this query.
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  std::optional<PartFetcher> own;
  if (fetcher == nullptr) fetcher = &own.emplace(plan, /*skip=*/-1, env_);
  std::vector<Row> rows = FoldJoins(plan, /*skip=*/-1, *fetcher, &local);

  std::vector<DLabel> result;
  result.reserve(rows.size());
  for (const Row& row : rows) result.push_back(row[plan.return_part]);
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

Result<std::vector<DLabel>> RelationalExecutor::MatchedAnchors(
    const ExecPlan& plan, size_t skip, ExecStats* stats) const {
  if (plan.parts.size() < 2 || skip == 0 || skip >= plan.parts.size()) {
    return Status::InvalidArgument("MatchedAnchors needs an anchored part");
  }
  ReadCounters counters;
  ReadCounterScope scope(&counters);
  ExecStats local;

  PartFetcher fetcher(plan, static_cast<int>(skip), env_);
  std::vector<Row> rows =
      FoldJoins(plan, static_cast<int>(skip), fetcher, &local);

  const int anchor_col = ColOf(plan.parts[skip].anchor,
                               static_cast<int>(skip));
  std::vector<DLabel> anchors;
  anchors.reserve(rows.size());
  for (const Row& row : rows) anchors.push_back(row[anchor_col]);
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
