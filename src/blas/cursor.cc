#include "blas/cursor.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/stopwatch.h"
#include "exec/optimizer.h"
#include "labeling/plabel.h"
#include "twig/twig.h"

namespace blas {

namespace {

/// The one tag all of the part's matches carry, or nullopt: a tag scan's
/// tag, or the leaf tag every P-label alternative ends in.
std::optional<TagId> LeafTag(const PlanPart& part, const PLabelCodec& codec) {
  switch (part.scan) {
    case PlanPart::Scan::kTag:
      return part.tag;
    case PlanPart::Scan::kAllTags:
      return std::nullopt;  // wildcard: no single SD run to stream
    case PlanPart::Scan::kPlabelAlts:
      break;
  }
  if (part.alts.empty()) return std::nullopt;  // provably-empty scan
  std::optional<TagId> leaf;
  for (const PlanAlt& alt : part.alts) {
    // Every label in a suffix interval shares its most significant digit —
    // the node's own tag — so the lower bound decodes it.
    std::vector<TagId> path = codec.DecodePath(alt.range.lo);
    if (path.empty()) return std::nullopt;
    if (leaf.has_value() && *leaf != path.back()) return std::nullopt;
    leaf = path.back();
  }
  return leaf;
}

/// Streaming gate: the limit-k producer needs the return part to be a leaf
/// of the part tree (nothing anchors into it) whose matches all carry one
/// known tag, so they can be pulled from the tag-clustered SD index in
/// document order. Returns the tag, or nullopt for the materialized
/// fallback.
std::optional<TagId> StreamableReturnTag(const ExecPlan& plan,
                                         const PLabelCodec& codec) {
  const int r = plan.return_part;
  for (size_t i = 0; i < plan.parts.size(); ++i) {
    if (static_cast<int>(i) != r && plan.parts[i].anchor == r) {
      return std::nullopt;
    }
  }
  return LeafTag(plan.parts[r], codec);
}

/// Return-first gate: every part is a P-label part (so the return part's
/// anchors are one ancestor seek away) and no equality literal seeds the
/// plan (a seeded plan keeps its literal read).
bool ReturnFirst(const ExecPlan& plan) {
  for (const PlanPart& part : plan.parts) {
    if (part.scan != PlanPart::Scan::kPlabelAlts) return false;
  }
  return !PartFetcher::LiteralSeedPart(plan, /*skip=*/-1).has_value();
}

/// The part's non-empty alternatives as sorted, disjoint ranges.
std::vector<PLabelRange> MergedRanges(const PlanPart& part) {
  std::vector<PLabelRange> ranges;
  for (const PlanAlt& alt : part.alts) {
    if (!alt.range.empty()) ranges.push_back(alt.range);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const PLabelRange& a, const PLabelRange& b) {
              return a.lo < b.lo;
            });
  std::vector<PLabelRange> merged;
  for (const PLabelRange& range : ranges) {
    if (!merged.empty() && range.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, range.hi);
    } else {
      merged.push_back(range);
    }
  }
  return merged;
}

/// The first return-first batch of a plan whose value parts were counted
/// reads this many times the records the exact match rate predicts.
/// Matches are not spread evenly in document order, and a short first
/// batch costs a second one with three fresh root descents; a wider margin
/// reads more records. On the eight-copy auction document's
/// `price > P` lookups at limit 10, margins from 1.25 to 2 gave the fewest
/// pages at 1.5 over three corpus seeds.
constexpr double kFirstBatchMargin = 1.5;

/// `want` records at the expected match `rate`, clamped to [1, cap].
uint64_t BatchSize(double want, double rate, uint64_t cap) {
  const double size = std::ceil(want / rate);
  if (size >= static_cast<double>(cap)) return std::max<uint64_t>(cap, 1);
  return std::max<uint64_t>(static_cast<uint64_t>(size), 1);
}

}  // namespace

StreamPlanInfo ResultCursor::AnalyzePlan(const ExecPlan& plan,
                                         const Env& env) {
  StreamPlanInfo info;
  CostModel model(env.summary, env.dict);
  const PlanPart& ret = plan.parts[plan.return_part];
  if (ReturnFirst(plan)) {
    info.return_first = true;
    info.return_count = model.PathCount(ret);
    info.return_paths = model.PathLabels(ret);
    // The return part and its anchors up to the root.
    std::vector<bool> on_chain(plan.parts.size(), false);
    for (int i = plan.return_part; i >= 0; i = plan.parts[i].anchor) {
      on_chain[i] = true;
    }
    for (size_t i = 0; i < plan.parts.size(); ++i) {
      const PlanPart& part = plan.parts[i];
      // A branch off the chain keeps at most the share of its anchors
      // that have one.
      if (on_chain[i] || part.anchor < 0 || !on_chain[part.anchor]) continue;
      const uint64_t anchors = model.PathCount(plan.parts[part.anchor]);
      if (anchors > 0) {
        info.match_rate *= std::min(
            1.0, static_cast<double>(model.PathCount(part)) /
                     static_cast<double>(anchors));
      }
    }
    info.tag = LeafTag(ret, *env.codec);
  } else {
    info.tag = StreamableReturnTag(plan, *env.codec);
    if (info.tag.has_value()) info.cardinality = model.EstimateCardinality(ret);
  }
  if (info.tag.has_value()) {
    PlanPart run;
    run.scan = PlanPart::Scan::kTag;
    run.tag = *info.tag;
    info.run_size = model.EstimateCardinality(run);
  }
  return info;
}

ResultCursor::ResultCursor(const Env& env, std::shared_ptr<const ExecPlan> plan,
                           Engine engine, const QueryOptions& options)
    : env_(env),
      plan_(std::move(plan)),
      engine_(engine),
      options_(options),
      projector_(env.store, env.dict, env.tags, env.codec) {}

Result<ResultCursor> ResultCursor::Open(const Env& env,
                                        std::shared_ptr<const ExecPlan> plan,
                                        Engine engine,
                                        const QueryOptions& options,
                                        const StreamPlanInfo* stream_info) {
  if (engine == Engine::kAuto) {
    return Status::Internal("Engine::kAuto not resolved");
  }
  if (plan == nullptr || plan->parts.empty()) {
    return Status::InvalidArgument("empty plan");
  }

  Stopwatch watch;
  ResultCursor cursor(env, std::move(plan), engine, options);
  if (stream_info != nullptr) cursor.plan_info_ = *stream_info;
  cursor.shape_ = cursor.plan_->AnalyzeShape();
  ReadCounters counters;
  Status status;
  {
    // Attribute setup-phase accesses outside the engines' own scopes
    // (scan positioning, dictionary probes) to this cursor too.
    ReadCounterScope scope(&counters);
    status = cursor.Init();
  }
  cursor.stats_.elements += counters.elements;
  cursor.stats_.page_fetches += counters.fetches;
  cursor.stats_.page_misses += counters.misses;
  cursor.stats_.io_reads += counters.io_reads;
  cursor.millis_ = watch.ElapsedMillis();
  if (!status.ok()) return status;
  return cursor;
}

uint64_t ResultCursor::Wanted() const {
  return options_.limit > UINT64_MAX - options_.offset
             ? UINT64_MAX
             : options_.offset + options_.limit;
}

Status ResultCursor::Init() {
  const ExecPlan& p = *plan_;
  std::optional<TagId> stream_tag;
  if (options_.limit > 0) {
    const StreamPlanInfo info =
        plan_info_.has_value() ? *plan_info_ : AnalyzePlan(p, env_);
    if (info.return_first) return InitBatches(info);
    stream_tag = info.tag;
    // Cost gate: streaming scans the tag's SD run at a match rate of
    // (cardinality / run size) and stops after `wanted` matches, so it
    // expects to visit ~wanted * run / card elements; the materialized
    // path's return-part scan visits ~card. Stream only when the former
    // is smaller — otherwise a selective absolute return path (e.g. the
    // /PLAYS/PLAY/TITLE of /PLAYS/PLAY[ACT/TITLE='ACT 1']/TITLE, whose SP
    // range touches only play titles) would be pessimized by filtering the
    // much larger tag run.
    if (stream_tag.has_value()) {
      const uint64_t wanted = Wanted();
      const double card = static_cast<double>(info.cardinality);
      if (card <= 0 || static_cast<double>(wanted) *
                               static_cast<double>(info.run_size) >=
                           card * card) {
        stream_tag.reset();
      }
    }
  }

  if (!stream_tag.has_value()) {
    // Materialized: run the full engine once, serve from the binding
    // list. Unbounded cursors always take this path, so Drain() matches
    // a full engine run's results and measurements exactly.
    Result<std::vector<DLabel>> bindings =
        engine_ == Engine::kRelational
            ? RelationalExecutor(env_).ExecuteBindings(p, &stats_)
            : TwigEngine(env_).ExecuteBindings(p, &stats_);
    if (!bindings.ok()) return std::move(bindings).status();
    bindings_ = std::move(bindings).value();
    if (options_.limit > 0 || options_.offset > 0) {
      // A truncating cursor reports matches delivered, like the streaming
      // producer, not the engine's untruncated count.
      stats_.output_rows = 0;
    }
    return Status::OK();
  }

  // Streaming: evaluate the pattern minus the return part, then pull
  // return candidates incrementally from the SD index.
  const PlanPart& ret = p.parts[p.return_part];
  std::vector<DLabel> anchors;
  const bool need_anchor = p.parts.size() > 1;
  if (need_anchor) {
    Result<std::vector<DLabel>> matched =
        engine_ == Engine::kRelational
            ? RelationalExecutor(env_).MatchedAnchors(p, p.return_part,
                                                      &stats_)
            : TwigEngine(env_).MatchedAnchors(p, p.return_part, &stats_);
    if (!matched.ok()) return std::move(matched).status();
    anchors = std::move(matched).value();
    // The pipelined final D-join counts as executed once streaming begins.
    ++stats_.d_joins;
    if (anchors.empty()) {
      exhausted_ = true;  // nothing to stream against
      return Status::OK();
    }
  }

  std::optional<uint32_t> data_eq;
  bool value_residual = false;
  if (ret.value.has_value()) {
    if (ret.value->op == ValueOp::kEq && !ret.value->literal.empty()) {
      data_eq = env_.dict->Find(ret.value->literal);
      if (!data_eq.has_value()) {
        // The literal never occurs: the scan would be empty.
        exhausted_ = true;
        return Status::OK();
      }
    } else {
      value_residual = true;
    }
  }

  // The run is read only inside the anchors' outermost intervals.
  std::vector<StartWindow> windows =
      need_anchor ? OutermostWindows(anchors)
                  : std::vector<StartWindow>{StartWindow{}};
  StreamState state(
      NodeStore::TagScan(env_.store, *stream_tag, std::move(windows)));
  state.sweep = AnchorSweep(std::move(anchors));
  state.need_anchor = need_anchor;
  state.pred.kind = ret.join;
  state.pred.delta = ret.delta;
  if (ret.join == PlanPart::Join::kContainPerAlt) {
    state.per_alt = BuildPerAltDeltas(ret);
  }
  state.part = &ret;
  state.data_eq = data_eq;
  state.value_residual = value_residual;
  stream_.emplace(std::move(state));
  return Status::OK();
}

bool ResultCursor::TagRunCheaper(uint64_t n) const {
  const BatchState& b = *batches_;
  if (b.data.has_value() || !b.info.tag.has_value() ||
      b.info.return_count == 0) {
    return false;
  }
  // Page estimate: SP seeks once per path of the part and reads n
  // records; the SD run is one seek and reads the run from the batch start
  // until n of its records are the part's.
  constexpr double kPerLeaf = BPlusTree<NodeRecord, SdKey, SdKeyOf>::kLeafCap;
  const double records = static_cast<double>(n);
  const double run_ratio = static_cast<double>(b.info.run_size) /
                           static_cast<double>(b.info.return_count);
  return 1.0 + records * run_ratio / kPerLeaf <
         static_cast<double>(b.info.return_paths) + records / kPerLeaf;
}

std::vector<NodeRecord> ResultCursor::ReadTagRun(size_t n) const {
  const BatchState& b = *batches_;
  NodeStore::TagScan scan(env_.store, *b.info.tag,
                          {StartWindow{b.next_lo, UINT32_MAX}});
  std::vector<NodeRecord> out;
  while (out.size() < n) {
    const NodeRecord* rec = scan.Next();
    if (rec == nullptr) break;
    // The last range starting at or below the plabel is the only one that
    // can hold it.
    auto above = std::upper_bound(
        b.ranges.begin(), b.ranges.end(), rec->plabel,
        [](PLabel p, const PLabelRange& range) { return p < range.lo; });
    if (above != b.ranges.begin() && std::prev(above)->Contains(rec->plabel)) {
      out.push_back(*rec);
    }
  }
  return out;
}

Status ResultCursor::InitBatches(const StreamPlanInfo& info) {
  const PlanPart& ret = plan_->parts[plan_->return_part];
  BatchState b;
  b.ranges = MergedRanges(ret);
  if (ret.value.has_value() && ret.value->op == ValueOp::kEq &&
      !ret.value->literal.empty()) {
    b.data = env_.dict->Find(ret.value->literal);
  }
  // Each value part's exact share of its records: counted here, under the
  // cursor's counter scope, so the count's page fetches are charged to
  // the query. A part no record passes means no match at all.
  CostModel model(env_.summary, env_.dict);
  double rate = info.match_rate;
  double margin = 1.0;
  for (const PlanPart& part : plan_->parts) {
    if (!part.value.has_value()) continue;
    BLAS_ASSIGN_OR_RETURN(CostModel::ValueShare share,
                          model.ValueCount(part, *env_.store));
    if (share.matches == 0) {
      b.ranges.clear();
      break;
    }
    rate *= static_cast<double>(share.matches) /
            static_cast<double>(share.records);
    margin = kFirstBatchMargin;
  }
  b.info = info;
  b.size = BatchSize(margin * static_cast<double>(Wanted()), rate,
                     info.return_count);
  b.done = b.ranges.empty();
  batches_.emplace(std::move(b));
  return Status::OK();
}

void ResultCursor::RunBatch() {
  BatchState& b = *batches_;
  const ExecPlan& p = *plan_;
  const PlanPart& ret = p.parts[p.return_part];
  std::vector<NodeRecord> batch =
      TagRunCheaper(b.size)
          ? ReadTagRun(b.size)
          : env_.store->FirstByStart(b.ranges, b.data, b.next_lo, b.size);
  b.read += batch.size();
  if (batch.size() < b.size || batch.back().start == UINT32_MAX) {
    b.done = true;
  } else {
    b.next_lo = batch.back().start + 1;
  }
  std::erase_if(batch, [&](const NodeRecord& rec) {
    if (ret.level_eq.has_value() && rec.level != *ret.level_eq) return true;
    if (!ret.value.has_value() || b.data.has_value()) return false;
    std::string_view text =
        rec.data == kNullData ? std::string_view() : env_.dict->Get(rec.data);
    return !ret.value->Matches(text);
  });

  b.matches.clear();
  b.pos = 0;
  if (!batch.empty()) {
    PartFetcher fetcher(p, static_cast<size_t>(p.return_part), batch, env_);
    ExecStats local;
    // ExecuteBindings fails only on an empty plan, which Open rejects.
    Result<std::vector<DLabel>> bindings =
        engine_ == Engine::kRelational
            ? RelationalExecutor(env_).ExecuteBindings(p, &local, &fetcher)
            : TwigEngine(env_).ExecuteBindings(p, &local, &fetcher);
    local.output_rows = 0;  // the cursor counts deliveries
    stats_ += local;
    if (bindings.ok()) {
      // Both lists are in start order, and every binding is a batch
      // record: keep the records, which projection needs.
      auto rec = batch.begin();
      for (const DLabel& binding : *bindings) {
        while (rec != batch.end() && rec->start < binding.start) ++rec;
        if (rec != batch.end() && rec->start == binding.start) {
          b.matches.push_back(*rec);
        }
      }
    }
  }
  b.matched += b.matches.size();

  // Grow geometrically, or to what the observed match rate predicts the
  // remaining matches need, whichever is larger.
  const uint64_t wanted = Wanted();
  const uint64_t remaining = wanted > b.matched ? wanted - b.matched : 0;
  const uint64_t cap = b.info.return_count;
  const uint64_t doubled =
      BatchSize(2.0 * static_cast<double>(b.size), 1.0, cap);
  b.size = b.matched == 0
               ? doubled
               : std::max(doubled,
                          BatchSize(static_cast<double>(remaining),
                                    static_cast<double>(b.matched) /
                                        static_cast<double>(b.read),
                                    cap));
}

bool ResultCursor::StreamCandidatePasses(const NodeRecord& rec) {
  const PlanPart& part = *stream_->part;
  if (part.scan == PlanPart::Scan::kPlabelAlts) {
    bool in_range = false;
    for (const PlanAlt& alt : part.alts) {
      if (alt.range.Contains(rec.plabel)) {
        in_range = true;
        break;
      }
    }
    if (!in_range) return false;
  }
  if (part.level_eq.has_value() && rec.level != *part.level_eq) return false;
  if (stream_->data_eq.has_value() && rec.data != *stream_->data_eq) {
    return false;
  }
  if (stream_->value_residual) {
    std::string_view text =
        rec.data == kNullData ? std::string_view() : env_.dict->Get(rec.data);
    if (!part.value->Matches(text)) return false;
  }
  return true;
}

std::optional<NodeRecord> ResultCursor::NextStreamMatch() {
  StreamState& s = *stream_;
  if (s.pred.kind == PlanPart::Join::kContainPerAlt) {
    s.pred.per_alt = &s.per_alt;  // rebind: the cursor may have moved
  }
  while (const NodeRecord* rec = s.scan.Next()) {
    if (!StreamCandidatePasses(*rec)) continue;
    // SD scans candidates in ascending start order — the sweep's input
    // contract.
    if (s.need_anchor && !s.sweep.Matches(*rec, s.pred)) continue;
    return *rec;
  }
  return std::nullopt;
}

std::optional<Match> ResultCursor::Next() {
  if (exhausted_) return std::nullopt;
  Stopwatch watch;
  ReadCounters counters;
  std::optional<Match> out;

  {
    ReadCounterScope scope(&counters);
    if (batches_.has_value()) {
      BatchState& b = *batches_;
      while (b.pos < b.matches.size() || !b.done) {
        if (b.pos == b.matches.size()) {
          RunBatch();
          continue;
        }
        const NodeRecord& rec = b.matches[b.pos++];
        if (skipped_ < options_.offset) {
          ++skipped_;
          continue;
        }
        ++delivered_;
        ++stats_.output_rows;
        out = projector_.Project(rec, options_.projection);
        break;
      }
      if (!out.has_value()) exhausted_ = true;
    } else if (stream_.has_value()) {
      while (std::optional<NodeRecord> rec = NextStreamMatch()) {
        if (skipped_ < options_.offset) {
          ++skipped_;
          continue;
        }
        ++delivered_;
        ++stats_.output_rows;
        out = projector_.Project(*rec, options_.projection);
        break;
      }
      if (!out.has_value()) exhausted_ = true;
    } else {
      while (pos_ < bindings_.size()) {
        const DLabel& binding = bindings_[pos_++];
        if (skipped_ < options_.offset) {
          ++skipped_;
          continue;
        }
        ++delivered_;
        if (options_.limit > 0 || options_.offset > 0) {
          ++stats_.output_rows;  // see Init: truncating cursors count
                                 // deliveries
        }
        if (options_.projection == Projection::kDLabel) {
          // The binding already carries the full D-label: no lookup.
          Match match;
          match.start = binding.start;
          match.end = binding.end;
          match.level = binding.level;
          out = std::move(match);
        } else {
          out = projector_.ProjectStart(binding.start, options_.projection);
        }
        break;
      }
      if (!out.has_value()) exhausted_ = true;
    }
  }

  if (options_.limit > 0 && delivered_ >= options_.limit) exhausted_ = true;
  stats_.elements += counters.elements;
  stats_.page_fetches += counters.fetches;
  stats_.page_misses += counters.misses;
  stats_.io_reads += counters.io_reads;
  millis_ += watch.ElapsedMillis();
  return out;
}

QueryResult ResultCursor::Drain() {
  QueryResult result;

  if (streaming()) {
    // One delivery loop: Next() owns the offset/limit/projection and
    // accounting semantics.
    while (std::optional<Match> match = Next()) {
      result.starts.push_back(match->start);
      if (options_.projection != Projection::kDLabel) {
        result.matches.push_back(std::move(*match));
      }
    }
  } else if (!exhausted_) {
    // Materialized bulk path: consume any remaining offset, then take up
    // to the limit. With the default kDLabel projection no per-match
    // lookups happen (a full engine run's cost).
    Stopwatch watch;
    ReadCounters counters;
    {
      ReadCounterScope scope(&counters);
      uint64_t skip = options_.offset - skipped_;
      uint64_t advance =
          std::min<uint64_t>(skip, bindings_.size() - pos_);
      pos_ += advance;
      skipped_ += advance;
      size_t end = bindings_.size();
      if (options_.limit > 0) {
        end = pos_ + std::min<uint64_t>(options_.limit - delivered_,
                                        end - pos_);
      }
      result.starts.reserve(end - pos_);
      for (size_t i = pos_; i < end; ++i) {
        result.starts.push_back(bindings_[i].start);
      }
      if (options_.projection != Projection::kDLabel) {
        result.matches.reserve(end - pos_);
        for (size_t i = pos_; i < end; ++i) {
          result.matches.push_back(projector_.ProjectStart(
              bindings_[i].start, options_.projection));
        }
      }
      delivered_ += end - pos_;
      pos_ = end;
    }
    if (options_.limit > 0 || options_.offset > 0) {
      // See Next(): delivered count, not the engine's untruncated count.
      stats_.output_rows = delivered_;
    }
    stats_.elements += counters.elements;
    stats_.page_fetches += counters.fetches;
    stats_.page_misses += counters.misses;
    stats_.io_reads += counters.io_reads;
    millis_ += watch.ElapsedMillis();
  }

  exhausted_ = true;
  result.stats = stats_;
  result.shape = shape_;
  result.millis = millis_;
  result.offset_skipped = skipped_;
  return result;
}

}  // namespace blas
