#include "blas/blas.h"

#include <utility>

#include <algorithm>
#include <map>

#include "common/stopwatch.h"
#include "exec/optimizer.h"
#include "labeling/labeler.h"
#include "storage/persist.h"
#include "translate/sql_render.h"
#include "xml/sax_parser.h"
#include "xpath/parser.h"

namespace blas {

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kRelational:
      return "RDBMS";
    case Engine::kTwig:
      return "TwigJoin";
    case Engine::kAuto:
      return "Auto";
  }
  return "?";
}

Engine ChooseEngine(const ExecPlan& plan, const CostModel& model) {
  if (plan.parts.size() <= 1) return Engine::kRelational;
  if (plan.parts.size() >= 3) return Engine::kTwig;
  uint64_t total = 0;
  for (const PlanPart& part : plan.parts) {
    total += model.EstimateCardinality(part);
  }
  uint64_t ret = model.EstimateCardinality(plan.parts[plan.return_part]);
  return total > 4 * ret ? Engine::kTwig : Engine::kRelational;
}

Result<BlasSystem> BlasSystem::FromXml(std::string_view xml,
                                       const BlasOptions& options) {
  return FromEvents(
      [xml](SaxHandler* handler) {
        SaxParser parser;
        // Parse errors surface through the labeling pass; the first pass
        // validates the document fully.
        (void)parser.Parse(xml, handler);
      },
      options);
}

Result<BlasSystem> BlasSystem::FromEvents(
    const std::function<void(SaxHandler*)>& emit, const BlasOptions& options) {
  BlasSystem sys;

  // Pass 1: alphabet, depth, node count (sizes the P-label codec).
  sys.tags_ = std::make_unique<TagRegistry>();
  TagCollector collector(sys.tags_.get());
  emit(&collector);
  if (collector.node_count() == 0) {
    return Status::InvalidArgument("document has no elements");
  }
  sys.node_count_ = collector.node_count();
  sys.max_depth_ = collector.max_depth();
  sys.tags_->Freeze();

  BLAS_ASSIGN_OR_RETURN(
      PLabelCodec codec,
      PLabelCodec::Create(sys.tags_->size(), collector.max_depth()));
  sys.codec_ = std::make_unique<PLabelCodec>(std::move(codec));

  // Pass 2: labeling (index generation).
  Labeler labeler(*sys.tags_, *sys.codec_);
  emit(&labeler);
  BLAS_RETURN_NOT_OK(labeler.status());
  if (labeler.records().size() != sys.node_count_) {
    return Status::Internal(
        "event source replayed a different document between passes");
  }

  // Number the values in collation order, so that every value predicate
  // selects one id interval.
  const std::vector<uint32_t> remap = labeler.dict().Collate();
  for (NodeRecord& rec : labeler.records()) {
    if (rec.data != kNullData) rec.data = remap[rec.data];
  }

  sys.summary_ = std::make_unique<PathSummary>(labeler.TakeSummary());
  sys.dict_ = std::make_unique<StringDict>(std::move(labeler.dict()));
  sys.store_ = std::make_unique<NodeStore>(std::move(labeler.records()),
                                           options.cache_pages,
                                           options.cache_shards);

  if (options.keep_dom) {
    DomBuilder dom_builder;
    emit(&dom_builder);
    BLAS_ASSIGN_OR_RETURN(DomTree tree, dom_builder.Take());
    sys.dom_ = std::make_unique<DomTree>(std::move(tree));
  }
  return sys;
}

Status BlasSystem::SavePagedIndex(const std::string& path) const {
  PagedSnapshotParts parts;
  parts.store = store_.get();
  parts.tags = tags_.get();
  parts.dict = dict_.get();
  parts.summary = summary_.get();
  parts.max_depth = max_depth_;
  return SavePagedSnapshot(parts, path);
}

Result<BlasSystem> BlasSystem::OpenPaged(const std::string& path,
                                         const StorageOptions& storage) {
  BLAS_ASSIGN_OR_RETURN(PagedIndex index, OpenPagedSnapshot(path));

  BlasSystem sys;
  sys.tags_ = std::make_unique<TagRegistry>();
  for (const std::string& tag : index.tags) sys.tags_->Intern(tag);
  sys.tags_->Freeze();
  if (sys.tags_->size() != index.tags.size()) {
    return Status::Corruption("duplicate tag names in " + path);
  }
  sys.max_depth_ = index.max_depth;
  sys.node_count_ = index.node_count;

  BLAS_ASSIGN_OR_RETURN(
      PLabelCodec codec,
      PLabelCodec::Create(sys.tags_->size(), index.max_depth));
  sys.codec_ = std::make_unique<PLabelCodec>(std::move(codec));

  // Replay the flattened path summary (preorder: parents first). The
  // P-labels are not persisted — they re-derive from the codec, which is
  // itself a pure function of the tag alphabet and depth.
  sys.summary_ = std::make_unique<PathSummary>();
  std::vector<SummaryNode*> nodes;
  nodes.reserve(index.summary.size());
  for (const PagedSummaryEntry& entry : index.summary) {
    SummaryNode* parent = entry.parent == 0xFFFFFFFFu
                              ? sys.summary_->mutable_root()
                              : nodes[entry.parent];
    PLabel plabel = entry.parent == 0xFFFFFFFFu
                        ? sys.codec_->RootLabel(entry.tag)
                        : sys.codec_->ChildLabel(parent->plabel, entry.tag);
    SummaryNode* node = sys.summary_->Extend(parent, entry.tag, plabel);
    node->count = entry.count;
    nodes.push_back(node);
  }

  // The store's value reads step through the document's P-labels.
  std::vector<PLabel>& plabels = index.store_meta.plabels;
  for (const SummaryNode* node : nodes) plabels.push_back(node->plabel);
  std::sort(plabels.begin(), plabels.end());

  BLAS_ASSIGN_OR_RETURN(PagedFile file, index.OpenPool());
  sys.store_ = std::make_unique<NodeStore>(std::move(file),
                                           index.store_meta, storage);
  sys.dict_ = std::make_unique<StringDict>();
  sys.dict_->AttachPaged(&sys.store_->pool(), std::move(index.dict_layout));
  return sys;
}

Result<BlasSystem> BlasSystem::FromIndexFile(const std::string& path,
                                             const BlasOptions& options) {
  BLAS_ASSIGN_OR_RETURN(IndexSnapshot snapshot, LoadSnapshot(path));

  BlasSystem sys;
  sys.tags_ = std::make_unique<TagRegistry>();
  for (const std::string& tag : snapshot.tags) sys.tags_->Intern(tag);
  sys.tags_->Freeze();
  sys.max_depth_ = snapshot.max_depth;
  sys.node_count_ = snapshot.records.size();

  BLAS_ASSIGN_OR_RETURN(
      PLabelCodec codec,
      PLabelCodec::Create(sys.tags_->size(), snapshot.max_depth));
  sys.codec_ = std::make_unique<PLabelCodec>(std::move(codec));

  sys.dict_ = std::make_unique<StringDict>();
  for (const std::string& value : snapshot.values) {
    sys.dict_->Intern(value);
  }

  // Rebuild the path summary from the persisted labels: each distinct
  // P-label decodes to exactly one simple path (definition 3.3).
  sys.summary_ = std::make_unique<PathSummary>();
  std::map<PLabel, uint64_t> path_counts;
  for (const NodeRecord& rec : snapshot.records) {
    if (rec.level > snapshot.max_depth || rec.level < 1 ||
        rec.tag > sys.tags_->size() ||
        (rec.data != kNullData && rec.data >= sys.dict_->size())) {
      return Status::Corruption("record out of range in " + path);
    }
    path_counts[rec.plabel]++;
  }
  for (const auto& [plabel, count] : path_counts) {
    std::vector<TagId> tags = sys.codec_->DecodePath(plabel);
    if (tags.empty()) return Status::Corruption("undecodable label");
    SummaryNode* node = sys.summary_->mutable_root();
    PLabel running = 0;
    for (size_t i = 0; i < tags.size(); ++i) {
      running = i == 0 ? sys.codec_->RootLabel(tags[i])
                       : sys.codec_->ChildLabel(running, tags[i]);
      node = sys.summary_->Extend(node, tags[i], running);
    }
    node->count += count;
  }

  sys.store_ = std::make_unique<NodeStore>(std::move(snapshot.records),
                                           options.cache_pages,
                                           options.cache_shards);
  return sys;
}

ResultCursor::Env BlasSystem::cursor_env() const {
  ResultCursor::Env env;
  env.store = store_.get();
  env.dict = dict_.get();
  env.tags = tags_.get();
  env.codec = codec_.get();
  env.summary = summary_.get();
  return env;
}

TranslateContext BlasSystem::translate_context() const {
  TranslateContext ctx;
  ctx.tags = tags_.get();
  ctx.codec = codec_.get();
  ctx.summary = summary_.get();
  return ctx;
}

Result<ExecPlan> BlasSystem::Plan(std::string_view xpath,
                                  Translator translator) const {
  BLAS_ASSIGN_OR_RETURN(Query query, ParseXPath(xpath));
  return Plan(query, translator);
}

Result<ExecPlan> BlasSystem::Plan(const Query& query,
                                  Translator translator) const {
  return Translate(query, translator, translate_context());
}

Result<ResultCursor> BlasSystem::Open(std::string_view xpath,
                                      const QueryOptions& options) const {
  BLAS_ASSIGN_OR_RETURN(Query query, ParseXPath(xpath));
  return Open(query, options);
}

Result<ResultCursor> BlasSystem::Open(const Query& query,
                                      const QueryOptions& options) const {
  BLAS_ASSIGN_OR_RETURN(ExecPlan plan, Plan(query, options.translator));
  if (options.exec.optimize_join_order) {
    CostModel model(summary_.get(), dict_.get());
    plan = OptimizeJoinOrder(plan, model);
  }
  return OpenPlan(std::make_shared<const ExecPlan>(std::move(plan)),
                  options.engine, options);
}

Result<ResultCursor> BlasSystem::OpenPlan(std::shared_ptr<const ExecPlan> plan,
                                          Engine engine,
                                          const QueryOptions& options,
                                          const StreamPlanInfo* stream_info)
    const {
  if (engine == Engine::kAuto && plan != nullptr) {
    CostModel model(summary_.get(), dict_.get());
    engine = ChooseEngine(*plan, model);
  }
  return ResultCursor::Open(cursor_env(), std::move(plan), engine, options,
                            stream_info);
}

StreamPlanInfo BlasSystem::AnalyzeStreamability(const ExecPlan& plan) const {
  return ResultCursor::AnalyzePlan(plan, cursor_env());
}

Result<QueryResult> BlasSystem::Execute(std::string_view xpath,
                                        const QueryOptions& options) const {
  BLAS_ASSIGN_OR_RETURN(ResultCursor cursor, Open(xpath, options));
  return cursor.Drain();
}

Result<QueryResult> BlasSystem::Execute(const Query& query,
                                        const QueryOptions& options) const {
  BLAS_ASSIGN_OR_RETURN(ResultCursor cursor, Open(query, options));
  return cursor.Drain();
}

Result<QueryResult> BlasSystem::ExecutePlan(const ExecPlan& plan,
                                            Engine engine) const {
  // The cursor only borrows the plan for the duration of the drain.
  std::shared_ptr<const ExecPlan> borrowed(&plan, [](const ExecPlan*) {});
  BLAS_ASSIGN_OR_RETURN(ResultCursor cursor,
                        OpenPlan(std::move(borrowed), engine, {}));
  return cursor.Drain();
}

Result<std::string> BlasSystem::ExplainSql(std::string_view xpath,
                                           Translator translator) const {
  BLAS_ASSIGN_OR_RETURN(ExecPlan plan, Plan(xpath, translator));
  return RenderSql(plan, *tags_);
}

Result<std::string> BlasSystem::ExplainAlgebra(std::string_view xpath,
                                               Translator translator) const {
  BLAS_ASSIGN_OR_RETURN(ExecPlan plan, Plan(xpath, translator));
  return RenderAlgebra(plan, *tags_);
}

BlasSystem::DocStats BlasSystem::doc_stats() const {
  DocStats stats;
  stats.nodes = node_count_;
  stats.tags = tags_->size();
  stats.depth = max_depth_;
  stats.distinct_paths = summary_->path_count();
  stats.pages = store_->page_count();
  stats.distinct_values = dict_->size();
  return stats;
}

void BlasSystem::ResetCounters() {
  store_->ResetStats();
  store_->DropCache();
}

}  // namespace blas
