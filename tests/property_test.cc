#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/optimizer.h"
#include "gen/generator.h"
#include "tests/test_util.h"

namespace blas {
namespace {

/// Builds a random query tree over the t0..t{k-1} alphabet (occasionally a
/// tag that does not exist, plus the fixed "root" tag and attribute names),
/// with random axes, branches and value predicates.
class RandomQueryGen {
 public:
  RandomQueryGen(uint64_t seed, int num_tags, int num_values)
      : rng_(seed), num_tags_(num_tags), num_values_(num_values) {}

  /// Draws value predicates from `literals` with all six operators
  /// equally likely, instead of "vN" literals with mostly `=`.
  RandomQueryGen(uint64_t seed, int num_tags,
                 std::vector<std::string> literals)
      : rng_(seed), num_tags_(num_tags), literals_(std::move(literals)) {}

  Query Generate() {
    Query q;
    q.root = MakeNode(0);
    // Mark a random node as the return node.
    std::vector<QueryNode*> all;
    CollectNodes(q.root.get(), &all);
    all[rng_.Below(all.size())]->is_return = true;
    return q;
  }

 private:
  std::unique_ptr<QueryNode> MakeNode(int depth) {
    auto node = std::make_unique<QueryNode>();
    uint64_t pick = rng_.Below(100);
    if (pick < 8) {
      node->tag = "root";
    } else if (pick < 14) {
      node->tag = "@a" + std::to_string(rng_.Below(3));
    } else if (pick < 18) {
      node->tag = "zz_missing";  // tag absent from every document
    } else {
      node->tag = "t" + std::to_string(rng_.Below(num_tags_));
    }
    node->axis = rng_.Percent(45) ? Axis::kDescendant : Axis::kChild;
    if (!literals_.empty() && rng_.Percent(30)) {
      constexpr ValueOp kOps[] = {ValueOp::kEq, ValueOp::kNe, ValueOp::kLt,
                                  ValueOp::kLe, ValueOp::kGt, ValueOp::kGe};
      node->value = ValuePred{kOps[rng_.Below(6)],
                              literals_[rng_.Below(literals_.size())]};
    } else if (literals_.empty() && rng_.Percent(20)) {
      ValueOp op = ValueOp::kEq;
      uint64_t op_pick = rng_.Below(10);
      if (op_pick == 0) op = ValueOp::kNe;
      if (op_pick == 1) op = ValueOp::kLt;
      if (op_pick == 2) op = ValueOp::kGe;
      node->value =
          ValuePred{op, "v" + std::to_string(rng_.Below(num_values_))};
    }
    if (depth < 3) {
      int children = 0;
      uint64_t shape = rng_.Below(100);
      if (shape < 45) {
        children = 1;
      } else if (shape < 65) {
        children = 2;
      } else if (shape < 70) {
        children = 3;
      }
      for (int c = 0; c < children; ++c) {
        node->children.push_back(MakeNode(depth + 1));
      }
    }
    return node;
  }

  static void CollectNodes(QueryNode* node, std::vector<QueryNode*>* out) {
    out->push_back(node);
    for (auto& child : node->children) CollectNodes(child.get(), out);
  }

  Rng rng_;
  int num_tags_;
  int num_values_ = 0;
  std::vector<std::string> literals_;
};

/// Checks every translator × engine against the naive answers, unbounded
/// and through bounded cursors over an offset × limit grid (each a slice
/// of the naive answer). Counts into `multi_batch` the bounded runs that
/// executed their plan's D-joins more than once (return-first cursors
/// run the plan once per batch).
void ExpectMatchesNaive(const BlasSystem& sys, const std::string& where,
                        const Query& query,
                        const std::vector<uint32_t>& expected,
                        uint64_t* multi_batch = nullptr) {
  for (Translator translator :
       {Translator::kDLabel, Translator::kSplit, Translator::kPushUp,
        Translator::kUnfold}) {
    for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
      const std::string what = where + " query=" + query.ToString() + " [" +
                               TranslatorName(translator) + "/" +
                               EngineName(engine) + "]";
      Result<QueryResult> result =
          sys.Execute(query, {.translator = translator, .engine = engine});
      if (!result.ok() && result.status().code() == StatusCode::kUnsupported) {
        continue;
      }
      ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
      EXPECT_EQ(result->starts, expected) << what;

      for (uint64_t offset : {0u, 3u}) {
        for (uint64_t limit : {1u, 10u, 100u}) {
          Result<QueryResult> bounded =
              sys.Execute(query, {.translator = translator,
                                  .engine = engine,
                                  .limit = limit,
                                  .offset = offset});
          ASSERT_TRUE(bounded.ok())
              << what << ": " << bounded.status().ToString();
          const size_t from = std::min<size_t>(offset, expected.size());
          const size_t to = std::min<size_t>(from + limit, expected.size());
          EXPECT_EQ(bounded->starts,
                    std::vector<uint32_t>(expected.begin() + from,
                                          expected.begin() + to))
              << what << " offset=" << offset << " limit=" << limit;
          const uint64_t joins = bounded->shape.d_joins;
          if (multi_batch != nullptr && joins > 0 &&
              bounded->stats.d_joins > joins) {
            ++*multi_batch;
          }
        }
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllTranslatorsAndEnginesMatchNaiveEval) {
  const uint64_t seed = GetParam();
  constexpr int kTags = 6;
  constexpr int kValues = 4;

  BlasOptions options;
  options.keep_dom = true;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [&](SaxHandler* h) {
        GenerateRandomDoc(seed, /*approx_nodes=*/400, kTags,
                          /*max_depth=*/9, kValues, h);
      },
      options);
  ASSERT_TRUE(sys.ok()) << sys.status();

  // The same document demand-paged from its BLASIDX2 snapshot through a
  // two-frame pool: every scan and skip runs under eviction.
  const std::string path = testing::TempDir() + "/property_" +
                           std::to_string(seed) + ".idx2";
  ASSERT_TRUE(sys->SavePagedIndex(path).ok());
  StorageOptions storage;
  storage.frames_per_shard = 2;
  storage.shards = 1;
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
  ASSERT_TRUE(paged.ok()) << paged.status();

  RandomQueryGen qgen(seed * 7919 + 1, kTags, kValues);
  const std::string where = "seed=" + std::to_string(seed);
  for (int i = 0; i < 40; ++i) {
    Query query = qgen.Generate();
    std::vector<uint32_t> expected = NaiveEvalStarts(query, *sys->dom());
    ExpectMatchesNaive(*sys, where, query, expected);
    ExpectMatchesNaive(*paged, where + " paged", query, expected);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

/// Values of the numeric differential document: spellings of one number
/// ("7", "7.0", "07", " 7 "), zero and negative zero, a negative fraction,
/// other numbers and text XPath does not read as a number.
const std::vector<std::string>& NumericDocValues() {
  static const std::vector<std::string> values = {
      "7", "7.0", "07", " 7 ", "0", "-0", "-3.5", "12", "abc", "x7", "zz"};
  return values;
}

/// A random document over the root/t0..t4/@a0..@a2 alphabet whose texts
/// and attribute values are drawn from NumericDocValues.
std::string NumericDoc(uint64_t seed, int nodes) {
  Rng rng(seed);
  const std::vector<std::string>& values = NumericDocValues();
  auto value = [&] { return values[rng.Below(values.size())]; };
  std::string xml = "<root>";
  int budget = nodes;
  auto emit = [&](auto&& self, int depth) -> void {
    const std::string tag = "t" + std::to_string(rng.Below(5));
    --budget;
    xml += "<" + tag;
    if (rng.Percent(20)) {
      xml += " a" + std::to_string(rng.Below(3)) + "=\"" + value() + "\"";
      --budget;
    }
    xml += ">";
    if (rng.Percent(55)) xml += value();
    while (depth < 6 && budget > 0 && rng.Percent(55)) self(self, depth + 1);
    xml += "</" + tag + ">";
  };
  while (budget > 0) emit(emit, 2);
  return xml + "</root>";
}

TEST(DifferentialNumericTest, OrderedComparisonsMatchNaiveEvalAndCounts) {
  // Every operator against numeric and non-numeric literals, over values
  // whose collation order differs from byte order. Per value part, the
  // exact count from the value tree equals a count over every record;
  // every cursor mode equals the naive answers, in memory and through a
  // two-frame paged pool.
  BlasSystem sys = MustBuild(NumericDoc(17, 2000));
  const std::string path = testing::TempDir() + "/property_numeric.idx2";
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());
  StorageOptions storage;
  storage.frames_per_shard = 2;
  storage.shards = 1;
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
  ASSERT_TRUE(paged.ok()) << paged.status();

  std::vector<std::string> literals = NumericDocValues();
  for (const char* extra : {"6.5", "-1", "100", "", "b"}) {
    literals.push_back(extra);
  }
  // Random query trees, plus every operator and literal in three shapes
  // (a filtered step, a filtered branch, a filtered attribute branch)
  // that have answers far more often.
  std::vector<Query> queries;
  RandomQueryGen qgen(29, /*num_tags=*/5, literals);
  for (int i = 0; i < 40; ++i) queries.push_back(qgen.Generate());
  Rng rng(31);
  auto tag = [&] { return "t" + std::to_string(rng.Below(5)); };
  for (ValueOp op : {ValueOp::kEq, ValueOp::kNe, ValueOp::kLt, ValueOp::kLe,
                     ValueOp::kGt, ValueOp::kGe}) {
    for (const std::string& literal : literals) {
      const std::string cmp =
          std::string(" ") + ValueOpText(op) + " \"" + literal + "\"";
      std::string xpath;
      switch (rng.Below(3)) {
        case 0: xpath = "//" + tag() + cmp; break;
        case 1: xpath = "//" + tag() + "[" + tag() + cmp + "]"; break;
        default:
          xpath = "//" + tag() + "[@a" + std::to_string(rng.Below(3)) + cmp +
                  "]/" + tag();
      }
      Result<Query> query = ParseXPath(xpath);
      ASSERT_TRUE(query.ok()) << xpath << ": " << query.status();
      queries.push_back(std::move(query).value());
    }
  }
  const std::vector<NodeRecord> records = sys.store().ExportRecords();
  uint64_t counted = 0, ordered_matches = 0;
  int with_answers = 0;
  for (const Query& query : queries) {
    const std::string text = query.ToString();
    for (Translator translator :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      Result<ExecPlan> plan = sys.Plan(text, translator);
      if (!plan.ok()) continue;  // e.g. Split refusing a wildcard
      for (const PlanPart& part : plan->parts) {
        if (!part.value.has_value() ||
            part.scan != PlanPart::Scan::kPlabelAlts) {
          continue;
        }
        CostModel::ValueShare want;
        for (const NodeRecord& rec : records) {
          bool in = false;
          for (const PlanAlt& alt : part.alts) {
            in = in || alt.range.Contains(rec.plabel);
          }
          if (!in) continue;
          ++want.records;
          const std::string_view value =
              rec.data == kNullData ? std::string_view()
                                    : sys.dict().Get(rec.data);
          if (part.value->Matches(value)) ++want.matches;
        }
        for (const BlasSystem* s : {&sys, &*paged}) {
          CostModel model(&s->summary(), &s->dict());
          Result<CostModel::ValueShare> got =
              model.ValueCount(part, s->store());
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(got->records, want.records) << text << " " << part.label;
          EXPECT_EQ(got->matches, want.matches)
              << text << " " << part.label << " "
              << ValueOpText(part.value->op) << " \"" << part.value->literal
              << "\"" << (s == &sys ? "" : " paged");
        }
        ++counted;
        if (part.value->op != ValueOp::kEq && part.value->op != ValueOp::kNe) {
          ordered_matches += want.matches;
        }
      }
    }
    std::vector<uint32_t> expected = NaiveEvalStarts(query, *sys.dom());
    if (!expected.empty()) ++with_answers;
    ExpectMatchesNaive(sys, "numeric", query, expected);
    ExpectMatchesNaive(*paged, "numeric paged", query, expected);
  }
  EXPECT_GT(counted, 20u);
  EXPECT_GT(ordered_matches, 0u);  // the numeric block is exercised
  EXPECT_GE(with_answers, 40);
  std::remove(path.c_str());
}

/// True when some node below the query root carries an equality literal —
/// a part a plan can seed from.
bool HasInnerEquality(const QueryNode& node, bool root) {
  if (!root && node.value.has_value() && node.value->op == ValueOp::kEq) {
    return true;
  }
  for (const auto& child : node.children) {
    if (HasInnerEquality(*child, false)) return true;
  }
  return false;
}

/// A query with at least one answer, built around a random node of `dom`
/// at depth 4 or more that carries text: its grandparent, its parent
/// filtered by the node's value, and the parent or another of its
/// children returned, with random axes and an absolute or descendant
/// lead.
std::string MatchingQuery(const DomTree& dom, Rng* rng) {
  std::vector<const DomNode*> candidates;
  dom.ForEach([&](const DomNode* node) {
    if (node->level >= 4 && !node->text.empty()) candidates.push_back(node);
  });
  const DomNode* node = candidates[rng->Below(candidates.size())];
  const DomNode* parent = node->parent;
  const DomNode* grand = parent->parent;
  std::string lead;
  if (rng->Percent(30)) {
    lead = DomTree::SourcePath(grand);
  } else {
    lead = "//" + grand->tag;
  }
  std::string xpath = lead + (rng->Percent(50) ? "/" : "//") + parent->tag +
                      "[" + node->tag + "=\"" + node->text + "\"]";
  std::vector<const DomNode*> others;
  for (const auto& child : parent->children) {
    if (child.get() != node && !child->is_attribute()) {
      others.push_back(child.get());
    }
  }
  if (!others.empty() && rng->Percent(60)) {
    xpath += "/" + others[rng->Below(others.size())]->tag;
  }
  return xpath;
}

/// Builds a large differential test's document — `nodes` records, with
/// rare values (about 2k) — and its BLASIDX2 copy, saved to `path` and
/// demand-paged through a two-frame pool. Past 86,955 records one SP root
/// no longer holds them all (341 leaves of 255), so SP has an internal
/// level below the root and SkipTo's parent tier runs; the value tree,
/// which holds only the valued half of the records, gets one past 74,715
/// valued records (293 leaves). `value_height` is the value tree height
/// the test needs.
constexpr uint64_t kLargeSeed = 101;
constexpr int kLargeTags = 6;
constexpr int kLargeValues = 2000;

void BuildLargeDoc(const std::string& path, int nodes, int value_height,
                   std::optional<BlasSystem>* sys,
                   std::optional<BlasSystem>* paged) {
  BlasOptions options;
  options.keep_dom = true;
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [&](SaxHandler* h) {
        GenerateRandomDoc(kLargeSeed, nodes, kLargeTags, /*max_depth=*/5,
                          kLargeValues, h);
      },
      options);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_GE(built->store().paged_meta().sp.height, 3);
  ASSERT_GE(built->store().paged_meta().value.height, value_height);
  ASSERT_TRUE(built->SavePagedIndex(path).ok());
  StorageOptions storage;
  storage.frames_per_shard = 2;
  storage.shards = 1;
  Result<BlasSystem> reopened = BlasSystem::OpenPaged(path, storage);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  sys->emplace(std::move(built).value());
  paged->emplace(std::move(reopened).value());
}

TEST(DifferentialLargeTest, SeededChainsOnHeightThreeTreesMatchNaiveEval) {
  // Rare literals keep seeded plans under the root part's cap, so they run
  // their ancestor seeks. Five queries are built around document nodes
  // (so they have answers); five are random ones with an inner equality
  // literal. The literal reads seek the value tree, so it gets an
  // internal level below its root too.
  const std::string path = testing::TempDir() + "/property_large.idx2";
  std::optional<BlasSystem> sys, paged;
  BuildLargeDoc(path, /*nodes=*/152000, /*value_height=*/3, &sys, &paged);
  if (HasFatalFailure()) return;

  std::vector<Query> queries;
  Rng rng(kLargeSeed);
  while (queries.size() < 5) {
    Result<Query> query = ParseXPath(MatchingQuery(*sys->dom(), &rng));
    ASSERT_TRUE(query.ok()) << query.status();
    queries.push_back(std::move(query).value());
  }
  RandomQueryGen qgen(kLargeSeed * 7919 + 1, kLargeTags, kLargeValues);
  while (queries.size() < 10) {
    Query query = qgen.Generate();
    if (HasInnerEquality(*query.root, true)) {
      queries.push_back(std::move(query));
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<uint32_t> expected = NaiveEvalStarts(queries[i], *sys->dom());
    if (i < 5) EXPECT_FALSE(expected.empty()) << queries[i].ToString();
    ExpectMatchesNaive(*sys, "large", queries[i], expected);
    ExpectMatchesNaive(*paged, "large paged", queries[i], expected);
  }
  std::remove(path.c_str());
}

/// True when some node of the query carries an equality predicate.
bool HasEquality(const QueryNode& node) {
  if (node.value.has_value() && node.value->op == ValueOp::kEq) return true;
  for (const auto& child : node.children) {
    if (HasEquality(*child)) return true;
  }
  return false;
}

TEST(DifferentialLargeTest, ReturnFirstBatchesOnHeightThreeTreesMatchNaiveEval) {
  // Without an equality literal every bounded P-label cursor reads its
  // return part in document-order batches. On this document batches cross
  // leaves, and a return part whose matches are rare among its records
  // (a branch, or a comparison that few values pass) needs several batch
  // rounds — under eviction in the paged copy. Batches read SP (no
  // equality literal seeks the value tree here; it serves only the value
  // parts' counts), so the value tree may stay at height 2.
  const std::string path = testing::TempDir() + "/property_batches.idx2";
  std::optional<BlasSystem> sys, paged;
  BuildLargeDoc(path, /*nodes=*/96000, /*value_height=*/2, &sys, &paged);
  if (HasFatalFailure()) return;

  RandomQueryGen qgen(kLargeSeed * 104729 + 7, kLargeTags, kLargeValues);
  uint64_t multi_batch = 0;
  int with_answers = 0;
  for (int queries = 0; queries < 12;) {
    Query query = qgen.Generate();
    if (HasEquality(*query.root)) continue;
    ++queries;
    std::vector<uint32_t> expected = NaiveEvalStarts(query, *sys->dom());
    if (!expected.empty()) ++with_answers;
    ExpectMatchesNaive(*sys, "batches", query, expected, &multi_batch);
    ExpectMatchesNaive(*paged, "batches paged", query, expected,
                       &multi_batch);
  }
  EXPECT_GE(with_answers, 4);
  EXPECT_GT(multi_batch, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blas
