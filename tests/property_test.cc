#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
    if (rng_.Percent(20)) {
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
  int num_values_;
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

/// Builds the large differential tests' document — about 96k records,
/// past the 86,955 one SP root holds (341 leaves of 255) and the 74,715
/// one value-tree root holds (293 leaves), so both trees have an internal
/// level below the root (SkipTo's parent tier runs), with rare values
/// (about 2k) — and its BLASIDX2 copy,
/// saved to `path` and demand-paged through a two-frame pool.
constexpr uint64_t kLargeSeed = 101;
constexpr int kLargeTags = 6;
constexpr int kLargeValues = 2000;

void BuildLargeDoc(const std::string& path, std::optional<BlasSystem>* sys,
                   std::optional<BlasSystem>* paged) {
  BlasOptions options;
  options.keep_dom = true;
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [&](SaxHandler* h) {
        GenerateRandomDoc(kLargeSeed, /*approx_nodes=*/96000, kLargeTags,
                          /*max_depth=*/5, kLargeValues, h);
      },
      options);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_GE(built->store().paged_meta().sp.height, 3);
  ASSERT_GE(built->store().paged_meta().value.height, 3);
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
  // literal.
  const std::string path = testing::TempDir() + "/property_large.idx2";
  std::optional<BlasSystem> sys, paged;
  BuildLargeDoc(path, &sys, &paged);
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
  // rounds — under eviction in the paged copy.
  const std::string path = testing::TempDir() + "/property_batches.idx2";
  std::optional<BlasSystem> sys, paged;
  BuildLargeDoc(path, &sys, &paged);
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
