#include <memory>
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

  RandomQueryGen qgen(seed * 7919 + 1, kTags, kValues);
  for (int i = 0; i < 40; ++i) {
    Query query = qgen.Generate();
    std::vector<uint32_t> expected = NaiveEvalStarts(query, *sys->dom());
    for (Translator translator :
         {Translator::kDLabel, Translator::kSplit, Translator::kPushUp,
          Translator::kUnfold}) {
      for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
        Result<QueryResult> result =
            sys->Execute(query, {.translator = translator, .engine = engine});
        if (!result.ok() &&
            result.status().code() == StatusCode::kUnsupported) {
          continue;
        }
        ASSERT_TRUE(result.ok())
            << "seed=" << seed << " query=" << query.ToString() << " ["
            << TranslatorName(translator) << "/" << EngineName(engine)
            << "]: " << result.status().ToString();
        EXPECT_EQ(result->starts, expected)
            << "seed=" << seed << " query=" << query.ToString() << " ["
            << TranslatorName(translator) << "/" << EngineName(engine)
            << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace blas
