// Failure-injection / fuzz-style robustness tests: malformed XML, malformed
// XPath and random byte strings must produce Status errors (never crashes),
// and near-miss documents must fail cleanly at the right layer.

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "xml/sax_parser.h"
#include "xpath/parser.h"

namespace blas {
namespace {

/// Generates printable-ish random bytes biased toward XML metacharacters.
std::string RandomBytes(Rng* rng, size_t len) {
  static constexpr char kAlphabet[] =
      "<>/=\"'&;[]() abcdefgzXY0129_-.!?#\t\n";
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->Below(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class NullHandler : public SaxHandler {
 public:
  void OnStartElement(std::string_view,
                      const std::vector<XmlAttribute>&) override {}
  void OnEndElement(std::string_view) override {}
  void OnText(std::string_view) override {}
};

TEST(RobustnessTest, SaxParserNeverCrashesOnRandomInput) {
  Rng rng(99);
  SaxParser parser;
  NullHandler handler;
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, rng.Between(0, 200));
    // Must return (either status); the assertion is "no crash/UB".
    Status s = parser.Parse(input, &handler);
    (void)s;
  }
}

TEST(RobustnessTest, SaxParserNeverCrashesOnMutatedValidInput) {
  const std::string valid =
      "<a x=\"1\"><b>text &amp; more</b><c><!-- hi --><d/></c></a>";
  Rng rng(7);
  SaxParser parser;
  NullHandler handler;
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    int mutations = static_cast<int>(rng.Between(1, 4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Between(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, '<');
      }
      if (mutated.empty()) break;
    }
    Status s = parser.Parse(mutated, &handler);
    (void)s;
  }
}

TEST(RobustnessTest, XPathParserNeverCrashesOnRandomInput) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    std::string input = RandomBytes(&rng, rng.Between(0, 80));
    Result<Query> q = ParseXPath(input);
    if (q.ok()) {
      // Whatever parsed must render and re-parse consistently.
      Result<Query> again = ParseXPath(q->ToString());
      EXPECT_TRUE(again.ok()) << q->ToString();
    }
  }
}

TEST(RobustnessTest, SystemFromInvalidXmlFailsCleanly) {
  for (const char* bad :
       {"", "   ", "<a>", "<a></b>", "plain text", "<a><b></a></b>",
        "<a>&undefined;</a>", "<!DOCTYPE a>"}) {
    Result<BlasSystem> sys = BlasSystem::FromXml(bad);
    EXPECT_FALSE(sys.ok()) << "input: " << bad;
  }
}

TEST(RobustnessTest, ExecuteWithBadQueryFailsCleanly) {
  BlasSystem sys = MustBuild("<a><b/></a>");
  for (const char* bad : {"", "b", "/a[", "//", "/a=\"x", "/a//[b]"}) {
    EXPECT_FALSE(
        sys.Execute(bad, {.translator = Translator::kSplit,
                          .engine = Engine::kRelational}).ok())
        << bad;
  }
}

TEST(RobustnessTest, DeepDocumentHitsParserGuard) {
  // 600 nested elements exceed the parser's recursion guard (512).
  std::string open;
  std::string close;
  for (int i = 0; i < 600; ++i) {
    open += "<d>";
    close += "</d>";
  }
  Result<BlasSystem> sys = BlasSystem::FromXml(open + close);
  EXPECT_FALSE(sys.ok());
}

TEST(RobustnessTest, ManyTagsDeepDocExceedsCodecCapacity) {
  // 300 distinct tags, depth 30: (301)^31 >> 2^128 -> CapacityExceeded.
  std::string xml;
  for (int i = 0; i < 270; ++i) {
    xml += "<pad" + std::to_string(i) + "/>";
  }
  std::string open;
  std::string close;
  for (int i = 0; i < 30; ++i) {
    open += "<t" + std::to_string(i) + ">";
    close = "</t" + std::to_string(i) + ">" + close;
  }
  xml = "<root>" + xml + open + close + "</root>";
  Result<BlasSystem> sys = BlasSystem::FromXml(xml);
  ASSERT_FALSE(sys.ok());
  EXPECT_EQ(sys.status().code(), StatusCode::kCapacityExceeded);
}

TEST(RobustnessTest, MismatchedEventReplayDetected) {
  // FromEvents with a non-deterministic source must be caught.
  int call = 0;
  Result<BlasSystem> sys = BlasSystem::FromEvents([&call](SaxHandler* h) {
    ++call;
    h->OnStartElement("a", {});
    if (call > 1) {
      h->OnStartElement("b", {});
      h->OnEndElement("b");
    }
    h->OnEndElement("a");
  });
  EXPECT_FALSE(sys.ok());
}

TEST(RobustnessTest, HugeValuesAndNamesSurvive) {
  std::string big_value(100000, 'x');
  std::string xml = "<a><b>" + big_value + "</b><b attr=\"" + big_value +
                    "\"/></a>";
  BlasSystem sys = MustBuild(xml);
  Result<QueryResult> r = sys.Execute(
      "//b=\"" + big_value + "\"",
      {.translator = Translator::kSplit, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->starts.size(), 1u);
}

}  // namespace
}  // namespace blas
