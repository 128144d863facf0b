#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/string_dict.h"
#include "tests/test_util.h"

namespace blas {
namespace {

constexpr char kDoc[] =
    "<inventory>"
    "<item><name>apple</name><price>30</price></item>"
    "<item><name>banana</name><price>12</price></item>"
    "<item><name>cherry</name><price>45</price></item>"
    "<item><name>banana</name></item>"  // no price
    "<item><name>date</name><price>9</price></item>"  // "9" > "30" as strings
    "</inventory>";

TEST(ValuePredTest, XPathNumberConversion) {
  EXPECT_EQ(XPathNumber("30"), 30.0);
  EXPECT_EQ(XPathNumber(" 30 "), 30.0);
  EXPECT_EQ(XPathNumber("-4.5"), -4.5);
  EXPECT_EQ(XPathNumber(".5"), 0.5);
  EXPECT_EQ(XPathNumber("12."), 12.0);
  // XPath's Number production has no '+', exponents, or bare text.
  EXPECT_TRUE(std::isnan(XPathNumber("+30")));
  EXPECT_TRUE(std::isnan(XPathNumber("1e3")));
  EXPECT_TRUE(std::isnan(XPathNumber("banana")));
  EXPECT_TRUE(std::isnan(XPathNumber("")));
  EXPECT_TRUE(std::isnan(XPathNumber("30 USD")));
  EXPECT_TRUE(std::isnan(XPathNumber(".")));
  EXPECT_TRUE(std::isnan(XPathNumber("-")));
}

TEST(ValuePredTest, MatchesSemantics) {
  // Equality stays string equality.
  ValuePred eq{ValueOp::kEq, "b"};
  EXPECT_TRUE(eq.Matches("b"));
  EXPECT_FALSE(eq.Matches("a"));
  ValuePred ne{ValueOp::kNe, "b"};
  EXPECT_FALSE(ne.Matches("b"));
  EXPECT_TRUE(ne.Matches(""));
  // Ordered operators are numeric (XPath 1.0): "9" < "30" even though it
  // compares greater as a string.
  ValuePred lt{ValueOp::kLt, "30"};
  EXPECT_TRUE(lt.Matches("9"));
  EXPECT_TRUE(lt.Matches("29.5"));
  EXPECT_FALSE(lt.Matches("30"));
  EXPECT_FALSE(lt.Matches("100"));
  ValuePred le{ValueOp::kLe, "30"};
  EXPECT_TRUE(le.Matches("30"));
  EXPECT_TRUE(le.Matches(" 30 "));
  EXPECT_FALSE(le.Matches("30.01"));
  ValuePred gt{ValueOp::kGt, "30"};
  EXPECT_TRUE(gt.Matches("100"));
  EXPECT_FALSE(gt.Matches("9"));
  ValuePred ge{ValueOp::kGe, "-2"};
  EXPECT_TRUE(ge.Matches("-1.5"));
  EXPECT_FALSE(ge.Matches("-3"));
  // Non-numeric on either side is NaN: every ordered comparison fails.
  EXPECT_FALSE(lt.Matches("banana"));
  EXPECT_FALSE(gt.Matches("banana"));
  EXPECT_FALSE(lt.Matches(""));
  ValuePred text_lt{ValueOp::kLt, "b"};
  EXPECT_FALSE(text_lt.Matches("a"));
}

TEST(ValuePredTest, ParserAcceptsAllOperators) {
  for (const char* text :
       {"//a != \"x\"", "//a < \"x\"", "//a <= \"x\"", "//a > \"x\"",
        "//a >= \"x\"", "//b[c != \"v\"]/d"}) {
    Result<Query> q = ParseXPath(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status();
    // Round-trips.
    Result<Query> again = ParseXPath(q->ToString());
    ASSERT_TRUE(again.ok()) << q->ToString();
    EXPECT_EQ(again->ToString(), q->ToString());
  }
}

TEST(ValuePredTest, AllPipelinesAgreeOnComparisons) {
  BlasSystem sys = MustBuild(kDoc);
  // String equality over names, numeric comparisons over mixed-width
  // prices (where lexicographic and numeric order genuinely differ).
  ExpectAllAgree(sys, "//item[name != \"banana\"]/price");
  ExpectAllAgree(sys, "//item[price >= \"30\"]/name");
  ExpectAllAgree(sys, "//item[price < \"30\"]/name");
  ExpectAllAgree(sys, "//price <= \"12\"");
  ExpectAllAgree(sys, "//item[name > \"apple\"]/name");  // empty: NaN
  ExpectAllAgree(sys, "//item[name = \"banana\" and price]/price");
}

TEST(ValuePredTest, ComparisonCountsMatchExpectations) {
  BlasSystem sys = MustBuild(kDoc);
  auto run = [&](const std::string& q) {
    Result<QueryResult> r =
        sys.Execute(
            q,
            {.translator = Translator::kPushUp, .engine = Engine::kRelational});
    EXPECT_TRUE(r.ok()) << q;
    return r.ok() ? r->starts.size() : size_t{0};
  };
  EXPECT_EQ(run("//name != \"banana\""), 3u);   // apple, cherry, date
  // Numeric order: 9 and 12 are below 30 even though "9" sorts above
  // "30" lexicographically.
  EXPECT_EQ(run("//price < \"30\""), 2u);       // 12, 9
  EXPECT_EQ(run("//price > \"12\""), 2u);       // 30, 45
  EXPECT_EQ(run("//price >= \"12\""), 3u);
  EXPECT_EQ(run("//price >= \"9\""), 4u);
  EXPECT_EQ(run("//item[price]/name"), 4u);     // existence only
  // Ordered comparison against non-numeric text matches nothing...
  EXPECT_EQ(run("//name < \"cherry\""), 0u);
  // ...but string inequality still sees a no-text node as "".
  EXPECT_EQ(run("//item != \"x\""), 5u);
}

TEST(ValuePredTest, SqlRendersOperator) {
  BlasSystem sys = MustBuild(kDoc);
  // Ordered operators compare numerically, so the renderer casts the
  // data column; equality stays a string comparison.
  Result<std::string> sql =
      sys.ExplainSql("//price >= \"30\"", Translator::kSplit);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("CAST(T1.data AS REAL) >= 30"), std::string::npos)
      << *sql;
  sql = sys.ExplainSql("//name != \"banana\"", Translator::kSplit);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find(".data != 'banana'"), std::string::npos) << *sql;
  // A non-numeric literal can never order-compare true.
  sql = sys.ExplainSql("//price < \"cheap\"", Translator::kSplit);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("FALSE /* non-numeric literal */"), std::string::npos)
      << *sql;
}

TEST(ValuePredTest, NonEqualityOnTwigEngine) {
  BlasSystem sys = MustBuild(kDoc);
  Result<QueryResult> r = sys.Execute(
      "//item[price > \"12\"]/name",
      {.translator = Translator::kSplit, .engine = Engine::kTwig});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->starts.size(), 2u);
}

// ------------------------------------------- collation-ordered value ids ---

/// Values that stress the collation: numeric spellings of one number
/// ("7", "7.0", "07", " 7 "), zero and negative zero, negatives and
/// fractions, values XPath does not read as numbers ("+3", "1e3", "7a"),
/// the empty string and plain text.
const std::vector<std::string>& MixedValues() {
  static const std::vector<std::string> values = {
      "7",   "7.0", "07",  " 7 ", "0",  "-0",   "-3.5", "12",    "12.5",
      ".5",  "100", "-12", "3",   "+3", "1e3",  "7a",   "apple", "Banana",
      "",    " ",   "zz",  "-",   "9",  "0.0", "-0.5"};
  return values;
}

/// Literals for every operator: each value above plus numbers between,
/// below and above them, and text that sorts among them.
std::vector<std::string> MixedLiterals() {
  std::vector<std::string> literals = MixedValues();
  for (const char* extra : {"-100", "6.99", "7.000", "8", "1000", "b", "NaN",
                            "-0.0", "5"}) {
    literals.push_back(extra);
  }
  return literals;
}

constexpr ValueOp kAllOps[] = {ValueOp::kEq, ValueOp::kNe, ValueOp::kLt,
                               ValueOp::kLe, ValueOp::kGt, ValueOp::kGe};

/// For every operator and literal, the ids `dict` selects are exactly the
/// ids whose values pass ValuePred::Matches.
void ExpectSelectAgreesWithMatches(const StringDict& dict) {
  for (ValueOp op : kAllOps) {
    for (const std::string& literal : MixedLiterals()) {
      const ValuePred pred{op, literal};
      const ValueIds ids = dict.Select(pred);
      EXPECT_LE(ids.lo, ids.hi);
      EXPECT_LE(ids.hi, dict.size());
      for (uint32_t id = 0; id < dict.size(); ++id) {
        EXPECT_EQ(ids.Contains(id), pred.Matches(dict.Get(id)))
            << "\"" << dict.Get(id) << "\" " << ValueOpText(op) << " \""
            << literal << "\"";
      }
    }
  }
}

TEST(ValueCollateTest, NumbersFirstAscendingThenBytes) {
  StringDict dict;
  for (const std::string& value : MixedValues()) dict.Intern(value);
  const std::vector<uint32_t> remap = dict.Collate();
  ASSERT_EQ(remap.size(), MixedValues().size());
  // The remap is a permutation that keeps every value findable.
  for (uint32_t old = 0; old < remap.size(); ++old) {
    EXPECT_EQ(dict.Get(remap[old]), MixedValues()[old]);
    EXPECT_EQ(dict.Find(MixedValues()[old]), remap[old]);
  }
  // Strictly ascending under ValueCollate; numbers form a prefix, in
  // numeric order with ties ("7", "7.0", "07", " 7 "; "0", "-0") by bytes.
  bool in_numbers = true;
  for (uint32_t id = 1; id < dict.size(); ++id) {
    const std::string& a = dict.Get(id - 1);
    const std::string& b = dict.Get(id);
    EXPECT_TRUE(ValueCollate()(a, b)) << "\"" << a << "\" before \"" << b << "\"";
    EXPECT_FALSE(ValueCollate()(b, a));
    const bool b_number = !std::isnan(XPathNumber(b));
    if (!b_number) in_numbers = false;
    EXPECT_TRUE(!b_number || in_numbers) << b << " after a non-number";
    if (b_number && !std::isnan(XPathNumber(a))) {
      EXPECT_LE(XPathNumber(a), XPathNumber(b));
    }
    if (!b_number && std::isnan(XPathNumber(a))) EXPECT_LT(a, b);
  }
  EXPECT_EQ(dict.Get(0), "-12");
  EXPECT_EQ(dict.Find("-0"), *dict.Find("0") - 1);  // "-0" < "0" by bytes
}

TEST(ValueCollateTest, SelectIsExactlyTheValuesMatchesPasses) {
  StringDict dict;
  for (const std::string& value : MixedValues()) dict.Intern(value);
  dict.Collate();
  ExpectSelectAgreesWithMatches(dict);
  // A literal absent from the dictionary: `=` selects nothing, `!=` all.
  EXPECT_EQ(dict.Select({ValueOp::kEq, "absent"}).lo,
            dict.Select({ValueOp::kEq, "absent"}).hi);
  EXPECT_TRUE(dict.Select({ValueOp::kNe, "absent"}).negated);
  // A literal that is no number: every ordered comparison selects nothing.
  const ValueIds none = dict.Select({ValueOp::kGe, "apple"});
  EXPECT_EQ(none.lo, none.hi);
}

TEST(ValueCollateTest, PagedDictionarySelectsLikeTheBuiltOne) {
  // The mixed values as element text, in a document whose build collates
  // the ids; the paged dictionary binary-searches its value pages.
  std::string xml = "<r>";
  for (const std::string& value : MixedValues()) {
    xml += "<v>" + value + "</v>";
  }
  BlasSystem sys = MustBuild(xml + "</r>");
  const std::string path = testing::TempDir() + "/collate.idx2";
  ASSERT_TRUE(sys.SavePagedIndex(path).ok());
  StorageOptions storage;
  storage.frames_per_shard = 2;
  storage.shards = 1;
  Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
  ASSERT_TRUE(paged.ok()) << paged.status();
  ASSERT_TRUE(paged->dict().paged());
  ASSERT_EQ(paged->dict().size(), sys.dict().size());
  ExpectSelectAgreesWithMatches(paged->dict());
  for (uint32_t id = 0; id < sys.dict().size(); ++id) {
    EXPECT_EQ(paged->dict().Get(id), sys.dict().Get(id));
    EXPECT_EQ(paged->dict().Find(sys.dict().Get(id)), id);
  }
  for (const std::string& literal : MixedLiterals()) {
    for (ValueOp op : kAllOps) {
      const ValueIds a = sys.dict().Select({op, literal});
      const ValueIds b = paged->dict().Select({op, literal});
      EXPECT_EQ(a.lo == a.hi, b.lo == b.hi);
      if (a.lo != a.hi) {
        EXPECT_EQ(a.lo, b.lo);
        EXPECT_EQ(a.hi, b.hi);
      }
      EXPECT_EQ(a.negated, b.negated);
    }
  }
  // Every pipeline agrees with the naive evaluator on the mixed values.
  for (const char* xpath :
       {"//v > \"7\"", "//v >= \"7\"", "//v < \"0\"", "//v <= \"-0\"",
        "//v = \"07\"", "//v != \"7\"", "//v < \"apple\"", "//v = \"\"",
        "//v != \"\""}) {
    ExpectAllAgree(sys, xpath);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blas
