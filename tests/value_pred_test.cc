#include <cmath>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace blas
