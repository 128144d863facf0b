#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/queries.h"
#include "tests/test_util.h"

namespace blas {
namespace {

constexpr char kProteinXml[] = R"(
<ProteinDatabase>
  <ProteinEntry>
    <protein>
      <name>cytochrome c [validated]</name>
      <classification>
        <superfamily>cytochrome c</superfamily>
      </classification>
    </protein>
    <reference>
      <refinfo>
        <authors>
          <author>Evans, M.J.</author>
          <author>Chen, Y.</author>
        </authors>
        <year>2001</year>
        <title>The human somatic cytochrome c gene</title>
      </refinfo>
    </reference>
  </ProteinEntry>
  <ProteinEntry>
    <protein>
      <name>globin beta</name>
      <classification>
        <superfamily>globin</superfamily>
      </classification>
    </protein>
    <reference>
      <refinfo>
        <authors>
          <author>Evans, M.J.</author>
        </authors>
        <year>1999</year>
        <title>Another paper</title>
      </refinfo>
    </reference>
  </ProteinEntry>
</ProteinDatabase>
)";

TEST(IntegrationTest, PaperExampleQueryAllPipelines) {
  BlasSystem sys = MustBuild(kProteinXml);
  ExpectAllAgree(sys, PaperExampleQuery());
}

TEST(IntegrationTest, PaperExampleReturnsTheRightTitle) {
  BlasSystem sys = MustBuild(kProteinXml);
  Result<QueryResult> r = sys.Execute(
      PaperExampleQuery(),
      {.translator = Translator::kPushUp, .engine = Engine::kRelational});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->starts.size(), 1u);
  // The match must be the title of the first entry (the 2001 cytochrome c
  // reference), not the 1999 one.
  Result<Query> q = ParseXPath(
      "/ProteinDatabase/ProteinEntry/reference/refinfo/title");
  ASSERT_TRUE(q.ok());
  std::vector<const DomNode*> titles = NaiveEval(*q, *sys.dom());
  ASSERT_EQ(titles.size(), 2u);
  EXPECT_EQ(r->starts[0], titles[0]->start);
  EXPECT_EQ(titles[0]->text, "The human somatic cytochrome c gene");
}

TEST(IntegrationTest, SuffixPathQueries) {
  BlasSystem sys = MustBuild(kProteinXml);
  ExpectAllAgree(sys, "/ProteinDatabase/ProteinEntry/protein/name");
  ExpectAllAgree(sys, "//protein/name");
  ExpectAllAgree(sys, "//name");
  ExpectAllAgree(sys, "//classification/superfamily");
  ExpectAllAgree(sys, "/ProteinDatabase");
}

TEST(IntegrationTest, PathQueriesWithInternalDescendant) {
  BlasSystem sys = MustBuild(kProteinXml);
  ExpectAllAgree(sys, "/ProteinDatabase//author");
  ExpectAllAgree(sys, "/ProteinDatabase/ProteinEntry//authors/author");
  ExpectAllAgree(sys, "//ProteinEntry//title");
  ExpectAllAgree(sys, "//reference//author");
}

TEST(IntegrationTest, TreeQueries) {
  BlasSystem sys = MustBuild(kProteinXml);
  ExpectAllAgree(sys,
                 "/ProteinDatabase/ProteinEntry[protein/classification/"
                 "superfamily=\"globin\"]/reference/refinfo/year");
  ExpectAllAgree(sys, "//refinfo[year=\"2001\"]/title");
  ExpectAllAgree(sys, "//ProteinEntry[reference/refinfo[year and title]]"
                      "/protein/name");
}

TEST(IntegrationTest, EmptyResults) {
  BlasSystem sys = MustBuild(kProteinXml);
  ExpectAllAgree(sys, "//nonexistent");
  ExpectAllAgree(sys, "/ProteinEntry");          // not the root tag
  ExpectAllAgree(sys, "//refinfo[year=\"1800\"]/title");
  ExpectAllAgree(sys, "//protein/author");       // wrong parentage
}

TEST(IntegrationTest, RecursiveDocCornerCases) {
  // //a//a/b style queries on recursive data exercise the level guards
  // (DESIGN.md): bare containment would produce false positives here.
  BlasSystem sys = MustBuild(
      "<a><b>x</b><a><b>y</b></a><c><a><b>z</b><a><b>w</b></a></a></c></a>");
  ExpectAllAgree(sys, "//a//a/b");
  ExpectAllAgree(sys, "//a//a//b");
  ExpectAllAgree(sys, "//a/a/b");
  ExpectAllAgree(sys, "/a//a/b");
  ExpectAllAgree(sys, "//a[a/b]/c");
  ExpectAllAgree(sys, "//a[b=\"z\"]//b");
  ExpectAllAgree(sys, "//c//a//b");
}

TEST(IntegrationTest, AttributesAsNodes) {
  BlasSystem sys = MustBuild(
      "<site><item id=\"i1\" featured=\"yes\"><name>x</name></item>"
      "<item id=\"i2\"><name>y</name></item></site>");
  ExpectAllAgree(sys, "/site/item/@id");
  ExpectAllAgree(sys, "//item[@featured]/name");
  ExpectAllAgree(sys, "//item[@featured=\"yes\"]/name");
  ExpectAllAgree(sys, "//@id");
}

TEST(IntegrationTest, WildcardsViaUnfoldAndDLabel) {
  BlasSystem sys = MustBuild(kProteinXml);
  // Split/Push-up refuse wildcards (Unsupported) -> skipped by the helper;
  // Unfold and D-labeling must agree with the oracle.
  ExpectAllAgree(sys, "/ProteinDatabase/ProteinEntry/*/name");
  ExpectAllAgree(sys, "//ProteinEntry/*");
  ExpectAllAgree(sys, "//*[year]/title");
}

TEST(IntegrationTest, GeneratedDatasetsAgreeOnFigure10Queries) {
  struct Case {
    char key;
    void (*gen)(const GenOptions&, SaxHandler*);
  };
  for (const Case& c : {Case{'S', GenerateShakespeare},
                        Case{'P', GenerateProtein},
                        Case{'A', GenerateAuction}}) {
    GenOptions opt;
    opt.scale = 1;
    BlasOptions bopt;
    bopt.keep_dom = true;
    // Small-ish corpora keep the oracle fast.
    Result<BlasSystem> sys = BlasSystem::FromEvents(
        [&](SaxHandler* h) {
          GenOptions small = opt;
          c.gen(small, h);
        },
        bopt);
    ASSERT_TRUE(sys.ok()) << sys.status();
    for (const BenchQuery& q : Figure10Queries(c.key)) {
      ExpectAllAgree(*sys, q.xpath);
    }
  }
}

TEST(IntegrationTest, XMarkQueriesAgree) {
  BlasOptions bopt;
  bopt.keep_dom = true;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); }, bopt);
  ASSERT_TRUE(sys.ok()) << sys.status();
  for (const BenchQuery& q : XMarkBenchmarkQueries()) {
    ExpectAllAgree(*sys, q.xpath);
  }
}

}  // namespace
}  // namespace blas
