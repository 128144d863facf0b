// Cursor semantics: Drain() reproduces the legacy full materialization on
// the figure-11 / figure-10 queries under every translator and engine;
// limit/offset agree with truncated full results; bounded cursors on an
// XMark-scale document fetch strictly fewer pages than unlimited runs;
// projection output matches DOM-derived ground truth; and cursors behave
// under N concurrent QueryService clients (run under TSan in CI).

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blas/collection.h"
#include "exec/optimizer.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "xml/xml_writer.h"

namespace blas {
namespace {

constexpr char kQS3[] =
    "/PLAYS/PLAY/ACT/SCENE[TITLE ='SCENE III. A public place.']//LINE";

const BlasSystem& Shakespeare() {
  static const BlasSystem* sys = [] {
    Result<BlasSystem> s = BlasSystem::FromEvents(
        [](SaxHandler* h) { GenerateShakespeare(GenOptions{}, h); });
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return new BlasSystem(std::move(s).value());
  }();
  return *sys;
}

const BlasSystem& Auction() {
  static const BlasSystem* sys = [] {
    Result<BlasSystem> s = BlasSystem::FromEvents(
        [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return new BlasSystem(std::move(s).value());
  }();
  return *sys;
}

/// The figure-11 query under all four translators plus the figure-10
/// Shakespeare workload: every plan shape the paper evaluates.
std::vector<std::string> EquivalenceQueries() {
  std::vector<std::string> queries{kQS3};
  for (const BenchQuery& q : Figure10Queries('S')) queries.push_back(q.xpath);
  return queries;
}

constexpr Translator kTranslators[] = {Translator::kDLabel, Translator::kSplit,
                                       Translator::kPushUp,
                                       Translator::kUnfold};
constexpr Engine kEngines[] = {Engine::kRelational, Engine::kTwig};

/// Runs the engine directly (no cursor involved): the independent baseline
/// the cursor paths are compared against.
std::optional<std::vector<uint32_t>> RunDirect(const BlasSystem& sys,
                                               const std::string& xpath,
                                               Translator translator,
                                               Engine engine,
                                               ExecStats* stats = nullptr) {
  Result<ExecPlan> plan = sys.Plan(xpath, translator);
  if (!plan.ok()) return std::nullopt;  // translator refused (Unsupported)
  ExecStats local;
  Result<std::vector<uint32_t>> starts =
      engine == Engine::kRelational
          ? RelationalExecutor(EnvOf(sys)).Execute(*plan, &local)
          : TwigEngine(EnvOf(sys)).Execute(*plan, &local);
  EXPECT_TRUE(starts.ok()) << starts.status().ToString();
  if (stats != nullptr) *stats = local;
  return std::move(starts).value();
}

TEST(CursorTest, UnboundedDrainIsByteIdenticalToDirectExecution) {
  const BlasSystem& sys = Shakespeare();
  for (const std::string& xpath : EquivalenceQueries()) {
    for (Translator translator : kTranslators) {
      for (Engine engine : kEngines) {
        std::optional<std::vector<uint32_t>> expected =
            RunDirect(sys, xpath, translator, engine);
        if (!expected.has_value()) continue;
        QueryOptions options;
        options.translator = translator;
        options.engine = engine;
        Result<ResultCursor> cursor = sys.Open(xpath, options);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        EXPECT_FALSE(cursor->streaming());  // unbounded: legacy producer
        QueryResult drained = cursor->Drain();
        EXPECT_EQ(drained.starts, *expected)
            << xpath << " [" << TranslatorName(translator) << "/"
            << EngineName(engine) << "]";
        EXPECT_EQ(drained.stats.output_rows, expected->size());
        EXPECT_TRUE(cursor->exhausted());
      }
    }
  }
}

TEST(CursorTest, StreamingProducerMatchesDirectExecution) {
  const BlasSystem& sys = Shakespeare();
  for (const std::string& xpath : EquivalenceQueries()) {
    for (Translator translator : kTranslators) {
      for (Engine engine : kEngines) {
        std::optional<std::vector<uint32_t>> expected =
            RunDirect(sys, xpath, translator, engine);
        if (!expected.has_value()) continue;
        // A limit at least the full result size forces the streaming
        // producer (where the plan allows it) without truncating, so the
        // full sequences must agree.
        QueryOptions options;
        options.translator = translator;
        options.engine = engine;
        options.limit = expected->size() + 1000;
        Result<ResultCursor> cursor = sys.Open(xpath, options);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        QueryResult drained = cursor->Drain();
        EXPECT_EQ(drained.starts, *expected)
            << xpath << " [" << TranslatorName(translator) << "/"
            << EngineName(engine)
            << (cursor->streaming() ? ", streaming]" : ", materialized]");
      }
    }
  }
}

TEST(CursorTest, Figure11QueryUsesStreamingProducerUnderEveryTranslator) {
  const BlasSystem& sys = Shakespeare();
  // QS3's return part (//LINE) is a single-tag leaf of the part tree under
  // all four translators, so every bounded cursor should stream.
  for (Translator translator : kTranslators) {
    QueryOptions options;
    options.translator = translator;
    options.engine = Engine::kRelational;
    options.limit = 5;
    Result<ResultCursor> cursor = sys.Open(kQS3, options);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_TRUE(cursor->streaming()) << TranslatorName(translator);
  }
}

TEST(CursorTest, LimitAndOffsetAgreeWithTruncatedFullResults) {
  const BlasSystem& sys = Shakespeare();
  for (const std::string& xpath : EquivalenceQueries()) {
    for (Translator translator : {Translator::kPushUp, Translator::kDLabel}) {
      for (Engine engine : kEngines) {
        std::optional<std::vector<uint32_t>> full =
            RunDirect(sys, xpath, translator, engine);
        if (!full.has_value()) continue;
        for (uint64_t offset : {uint64_t{0}, uint64_t{2}, uint64_t{100000}}) {
          for (uint64_t limit : {uint64_t{1}, uint64_t{7}, uint64_t{50}}) {
            QueryOptions options;
            options.translator = translator;
            options.engine = engine;
            options.limit = limit;
            options.offset = offset;
            Result<ResultCursor> cursor = sys.Open(xpath, options);
            ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
            QueryResult got = cursor->Drain();
            std::vector<uint32_t> expected;
            for (size_t i = offset;
                 i < full->size() && expected.size() < limit; ++i) {
              expected.push_back((*full)[i]);
            }
            EXPECT_EQ(got.starts, expected)
                << xpath << " [" << TranslatorName(translator) << "/"
                << EngineName(engine) << "] offset=" << offset
                << " limit=" << limit;
          }
        }
      }
    }
  }
}

TEST(CursorTest, NextEnumerationMatchesDrain) {
  const BlasSystem& sys = Shakespeare();
  std::optional<std::vector<uint32_t>> full =
      RunDirect(sys, kQS3, Translator::kPushUp, Engine::kRelational);
  ASSERT_TRUE(full.has_value());
  ASSERT_GT(full->size(), 3u);

  for (uint64_t limit : {uint64_t{0}, uint64_t{3}, full->size() + 7}) {
    QueryOptions options;
    options.engine = Engine::kRelational;
    options.limit = limit;
    Result<ResultCursor> cursor = sys.Open(kQS3, options);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    std::vector<uint32_t> pulled;
    while (std::optional<Match> match = cursor->Next()) {
      pulled.push_back(match->start);
    }
    EXPECT_TRUE(cursor->exhausted());
    EXPECT_EQ(cursor->delivered(), pulled.size());
    std::vector<uint32_t> expected = *full;
    if (limit > 0 && expected.size() > limit) expected.resize(limit);
    EXPECT_EQ(pulled, expected) << "limit=" << limit;
    // A drained-after-exhaustion cursor has nothing left.
    EXPECT_TRUE(cursor->Drain().starts.empty());
  }
}

TEST(CursorTest, CostGateRejectsStreamingWhenTheTagRunWouldCostMore) {
  const BlasSystem& sys = Shakespeare();
  QueryOptions options;
  options.engine = Engine::kRelational;
  options.limit = 3;
  // The gate decides for literal-seeded P-label plans. The return part
  // /PLAYS/PLAY/TITLE's SP range touches only the 37 play titles, while
  // the TITLE SD run interleaves every ACT/SCENE/PLAY title in the
  // document — filtering the run would visit more than the full query.
  const std::string selective_xpath = "/PLAYS/PLAY[ACT/TITLE='ACT 1']/TITLE";
  Result<ResultCursor> selective = sys.Open(selective_xpath, options);
  ASSERT_TRUE(selective.ok());
  EXPECT_FALSE(selective->streaming());
  // QS3's return part (//LINE) is the whole LINE run: streaming wins.
  Result<ResultCursor> broad = sys.Open(kQS3, options);
  ASSERT_TRUE(broad.ok());
  EXPECT_TRUE(broad->streaming());
  // Either way the answers agree with the truncated full results.
  std::optional<std::vector<uint32_t>> full = RunDirect(
      sys, selective_xpath, Translator::kPushUp, Engine::kRelational);
  ASSERT_TRUE(full.has_value());
  ASSERT_GE(full->size(), 3u);
  full->resize(3);
  EXPECT_EQ(selective->Drain().starts, *full);

  // Without a literal both single-part plans read return-first, and the
  // first batch holds exactly the three matches: /PLAYS/PLAY/TITLE is one
  // path read from SP, //LINE spans five paths whose records make up the
  // whole LINE run, read from SD.
  for (Engine engine : kEngines) {
    options.engine = engine;
    for (const char* xpath : {"/PLAYS/PLAY/TITLE", "//LINE"}) {
      Result<ResultCursor> cursor = sys.Open(xpath, options);
      ASSERT_TRUE(cursor.ok());
      EXPECT_TRUE(cursor->streaming());
      QueryResult got = cursor->Drain();
      std::optional<std::vector<uint32_t>> expected =
          RunDirect(sys, xpath, Translator::kPushUp, engine);
      ASSERT_TRUE(expected.has_value());
      expected->resize(3);
      EXPECT_EQ(got.starts, *expected) << xpath;
      EXPECT_EQ(got.stats.elements, 3u) << xpath << " " << EngineName(engine);
    }
  }
}

TEST(CursorTest, BoundedWildcardQueryFallsBackAndTruncates) {
  const BlasSystem& sys = Shakespeare();
  // kAllTags return scans have no single SD run to stream from.
  std::optional<std::vector<uint32_t>> full =
      RunDirect(sys, "//SPEECH/*", Translator::kDLabel, Engine::kRelational);
  ASSERT_TRUE(full.has_value());
  QueryOptions options;
  options.translator = Translator::kDLabel;
  options.engine = Engine::kRelational;
  options.limit = 9;
  Result<ResultCursor> cursor = sys.Open("//SPEECH/*", options);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_FALSE(cursor->streaming());
  QueryResult got = cursor->Drain();
  full->resize(9);
  EXPECT_EQ(got.starts, *full);
}

// ---- Acceptance: limit-k early termination fetches fewer pages. --------

TEST(CursorTest, LimitTenOnXMarkScaleDocumentFetchesStrictlyFewerPages) {
  const BlasSystem& sys = Auction();
  const std::string xpath = "//item/description";
  for (Translator translator : {Translator::kPushUp, Translator::kDLabel}) {
    for (Engine engine : kEngines) {
      ExecStats full_stats;
      std::optional<std::vector<uint32_t>> full =
          RunDirect(sys, xpath, translator, engine, &full_stats);
      ASSERT_TRUE(full.has_value());
      ASSERT_GT(full->size(), 100u) << "corpus too small for the claim";

      QueryOptions options;
      options.translator = translator;
      options.engine = engine;
      options.limit = 10;
      Result<ResultCursor> cursor = sys.Open(xpath, options);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      ASSERT_TRUE(cursor->streaming());
      QueryResult got = cursor->Drain();

      std::vector<uint32_t> expected(full->begin(), full->begin() + 10);
      EXPECT_EQ(got.starts, expected);
      EXPECT_LT(got.stats.page_fetches, full_stats.page_fetches)
          << TranslatorName(translator) << "/" << EngineName(engine);
      EXPECT_LT(got.stats.elements, full_stats.elements)
          << TranslatorName(translator) << "/" << EngineName(engine);
    }
  }
}

/// Runs `xpath` unbounded and at limit 10 under every BLAS translator and
/// both engines, checking the answers against the D-labeling baseline (no
/// equality part of its plans seeds) and the elements each run visits
/// against `want(translator, answers)`; `exact` asks for equality rather
/// than an upper bound.
void ExpectSeededElements(
    const BlasSystem& sys, const std::string& xpath, bool exact,
    const std::function<uint64_t(Translator, size_t)>& want) {
  std::optional<std::vector<uint32_t>> baseline =
      RunDirect(sys, xpath, Translator::kDLabel, Engine::kRelational);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_FALSE(baseline->empty()) << xpath;
  for (Translator translator :
       {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
    for (Engine engine : kEngines) {
      for (uint64_t limit : {0u, 10u}) {
        QueryOptions options;
        options.translator = translator;
        options.engine = engine;
        options.limit = limit;
        Result<QueryResult> got = sys.Execute(xpath, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const size_t n = limit == 0
                             ? baseline->size()
                             : std::min<size_t>(limit, baseline->size());
        EXPECT_EQ(got->starts, std::vector<uint32_t>(baseline->begin(),
                                                     baseline->begin() + n));
        const std::string what = xpath + " " + TranslatorName(translator) +
                                 "/" + EngineName(engine) +
                                 " limit=" + std::to_string(limit);
        const uint64_t bound = want(translator, baseline->size());
        if (exact) {
          EXPECT_EQ(got->stats.elements, bound) << what;
        } else {
          EXPECT_LE(got->stats.elements, bound) << what;
        }
      }
    }
  }
}

TEST(CursorTest, PointLookupVisitsOnlyInsideTheMatchedAnchor) {
  // Seeded from the @id literal: the value tree yields the one match, one
  // ancestor seek finds its person, and the name part is read only inside
  // it — three elements in all, with no person scan.
  const BlasSystem& sys = Auction();
  for (int id : {0, 42, 99}) {
    ExpectSeededElements(
        sys,
        "/site/people/person[@id=\"person" + std::to_string(id) + "\"]/name",
        /*exact=*/true, [](Translator, size_t matches) {
          EXPECT_EQ(matches, 1u);
          return 3 * matches;
        });
  }
}

TEST(CursorTest, SellerLookupVisitsThreeElementsPerMatch) {
  // Literal, open_auction ancestor and current per match. Split's literal
  // part is //seller/@person, which also reads the closed auctions'
  // sellers carrying the literal (their paths name no open_auction, so
  // they cost no seek).
  const BlasSystem& sys = Auction();
  for (int id : {0, 6, 13}) {
    const std::string person = "\"person" + std::to_string(id) + "\"";
    Result<QueryResult> closed = sys.Execute(
        "/site/closed_auctions/closed_auction/seller/@person=" + person,
        QueryOptions{});
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    const uint64_t closed_sellers = closed->starts.size();
    ExpectSeededElements(
        sys, "//open_auction[seller/@person=" + person + "]/current",
        /*exact=*/true, [&](Translator translator, size_t matches) {
          return 3 * matches +
                 (translator == Translator::kSplit ? closed_sellers : 0);
        });
  }
}

TEST(CursorTest, LiteralMoreFrequentThanItsRootPathRunsTopDown) {
  // Under Split the literal part is //item/payment: every item in every
  // region pays by credit card, far more than the africa items of the
  // root part. The seed read stops at the root part's count (the cap) and
  // the plan runs top-down: the africa items, then one payment and one
  // name inside each. Push-up and Unfold name africa's payments exactly,
  // which stay under the cap and seed.
  const BlasSystem& sys = Auction();
  Result<QueryResult> items =
      sys.Execute("/site/regions/africa/item", QueryOptions{});
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  const uint64_t cap = items->starts.size();
  Result<QueryResult> payments =
      sys.Execute("//item/payment=\"Creditcard\"",
                  {.translator = Translator::kSplit});
  ASSERT_TRUE(payments.ok()) << payments.status().ToString();
  ASSERT_GT(payments->starts.size(), cap) << "the literal must pass the cap";
  const uint64_t top_down = 3 * cap;
  ExpectSeededElements(
      sys, "/site/regions/africa/item[payment=\"Creditcard\"]/name",
      /*exact=*/false,
      [&](Translator, size_t) { return cap + top_down; });
}

/// The benchmark's eight-copy auction corpus (2,000 closed auctions).
const BlasSystem& AuctionTimesEight() {
  static const BlasSystem* sys = [] {
    Result<BlasSystem> s = BlasSystem::FromEvents([](SaxHandler* h) {
      GenOptions gen;
      gen.replicate = 8;
      GenerateAuction(gen, h);
    });
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return new BlasSystem(std::move(s).value());
  }();
  return *sys;
}

TEST(CursorTest, ReturnFirstPriceLookupPaysPerMatchDelivered) {
  // No literal seeds //closed_auction[price>"P"]/buyer/@person, so a
  // bounded cursor reads the buyers in document-order batches and seeks
  // each batch's auctions. The exact count of passing prices sizes the
  // first batch, and a price none passes ends the cursor before any batch.
  const BlasSystem* sys = &AuctionTimesEight();
  CostModel model(&sys->summary(), &sys->dict());
  for (const char* price : {"500", "100000"}) {
    const std::string xpath =
        std::string("//closed_auction[price>\"") + price + "\"]/buyer/@person";
    std::optional<std::vector<uint32_t>> baseline =
        RunDirect(*sys, xpath, Translator::kDLabel, Engine::kRelational);
    ASSERT_TRUE(baseline.has_value());
    for (Translator translator :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      Result<ExecPlan> plan = sys->Plan(xpath, translator);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const uint64_t buyers =
          model.PathCount(plan->parts[plan->return_part]);
      for (Engine engine : kEngines) {
        ExecStats unbounded;
        ASSERT_TRUE(RunDirect(*sys, xpath, translator, engine, &unbounded)
                        .has_value());
        for (uint64_t offset : {0u, 3u}) {
          const std::string what = xpath + " " + TranslatorName(translator) +
                                   "/" + EngineName(engine) +
                                   " offset=" + std::to_string(offset);
          QueryOptions options;
          options.translator = translator;
          options.engine = engine;
          options.limit = 10;
          options.offset = offset;
          Result<ResultCursor> cursor = sys->Open(xpath, options);
          ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
          EXPECT_TRUE(cursor->streaming()) << what;
          QueryResult got = cursor->Drain();
          const size_t from = std::min<size_t>(offset, baseline->size());
          const size_t to = std::min<size_t>(from + 10, baseline->size());
          EXPECT_EQ(got.starts, std::vector<uint32_t>(baseline->begin() + from,
                                                      baseline->begin() + to))
              << what;
          if (std::string(price) == "500") {
            ASSERT_EQ(got.starts.size(), 10u) << what;
            EXPECT_LT(4 * got.stats.elements, unbounded.elements) << what;
          } else {
            EXPECT_TRUE(got.starts.empty()) << what;
            EXPECT_EQ(got.stats.elements, 0u) << what;
            EXPECT_EQ(got.stats.d_joins, 0u) << what;
          }
          EXPECT_LE(got.stats.elements, unbounded.elements + buyers) << what;
        }
      }
    }
  }
}

TEST(CursorTest, PriceNoAuctionPassesCostsOnlyItsCount) {
  // A price no closed auction passes: the count of its id interval on the
  // price path is zero, so the cursor ends before reading a batch. It
  // visits no element and fetches at most the count's two value-tree
  // descents. Above every number in the document the interval is empty
  // and nothing is fetched; at the highest closed-auction price larger
  // numbers elsewhere keep it open and the descents run.
  const BlasSystem& sys = AuctionTimesEight();
  QueryOptions project;
  project.projection = Projection::kValue;
  Result<QueryResult> prices = sys.Execute("//closed_auction/price", project);
  ASSERT_TRUE(prices.ok()) << prices.status();
  ASSERT_FALSE(prices->matches.empty());
  std::string top = prices->matches[0].content;
  for (const Match& m : prices->matches) {
    if (XPathNumber(m.content) > XPathNumber(top)) top = m.content;
  }
  const uint64_t height =
      static_cast<uint64_t>(sys.store().paged_meta().value.height);
  for (const std::string& price : {std::string("100000"), top}) {
    const std::string xpath =
        "//closed_auction[price>\"" + price + "\"]/buyer/@person";
    for (Translator translator :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      for (Engine engine : kEngines) {
        QueryOptions options;
        options.translator = translator;
        options.engine = engine;
        options.limit = 10;
        Result<ResultCursor> cursor = sys.Open(xpath, options);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        EXPECT_TRUE(cursor->streaming()) << xpath;
        QueryResult got = cursor->Drain();
        EXPECT_TRUE(got.starts.empty()) << xpath;
        EXPECT_EQ(got.stats.elements, 0u) << xpath;
        EXPECT_EQ(got.stats.d_joins, 0u) << xpath;
        EXPECT_LE(got.stats.page_fetches, 2 * height) << xpath;
      }
    }
  }
}

TEST(CursorTest, StructuralBranchSizesTheFirstReturnFirstBatch) {
  // Only some items ship and only some closed auctions carry an annotation
  // description, so the branch part's share of its anchors sizes the
  // first batch: under Push-up and Unfold ten answers need one batch, one
  // pass of every D-join. Split's return part is a `//` suffix path whose
  // first records in document order lie outside every anchor, which no
  // share estimate sizes away; its answers are still checked.
  const BlasSystem& sys = Auction();
  for (const char* xpath :
       {"/site/regions/asia/item[shipping]/description",
        "/site/closed_auctions/closed_auction[annotation/description]/date"}) {
    std::optional<std::vector<uint32_t>> baseline =
        RunDirect(sys, xpath, Translator::kDLabel, Engine::kRelational);
    ASSERT_TRUE(baseline.has_value());
    ASSERT_GT(baseline->size(), 10u) << xpath;
    for (Translator translator :
         {Translator::kSplit, Translator::kPushUp, Translator::kUnfold}) {
      for (Engine engine : kEngines) {
        const std::string what = std::string(xpath) + " " +
                                 TranslatorName(translator) + "/" +
                                 EngineName(engine);
        QueryOptions options;
        options.translator = translator;
        options.engine = engine;
        options.limit = 10;
        Result<ResultCursor> cursor = sys.Open(xpath, options);
        ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
        EXPECT_TRUE(cursor->streaming()) << what;
        QueryResult got = cursor->Drain();
        EXPECT_EQ(got.starts, std::vector<uint32_t>(baseline->begin(),
                                                    baseline->begin() + 10))
            << what;
        ASSERT_GT(got.shape.d_joins, 0u) << what;
        if (translator != Translator::kSplit) {
          EXPECT_EQ(got.stats.d_joins, got.shape.d_joins) << what;
        }
      }
    }
  }
}

// ---- Projection: DOM-free content vs. DOM-derived ground truth. --------

constexpr char kLibraryXml[] =
    "<library>"
    "<book genre=\"databases\" year=\"1992\">"
    "<title>Transaction Processing</title>"
    "<author>Gray &amp; Reuter</author>"
    "</book>"
    "<book genre=\"systems\">"
    "<title>The UNIX Time-Sharing System</title>"
    "<note>classic <em>paper</em> scan</note>"
    "</book>"
    "<journal><title>TODS</title><volume empty=\"\"/></journal>"
    "</library>";

std::map<uint32_t, const DomNode*> DomByStart(const DomTree& dom) {
  std::map<uint32_t, const DomNode*> by_start;
  dom.ForEach([&](const DomNode* node) { by_start[node->start] = node; });
  return by_start;
}

TEST(CursorTest, ProjectionMatchesDomGroundTruth) {
  BlasSystem sys = MustBuild(kLibraryXml);
  std::map<uint32_t, const DomNode*> dom = DomByStart(*sys.dom());
  const std::vector<std::string> queries = {
      "//book",  "//title", "//book/@genre", "/library/book[@genre"
      " =\"databases\"]/title", "//note", "//em"};
  for (const std::string& xpath : queries) {
    for (Translator translator : {Translator::kPushUp, Translator::kDLabel}) {
      for (Engine engine : kEngines) {
        for (Projection projection :
             {Projection::kDLabel, Projection::kTag, Projection::kPath,
              Projection::kValue, Projection::kSubtree}) {
          QueryOptions options;
          options.translator = translator;
          options.engine = engine;
          options.projection = projection;
          Result<ResultCursor> cursor = sys.Open(xpath, options);
          ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
          size_t seen = 0;
          while (std::optional<Match> match = cursor->Next()) {
            ++seen;
            auto it = dom.find(match->start);
            ASSERT_NE(it, dom.end()) << xpath;
            const DomNode* node = it->second;
            EXPECT_EQ(match->end, node->end);
            EXPECT_EQ(match->level, node->level);
            switch (projection) {
              case Projection::kDLabel:
                EXPECT_TRUE(match->content.empty());
                break;
              case Projection::kTag:
                EXPECT_EQ(match->content, node->tag);
                break;
              case Projection::kPath:
                EXPECT_EQ(match->content, DomTree::SourcePath(node));
                break;
              case Projection::kValue:
                EXPECT_EQ(match->content, node->text);
                break;
              case Projection::kSubtree: {
                std::string expected =
                    node->is_attribute()
                        ? node->tag.substr(1) + "=\"" +
                              EscapeAttribute(node->text) + "\""
                        : WriteXml(*node);
                EXPECT_EQ(match->content, expected)
                    << xpath << " @" << match->start;
                break;
              }
            }
          }
          EXPECT_GT(seen, 0u) << xpath << " found nothing";
        }
      }
    }
  }
}

TEST(CursorTest, DrainCarriesProjectedMatches) {
  BlasSystem sys = MustBuild(kLibraryXml);
  QueryOptions options;
  options.projection = Projection::kValue;
  Result<QueryResult> r = sys.Execute("//book/title", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->starts.size(), 2u);
  ASSERT_EQ(r->matches.size(), 2u);
  EXPECT_EQ(r->matches[0].content, "Transaction Processing");
  EXPECT_EQ(r->matches[1].content, "The UNIX Time-Sharing System");
  // Subtree reconstruction round-trips through the parser.
  options.projection = Projection::kSubtree;
  Result<QueryResult> sub = sys.Execute("//book", options);
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->matches.size(), 2u);
  EXPECT_EQ(sub->matches[0].content,
            "<book genre=\"databases\" year=\"1992\">"
            "<title>Transaction Processing</title>"
            "<author>Gray &amp; Reuter</author></book>");
  // Canonical form: an element's concatenated direct text precedes its
  // child elements ("classic " + " scan", then <em>).
  EXPECT_EQ(sub->matches[1].content,
            "<book genre=\"systems\"><title>The UNIX Time-Sharing System"
            "</title><note>classic  scan<em>paper</em></note></book>");
}

// ---- QueryService: cursors, streaming callbacks, N concurrent clients. --

TEST(CursorServiceTest, OpenCursorDeliversProjectedMatches) {
  const BlasSystem& sys = Shakespeare();
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});
  QueryRequest request;
  request.xpath = "/PLAYS/PLAY/TITLE";
  request.options.limit = 4;
  request.options.projection = Projection::kValue;
  Result<CollectionCursor> cursor = service.OpenCursor(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  size_t count = 0;
  while (std::optional<CollectionMatch> match = cursor->Next()) {
    EXPECT_FALSE(match->match.content.empty());
    ++count;
  }
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(service.stats().cursors_opened, 1u);
}

TEST(CursorServiceTest, StreamingCallbackDeliversAndCancels) {
  const BlasSystem& sys = Shakespeare();
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = kQS3;
  std::vector<uint32_t> streamed;
  auto future = service.Submit(request, [&](const Match& match) {
    streamed.push_back(match.start);
    return true;
  });
  Result<StreamSummary> summary = future.get();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_FALSE(summary->cancelled);
  EXPECT_EQ(summary->delivered, streamed.size());
  std::optional<std::vector<uint32_t>> expected =
      RunDirect(sys, kQS3, Translator::kPushUp, Engine::kTwig);
  // kAuto may pick either engine; compare sets via the relational run too.
  std::optional<std::vector<uint32_t>> expected_rel =
      RunDirect(sys, kQS3, Translator::kPushUp, Engine::kRelational);
  EXPECT_TRUE(streamed == *expected || streamed == *expected_rel);

  // Cancellation stops the stream early.
  size_t delivered_before_cancel = 0;
  auto cancelled = service.Submit(request, [&](const Match&) {
    return ++delivered_before_cancel < 3;
  });
  Result<StreamSummary> cancel_summary = cancelled.get();
  ASSERT_TRUE(cancel_summary.ok());
  EXPECT_TRUE(cancel_summary->cancelled);
  EXPECT_EQ(cancel_summary->delivered, 3u);
}

TEST(CursorServiceTest, ConcurrentClientsPullIndependentCursors) {
  const BlasSystem& sys = Shakespeare();
  QueryService service(&sys, ServiceOptions{.worker_threads = 4});

  const std::vector<std::string> queries = {
      "/PLAYS/PLAY/TITLE", "//SPEECH/SPEAKER", kQS3, "//LINE/STAGEDIR"};
  std::vector<std::vector<uint32_t>> baselines;
  for (const std::string& q : queries) {
    std::optional<std::vector<uint32_t>> full =
        RunDirect(sys, q, Translator::kPushUp, Engine::kRelational);
    ASSERT_TRUE(full.has_value());
    if (full->size() > 20) full->resize(20);
    baselines.push_back(std::move(*full));
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = (c + round) % queries.size();
        QueryRequest request;
        request.xpath = queries[qi];
        request.options.engine = Engine::kRelational;
        request.options.limit = 20;
        Result<CollectionCursor> cursor = service.OpenCursor(request);
        if (!cursor.ok()) {
          ++failures[c];
          continue;
        }
        std::vector<uint32_t> pulled;
        while (std::optional<CollectionMatch> match = cursor->Next()) {
          pulled.push_back(match->match.start);
        }
        if (pulled != baselines[qi]) ++failures[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;
}

// ---- BlasCollection: unified options, kAuto, collection-wide limits. ----

TEST(CursorCollectionTest, OptionsDriveCollectionExecution) {
  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", "<r><x>1</x><x>2</x></r>").ok());
  ASSERT_TRUE(coll.AddXml("b", "<r><x>3</x></r>").ok());
  ASSERT_TRUE(coll.AddXml("c", "<r><x>4</x><x>5</x></r>").ok());

  QueryOptions options;
  options.engine = Engine::kAuto;
  options.exec.optimize_join_order = true;  // previously silently ignored
  Result<BlasCollection::CollectionResult> all = coll.Execute("//x", options);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->total_matches, 5u);
  EXPECT_EQ(all->docs.size(), 3u);

  // Collection-wide limit stops mid-collection (name order: a, b, c).
  options.limit = 3;
  Result<BlasCollection::CollectionResult> limited =
      coll.Execute("//x", options);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->total_matches, 3u);
  ASSERT_EQ(limited->docs.size(), 2u);
  EXPECT_EQ(limited->docs[0].name, "a");
  EXPECT_EQ(limited->docs[0].starts.size(), 2u);
  EXPECT_EQ(limited->docs[1].name, "b");
  EXPECT_EQ(limited->docs[1].starts.size(), 1u);

  // Offset skips across document boundaries; projection rides along.
  options.limit = 2;
  options.offset = 2;
  options.projection = Projection::kValue;
  Result<BlasCollection::CollectionResult> sliced =
      coll.Execute("//x", options);
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->total_matches, 2u);
  ASSERT_EQ(sliced->docs.size(), 2u);
  EXPECT_EQ(sliced->docs[0].name, "b");
  ASSERT_EQ(sliced->docs[0].matches.size(), 1u);
  EXPECT_EQ(sliced->docs[0].matches[0].content, "3");
  EXPECT_EQ(sliced->docs[1].name, "c");
  ASSERT_EQ(sliced->docs[1].matches.size(), 1u);
  EXPECT_EQ(sliced->docs[1].matches[0].content, "4");
}

// ---- Satellite: ExecStats::d_joins is 64-bit at the source. -------------

static_assert(std::is_same_v<decltype(ExecStats::d_joins), uint64_t>,
              "d_joins must be wide enough for service-lifetime roll-ups");

}  // namespace
}  // namespace blas
