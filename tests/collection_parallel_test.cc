// Scatter-gather collection execution: every cursor mode (pooled,
// pool-less, inline claims) against a test-local oracle (matches, order,
// offset/limit accounting), numeric-comparison ground truth against
// NaiveEval on auction data, early-termination cancellation accounting,
// the cost of documents the merge runs itself against a bare
// ResultCursor, and the QueryService front door over a collection. Runs
// under the TSan CI job.

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/collection.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "tests/test_util.h"

namespace blas {
namespace {

// ------------------------------------------------------- test corpora ---

/// Eight heterogeneous synthetic documents (distinct seeds, so distinct
/// structure; shared tag alphabet prefix so queries hit several of them).
const BlasCollection& RandomCorpus() {
  static const BlasCollection* corpus = [] {
    auto* coll = new BlasCollection();
    for (int i = 0; i < 8; ++i) {
      Status s = coll->AddEvents(
          "doc" + std::to_string(i),
          [i](SaxHandler* h) {
            GenerateRandomDoc(/*seed=*/1000 + i, /*approx_nodes=*/600,
                              /*num_tags=*/10, /*max_depth=*/6,
                              /*num_values=*/40, h);
          });
      EXPECT_TRUE(s.ok()) << s;
    }
    return coll;
  }();
  return *corpus;
}

struct Budget {
  uint64_t limit;
  uint64_t offset;
};

void ExpectSameResults(const BlasCollection::CollectionResult& a,
                       const BlasCollection::CollectionResult& b,
                       const std::string& context) {
  EXPECT_EQ(a.total_matches, b.total_matches) << context;
  EXPECT_EQ(a.offset_skipped, b.offset_skipped) << context;
  ASSERT_EQ(a.docs.size(), b.docs.size()) << context;
  for (size_t d = 0; d < a.docs.size(); ++d) {
    EXPECT_EQ(a.docs[d].name, b.docs[d].name) << context;
    EXPECT_EQ(a.docs[d].starts, b.docs[d].starts)
        << context << " doc " << a.docs[d].name;
    ASSERT_EQ(a.docs[d].matches.size(), b.docs[d].matches.size()) << context;
    for (size_t m = 0; m < a.docs[d].matches.size(); ++m) {
      EXPECT_EQ(a.docs[d].matches[m].content, b.docs[d].matches[m].content)
          << context;
    }
  }
}

// ------------------------------------------------ every mode ≡ oracle ---

/// (document, start) pairs in merge order.
using Answer = std::vector<std::pair<std::string, uint32_t>>;

/// Test-local oracle: every document's unbounded answer, concatenated in
/// name order, then sliced to [offset, offset + limit). `offset_skipped`
/// is how much of the offset the concatenation could absorb.
Answer OracleAnswer(const BlasCollection& coll, const std::string& q,
                    const QueryOptions& options, uint64_t* offset_skipped) {
  Answer all;
  for (const std::string& name : coll.names()) {
    Result<ResultCursor> cursor = coll.Find(name)->Open(
        q, {.translator = options.translator, .engine = options.engine});
    EXPECT_TRUE(cursor.ok()) << q << " " << cursor.status();
    if (!cursor.ok()) return {};
    for (uint32_t start : cursor->Drain().starts) {
      all.emplace_back(name, start);
    }
  }
  const uint64_t begin = std::min<uint64_t>(options.offset, all.size());
  const uint64_t end =
      options.limit == 0
          ? all.size()
          : std::min<uint64_t>(all.size(), begin + options.limit);
  *offset_skipped = begin;
  return Answer(all.begin() + begin, all.begin() + end);
}

Answer Flatten(const BlasCollection::CollectionResult& result) {
  Answer out;
  for (const BlasCollection::DocMatches& doc : result.docs) {
    for (uint32_t start : doc.starts) out.emplace_back(doc.name, start);
  }
  return out;
}

/// The grid of every collection cursor mode against the oracle: a pooled
/// merge, a pool-less one (the merge claims each document inline), and a
/// one-worker pool parked behind a gate, so every document is an inline
/// claim although the cursor has a pool.
TEST(CollectionParallelTest, EveryModeMatchesTheOracleAcrossPlans) {
  const BlasCollection& coll = RandomCorpus();
  ThreadPool pool(4, 64);
  ThreadPool parked(1, 16);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  parked.Submit([gate] { gate.wait(); });
  const std::pair<const char*, ThreadPool*> modes[] = {
      {"pooled", &pool}, {"pool-less", nullptr}, {"inline claims", &parked}};
  const char* queries[] = {"//t3", "/root/t1", "//t1//t4", "//t2[t5]/t1",
                           "//t0[t1=\"v7\"]", "//nothere"};
  const Budget budgets[] = {{0, 0}, {7, 0}, {10, 5}, {3, 2}, {0, 4},
                           {1, 0}, {100000, 0}, {5, 100000}};
  for (const char* q : queries) {
    for (Translator t : {Translator::kDLabel, Translator::kPushUp,
                         Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig, Engine::kAuto}) {
        for (const Budget& budget : budgets) {
          QueryOptions options;
          options.translator = t;
          options.engine = e;
          options.limit = budget.limit;
          options.offset = budget.offset;
          std::string context = std::string(q) + " [" + TranslatorName(t) +
                                "/" + EngineName(e) + " limit=" +
                                std::to_string(budget.limit) + " offset=" +
                                std::to_string(budget.offset) + "]";
          uint64_t skipped = 0;
          const Answer expected = OracleAnswer(coll, q, options, &skipped);

          for (const auto& [mode, mode_pool] : modes) {
            const std::string where = context + " " + mode;
            Result<CollectionCursor> cursor =
                coll.OpenCursor(q, options, {.pool = mode_pool});
            ASSERT_TRUE(cursor.ok()) << where;
            Result<BlasCollection::CollectionResult> got = cursor->Drain();
            ASSERT_TRUE(got.ok()) << where << got.status();
            EXPECT_EQ(Flatten(*got), expected) << where;
            EXPECT_EQ(got->total_matches, expected.size()) << where;
            EXPECT_EQ(got->offset_skipped, skipped) << where;
          }
        }
      }
    }
  }
  release.set_value();
}

TEST(CollectionParallelTest, ProjectionSurvivesTheMerge) {
  const BlasCollection& coll = RandomCorpus();
  ThreadPool pool(4, 64);
  QueryOptions options;
  options.projection = Projection::kValue;
  options.limit = 25;
  Result<BlasCollection::CollectionResult> pool_less =
      coll.Execute("//t2", options);
  ASSERT_TRUE(pool_less.ok());
  Result<CollectionCursor> cursor =
      coll.OpenCursor("//t2", options, {.pool = &pool});
  ASSERT_TRUE(cursor.ok());
  Result<BlasCollection::CollectionResult> parallel = cursor->Drain();
  ASSERT_TRUE(parallel.ok());
  ExpectSameResults(*parallel, *pool_less, "kValue projection");
  ASSERT_FALSE(parallel->docs.empty());
  EXPECT_EQ(parallel->docs[0].matches.size(), parallel->docs[0].starts.size());
}

TEST(CollectionParallelTest, NextStreamsInDocumentNameThenDocOrder) {
  const BlasCollection& coll = RandomCorpus();
  ThreadPool pool(4, 64);
  Result<CollectionCursor> cursor = coll.OpenCursor(
      "//t1", {}, {.pool = &pool, .queue_capacity = 3});  // tiny queues
  ASSERT_TRUE(cursor.ok());
  std::string last_doc;
  uint32_t last_start = 0;
  size_t count = 0;
  while (std::optional<CollectionMatch> m = cursor->Next()) {
    std::string doc(m->document);
    if (doc == last_doc) {
      EXPECT_GT(m->match.start, last_start);  // ascending within document
    } else {
      EXPECT_GT(doc, last_doc);  // documents in name order
    }
    last_doc = doc;
    last_start = m->match.start;
    ++count;
  }
  EXPECT_TRUE(cursor->status().ok());
  Result<BlasCollection::CollectionResult> pool_less = coll.Execute("//t1");
  ASSERT_TRUE(pool_less.ok());
  EXPECT_EQ(count, pool_less->total_matches);
  EXPECT_EQ(cursor->delivered(), pool_less->total_matches);
}

TEST(CollectionParallelTest, SaturatedPoolDegradesToInlineExecution) {
  const BlasCollection& coll = RandomCorpus();
  // A pool that can accept almost nothing: one busy worker, queue of 1.
  ThreadPool pool(1, 1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });
  Result<BlasCollection::CollectionResult> pool_less = coll.Execute("//t3");
  ASSERT_TRUE(pool_less.ok());
  Result<CollectionCursor> cursor = coll.OpenCursor("//t3", {}, {.pool = &pool});
  ASSERT_TRUE(cursor.ok());
  Result<BlasCollection::CollectionResult> parallel = cursor->Drain();
  ASSERT_TRUE(parallel.ok());
  ExpectSameResults(*parallel, *pool_less, "saturated pool");
  release.set_value();
}

TEST(CollectionParallelTest, TranslationFailureAbortsWithOrWithoutPool) {
  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", "<r><x>1</x></r>").ok());
  ASSERT_TRUE(coll.AddXml("b", "<r><y><x>2</x></y></r>").ok());
  // Wildcards are Unsupported under Split in every document.
  QueryOptions options;
  options.translator = Translator::kSplit;
  Result<BlasCollection::CollectionResult> pool_less =
      coll.Execute("//*", options);
  ASSERT_FALSE(pool_less.ok());
  ThreadPool pool(2, 16);
  Result<CollectionCursor> cursor = coll.OpenCursor("//*", options,
                                                    {.pool = &pool});
  ASSERT_TRUE(cursor.ok());  // per-document errors surface at the merge
  Result<BlasCollection::CollectionResult> parallel = cursor->Drain();
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), pool_less.status().code());
}

// -------------------------------------- early-termination cancellation ---

TEST(CollectionParallelTest, LimitCancelsUnstartedDocuments) {
  BlasCollection coll;
  for (int i = 0; i < 8; ++i) {
    std::string xml = "<r>";
    for (int j = 0; j < 20; ++j) xml += "<x>m</x>";
    xml += "</r>";
    ASSERT_TRUE(coll.AddXml("doc" + std::to_string(i), xml).ok());
  }
  // Park the single worker behind a gate so every producer task stays
  // queued: the merge must claim doc0 inline and, once limit matches are
  // delivered, cancel the other seven before they ever start.
  ThreadPool pool(1, 16);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.Submit([gate] { gate.wait(); });

  QueryOptions options;
  options.limit = 10;
  Result<CollectionCursor> cursor = coll.OpenCursor("//x", options,
                                                    {.pool = &pool});
  ASSERT_TRUE(cursor.ok());
  Result<BlasCollection::CollectionResult> result = cursor->Drain();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 10u);
  ASSERT_EQ(result->docs.size(), 1u);
  EXPECT_EQ(result->docs[0].name, "doc0");

  CollectionCursor::ScatterStats scatter = cursor->scatter_stats();
  EXPECT_EQ(scatter.docs_total, 8u);
  EXPECT_EQ(scatter.docs_executed, 1u);
  EXPECT_EQ(scatter.docs_cancelled, 7u);
  release.set_value();
}

TEST(CollectionParallelTest, PoolLessLimitNeverOpensLaterDocuments) {
  BlasCollection coll;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coll.AddXml("doc" + std::to_string(i),
                            "<r><x>1</x><x>2</x></r>")
                    .ok());
  }
  QueryOptions options;
  options.limit = 3;
  Result<CollectionCursor> cursor = coll.OpenCursor("//x", options);
  ASSERT_TRUE(cursor.ok());
  Result<BlasCollection::CollectionResult> result = cursor->Drain();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 3u);
  CollectionCursor::ScatterStats scatter = cursor->scatter_stats();
  EXPECT_EQ(scatter.docs_total, 4u);
  // doc0 delivers 2 matches, doc1 the third (it opens with the one match
  // of the window that remains); doc2 and doc3 are never opened.
  EXPECT_EQ(scatter.docs_executed, 2u);
  EXPECT_EQ(scatter.docs_cancelled, 2u);
}

TEST(CollectionParallelTest, AbandonedCursorCancelsProducers) {
  const BlasCollection& coll = RandomCorpus();
  ThreadPool pool(2, 64);
  {
    Result<CollectionCursor> cursor =
        coll.OpenCursor("//t1", {}, {.pool = &pool, .queue_capacity = 2});
    ASSERT_TRUE(cursor.ok());
    // Pull a couple of matches, then drop the cursor mid-stream.
    ASSERT_TRUE(cursor->Next().has_value());
    ASSERT_TRUE(cursor->Next().has_value());
  }
  // Producers must unwind (not deadlock on their full queues); the pool
  // must drain normally.
  pool.Shutdown();
  SUCCEED();
}

TEST(CollectionParallelTest, MoveAssignmentCancelsOverwrittenCursor) {
  const BlasCollection& coll = RandomCorpus();
  ThreadPool pool(2, 64);
  Result<CollectionCursor> a =
      coll.OpenCursor("//t1", {}, {.pool = &pool, .queue_capacity = 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Next().has_value());  // a's producers are live
  Result<CollectionCursor> b =
      coll.OpenCursor("//t2", {}, {.pool = &pool, .queue_capacity = 2});
  ASSERT_TRUE(b.ok());
  *a = std::move(*b);  // must cancel a's old producers, not strand them
  size_t n = 0;
  while (a->Next().has_value()) ++n;  // b's stream drains through a
  Result<BlasCollection::CollectionResult> direct = coll.Execute("//t2");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(n, direct->total_matches);
  // Would deadlock joining workers if the overwritten cursor's producers
  // were left blocked on their full queues.
  pool.Shutdown();
}

// ------------------------- documents the merge runs ≡ a bare cursor ---

/// The fig-10 auction document, shared by the tests below.
std::shared_ptr<const BlasSystem> AuctionSystem() {
  static const std::shared_ptr<const BlasSystem> sys = [] {
    Result<BlasSystem> built = BlasSystem::FromEvents(
        [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
    EXPECT_TRUE(built.ok()) << built.status();
    return std::make_shared<const BlasSystem>(std::move(built).value());
  }();
  return sys;
}

/// A bare ResultCursor's cost after `pulls` Next() calls (all of them when
/// `pulls` is 0).
ExecStats CursorStatsAfter(const BlasSystem& sys, const std::string& q,
                           const QueryOptions& options, size_t pulls) {
  Result<ResultCursor> cursor = sys.Open(q, options);
  EXPECT_TRUE(cursor.ok()) << q << " " << cursor.status();
  if (!cursor.ok()) return {};
  for (size_t i = 0; pulls == 0 || i < pulls; ++i) {
    if (!cursor->Next().has_value()) break;
  }
  return cursor->stats();
}

/// A document the merge runs itself — the first one, or a pending one it
/// claims — is pulled one match at a time, so one Next() on a bounded
/// streaming query costs what one Next() on the document's own cursor
/// costs, not a drain up to the limit. Covered with no pool and with a
/// pool whose one worker is parked (every scattered task stays queued).
TEST(CollectionParallelTest, InlineDocumentsArePulledLazily) {
  std::shared_ptr<const BlasSystem> auction = AuctionSystem();
  const std::string qa2 = Figure10Queries('A')[1].xpath;
  QueryOptions options;
  options.translator = Translator::kPushUp;
  options.limit = 500;
  const ExecStats one = CursorStatsAfter(*auction, qa2, options, 1);

  // "a" has no QA2 match, so the merge drains it and then claims "b".
  BlasSystem empty = MustBuild(
      "<site><regions><item/></regions><description/></site>");
  const ExecStats empty_all = CursorStatsAfter(empty, qa2, options, 0);
  BlasCollection single;
  ASSERT_TRUE(single.AddSystem("auction", auction).ok());
  BlasCollection pair;
  ASSERT_TRUE(pair.AddSystem(
                      "a", std::shared_ptr<const BlasSystem>(
                               &empty, [](const BlasSystem*) {}))
                  .ok());
  ASSERT_TRUE(pair.AddSystem("b", auction).ok());

  ThreadPool parked(1, 16);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  parked.Submit([gate] { gate.wait(); });
  const std::pair<const char*, ThreadPool*> modes[] = {
      {"pool-less", nullptr}, {"parked worker", &parked}};
  for (const auto& [mode, pool] : modes) {
    for (const auto& [name, coll, expected] :
         {std::tuple{"first document", &single, one.elements},
          std::tuple{"claimed document", &pair,
                     empty_all.elements + one.elements}}) {
      const std::string where = std::string(mode) + ", " + name;
      Result<CollectionCursor> cursor =
          coll->OpenCursor(qa2, options, {.pool = pool});
      ASSERT_TRUE(cursor.ok()) << where;
      ASSERT_TRUE(cursor->Next().has_value()) << where;
      EXPECT_EQ(cursor->SettledStats().elements, expected) << where;
    }
  }
  release.set_value();
}

/// The offset is consumed by the document's own cursor, not by the merge:
/// skipped matches are neither projected (elements) nor counted as output
/// rows, exactly as on BlasSystem::Open.
TEST(CollectionParallelTest, OneMemberOffsetCostsWhatTheDocumentCosts) {
  std::shared_ptr<const BlasSystem> auction = AuctionSystem();
  BlasCollection single;
  ASSERT_TRUE(single.AddSystem("auction", auction).ok());
  ThreadPool pool(2, 16);
  for (const BenchQuery& q : Figure10Queries('A')) {
    QueryOptions options;
    options.projection = Projection::kValue;
    options.offset = 50;
    options.limit = 200;
    Result<ResultCursor> direct = auction->Open(q.xpath, options);
    ASSERT_TRUE(direct.ok()) << q.name;
    const QueryResult expected = direct->Drain();
    for (ThreadPool* mode : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string where =
          q.name + (mode == nullptr ? " pool-less" : " pooled");
      Result<CollectionCursor> cursor =
          single.OpenCursor(q.xpath, options, {.pool = mode});
      ASSERT_TRUE(cursor.ok()) << where;
      Result<BlasCollection::CollectionResult> got = cursor->Drain();
      ASSERT_TRUE(got.ok()) << where << got.status();
      EXPECT_EQ(got->total_matches, expected.starts.size()) << where;
      EXPECT_EQ(got->stats.output_rows, expected.stats.output_rows) << where;
      EXPECT_EQ(got->stats.elements, expected.stats.elements) << where;
      EXPECT_EQ(got->offset_skipped, expected.offset_skipped) << where;
    }
  }
}

// ----------------------------- numeric ground truth vs NaiveEval ---------

TEST(CollectionParallelTest, NumericComparisonsAgreeWithNaiveEvalOnAuction) {
  BlasOptions blas_options;
  blas_options.keep_dom = true;
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [](SaxHandler* h) {
        GenOptions gen;
        GenerateAuction(gen, h);
      },
      blas_options);
  ASSERT_TRUE(sys.ok()) << sys.status();
  // Auction prices ("45.00", "123.00", "9.00"-style mixed widths) order
  // differently as numbers than as strings, so these only pass with
  // XPath 1.0 numeric semantics in every pipeline — including NaiveEval.
  for (const char* q :
       {"//closed_auction[price < \"100\"]/quantity",
        "//closed_auction[price >= \"500.50\"]/date",
        "//bidder[increase <= \"25\"]/date",
        "//open_auction[current > \"99\"]/reserve",
        "//annotation[happiness > \"5\"]/description",
        "//profile[age >= \"65\"]/education"}) {
    ExpectAllAgree(*sys, q);
  }
}

// --------------------------------------- QueryService collection door ---

std::unique_ptr<BlasCollection> MakeServiceCorpus() {
  auto coll = std::make_unique<BlasCollection>();
  for (int i = 0; i < 6; ++i) {
    Status s = coll->AddEvents(
        "doc" + std::to_string(i),
        [i](SaxHandler* h) {
          GenerateRandomDoc(/*seed=*/2000 + i, /*approx_nodes=*/400,
                            /*num_tags=*/8, /*max_depth=*/5,
                            /*num_values=*/30, h);
        });
    EXPECT_TRUE(s.ok()) << s;
  }
  return coll;
}

TEST(CollectionServiceTest, SubmitCollectionMatchesDirectExecution) {
  std::unique_ptr<BlasCollection> coll = MakeServiceCorpus();
  QueryService service(coll.get(), {.worker_threads = 4});
  Result<BlasCollection::CollectionResult> direct = coll->Execute("//t2[t1]");
  ASSERT_TRUE(direct.ok());
  auto future = service.Submit({.xpath = "//t2[t1]"});
  Result<BlasCollection::CollectionResult> served = future.get();
  ASSERT_TRUE(served.ok()) << served.status();
  ExpectSameResults(*served, *direct, "service collection");
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(CollectionServiceTest, PerDocumentPlansCacheAcrossRequests) {
  std::unique_ptr<BlasCollection> coll = MakeServiceCorpus();
  QueryService service(coll.get(), {.worker_threads = 2});
  QueryRequest request{.xpath = "//t3"};
  ASSERT_TRUE(service.Execute(request).ok());
  ServiceStats cold = service.stats();
  EXPECT_EQ(cold.plan_cache_misses, 1u);
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  // One translation per document, none reused yet.
  EXPECT_EQ(cold.doc_plan_misses, coll->size());
  EXPECT_EQ(cold.doc_plan_hits, 0u);

  ASSERT_TRUE(service.Execute(request).ok());
  ServiceStats warm = service.stats();
  // The hot query pays one parse (cache hit) and N per-doc cache hits.
  EXPECT_EQ(warm.plan_cache_hits, 1u);
  EXPECT_EQ(warm.doc_plan_misses, coll->size());
  EXPECT_EQ(warm.doc_plan_hits, coll->size());
}

TEST(CollectionServiceTest, StreamingCallbackAndCancellation) {
  std::unique_ptr<BlasCollection> coll = MakeServiceCorpus();
  QueryService service(coll.get(), {.worker_threads = 4});
  std::atomic<uint64_t> seen{0};
  auto all = service.SubmitCollection(
      {.xpath = "//t1"},
      [&seen](const CollectionMatch&) {
        seen.fetch_add(1);
        return true;
      });
  Result<StreamSummary> summary = all.get();
  ASSERT_TRUE(summary.ok()) << summary.status();
  Result<BlasCollection::CollectionResult> direct = coll->Execute("//t1");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(summary->delivered, direct->total_matches);
  EXPECT_EQ(seen.load(), direct->total_matches);
  EXPECT_FALSE(summary->cancelled);

  auto cancelled = service.SubmitCollection(
      {.xpath = "//t1"},
      [](const CollectionMatch&) { return false; });  // stop after first
  Result<StreamSummary> second = cancelled.get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cancelled);
  EXPECT_EQ(second->delivered, 1u);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(CollectionServiceTest, CursorPullsOnClientThread) {
  std::unique_ptr<BlasCollection> coll = MakeServiceCorpus();
  QueryService service(coll.get(), {.worker_threads = 2});
  QueryRequest request{.xpath = "//t2"};
  request.options.limit = 5;
  Result<CollectionCursor> cursor = service.OpenCursor(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  size_t n = 0;
  while (cursor->Next().has_value()) ++n;
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(service.stats().cursors_opened, 1u);
}

TEST(CollectionServiceTest, ConcurrentCollectionClients) {
  std::unique_ptr<BlasCollection> coll = MakeServiceCorpus();
  QueryService service(coll.get(), {.worker_threads = 4});
  const char* queries[] = {"//t1", "//t2[t1]", "//t3", "//t0//t4"};
  uint64_t expected[4];
  for (int q = 0; q < 4; ++q) {
    Result<BlasCollection::CollectionResult> direct =
        coll->Execute(queries[q]);
    ASSERT_TRUE(direct.ok());
    expected[q] = direct->total_matches;
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        int q = (c + r) % 4;
        QueryRequest request{.xpath = queries[q]};
        if (r % 2 == 0) request.options.limit = 4;
        auto future = service.Submit(std::move(request));
        Result<BlasCollection::CollectionResult> result = future.get();
        if (!result.ok()) {
          ++failures;
          continue;
        }
        uint64_t want = expected[q];
        if (r % 2 == 0 && want > 4) want = 4;
        if (result->total_matches != want) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, uint64_t{kClients} * kRounds);
  EXPECT_EQ(stats.completed + stats.failed, uint64_t{kClients} * kRounds);
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace blas
