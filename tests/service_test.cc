#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/queries.h"
#include "ingest/live_collection.h"
#include "obs/snapshot.h"
#include "service/normalize.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "tests/test_util.h"

namespace blas {
namespace {

// ----------------------------------------------------------- normalize ---

TEST(NormalizeTest, StripsDecorativeWhitespace) {
  EXPECT_EQ(NormalizeXPath("  / site / regions // item  "),
            "/site/regions//item");
  EXPECT_EQ(NormalizeXPath("/a/b"), NormalizeXPath("  /a  /  b\t\n"));
}

TEST(NormalizeTest, KeepsTokenSeparators) {
  // "and" between two relative paths needs its separating spaces.
  EXPECT_EQ(NormalizeXPath("//a[ b and c ]"), "//a[b and c]");
  EXPECT_EQ(NormalizeXPath("//a[b   and   c]"), "//a[b and c]");
}

TEST(NormalizeTest, PreservesQuotedLiterals) {
  EXPECT_EQ(NormalizeXPath("//a[ b = \"x  y\" ]"), "//a[b=\"x  y\"]");
  EXPECT_EQ(NormalizeXPath("//a[b='  spaced  ']"), "//a[b='  spaced  ']");
}

TEST(NormalizeTest, KeyNormalizesItsInput) {
  EXPECT_EQ(PlanCacheKey(" /a / b ", Translator::kPushUp, false),
            PlanCacheKey("/a/b", Translator::kPushUp, false));
}

TEST(NormalizeTest, KeyIncludesTranslatorAndOptimizerFlag) {
  std::string norm = NormalizeXPath("/a//b");
  EXPECT_NE(PlanCacheKey(norm, Translator::kPushUp, false),
            PlanCacheKey(norm, Translator::kSplit, false));
  EXPECT_NE(PlanCacheKey(norm, Translator::kPushUp, false),
            PlanCacheKey(norm, Translator::kPushUp, true));
}

// ---------------------------------------------------------- plan cache ---

std::shared_ptr<const CachedQuery> DummyEntry() {
  return std::make_shared<const CachedQuery>(Query{});
}

std::shared_ptr<const CachedPlan> DummyDocPlan() {
  auto plan = std::make_shared<CachedPlan>();
  plan->plan.parts.emplace_back();
  return plan;
}

TEST(PlanCacheTest, HitAndMissAccounting) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Get("k1"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto plan = DummyEntry();
  cache.Put("k1", plan);
  EXPECT_EQ(cache.Get("k1"), plan);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(3);
  cache.Put("a", DummyEntry());
  cache.Put("b", DummyEntry());
  cache.Put("c", DummyEntry());
  // Touch "a" so "b" becomes the LRU entry.
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("d", DummyEntry());  // evicts "b"

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  std::vector<std::string> keys = cache.KeysMruToLru();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "c");  // just touched
  EXPECT_EQ(keys[1], "d");
  EXPECT_EQ(keys[2], "a");
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Put("a", DummyEntry());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(PlanCacheTest, PutRefreshesExistingKey) {
  PlanCache cache(2);
  auto first = DummyEntry();
  auto second = DummyEntry();
  cache.Put("a", first);
  cache.Put("a", second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a"), second);
}

TEST(PlanCacheTest, DocumentSlotsAreEpochTagged) {
  std::shared_ptr<const CachedQuery> entry = DummyEntry();
  auto v1 = DummyDocPlan();
  auto v2 = DummyDocPlan();
  EXPECT_EQ(entry->ForDoc("d", 0), nullptr);
  entry->PutDoc("d", 1, v1);
  EXPECT_EQ(entry->ForDoc("d", 1), v1);
  EXPECT_EQ(entry->ForDoc("d", 2), nullptr);  // another generation misses
  entry->PutDoc("d", 1, v2);                  // same epoch: first wins
  EXPECT_EQ(entry->ForDoc("d", 1), v1);
  entry->PutDoc("d", 2, v2);                  // newer epoch replaces
  EXPECT_EQ(entry->ForDoc("d", 2), v2);
  entry->PutDoc("d", 1, v1);                  // older never displaces
  EXPECT_EQ(entry->ForDoc("d", 2), v2);
  EXPECT_EQ(entry->ForDoc("other", 2), nullptr);
}

TEST(PlanCacheTest, InvalidateDocumentDropsOnlyThatSlot) {
  PlanCache cache(4);
  auto entry = DummyEntry();
  cache.Put("q", entry);
  entry->PutDoc("a", 0, DummyDocPlan());
  entry->PutDoc("b", 0, DummyDocPlan());
  cache.InvalidateDocument("a");
  EXPECT_EQ(entry->ForDoc("a", 0), nullptr);
  EXPECT_NE(entry->ForDoc("b", 0), nullptr);
  EXPECT_EQ(cache.Get("q"), entry);  // the parsed query survives
}

// ---------------------------------------------------------- thread pool ---

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4, 8);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&done] { ++done; }));
    }
  }  // destructor drains
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, TrySubmitRespectsQueueBound) {
  // One paused worker plus a full queue: the next TrySubmit must refuse.
  std::atomic<bool> worker_busy{false};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ThreadPool pool(1, 2);
  ASSERT_TRUE(pool.Submit([&worker_busy, gate] {
    worker_busy = true;
    gate.wait();
  }));
  while (!worker_busy) std::this_thread::yield();
  ASSERT_TRUE(pool.TrySubmit([] {}));   // queue slot 1
  ASSERT_TRUE(pool.TrySubmit([] {}));   // queue slot 2
  EXPECT_FALSE(pool.TrySubmit([] {}));  // full
  release.set_value();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, WaitIdleSettlesQueuedAndRunningWork) {
  std::atomic<int> done{0};
  ThreadPool pool(3, 64);
  // Tasks that spawn follow-up tasks: WaitIdle must cover work submitted
  // by still-running work, not just the queue it first observed.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&pool, &done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(pool.Submit([&done] { ++done; }));
      ++done;
    }));
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 40);
  EXPECT_EQ(pool.queue_size(), 0u);

  // Idempotent on an idle pool, and non-blocking after shutdown.
  pool.WaitIdle();
  pool.Shutdown();
  pool.WaitIdle();
}

// -------------------------------------------------------- query service ---

constexpr char kDoc[] =
    "<site><regions><region><item><name>lamp</name>"
    "<description>old lamp</description></item>"
    "<item><name>vase</name><description>blue vase</description></item>"
    "</region></regions>"
    "<people><person><name>alice</name></person>"
    "<person><name>bob</name></person></people></site>";

/// Start positions of a result, in merge order.
std::vector<uint32_t> Starts(const BlasCollection::CollectionResult& result) {
  std::vector<uint32_t> out;
  for (const BlasCollection::DocMatches& doc : result.docs) {
    out.insert(out.end(), doc.starts.begin(), doc.starts.end());
  }
  return out;
}

TEST(QueryServiceTest, ExecutesAndMatchesFacade) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "/site/regions//item/name";
  request.options.engine = Engine::kRelational;
  Result<BlasCollection::CollectionResult> via_service =
      service.Submit(request).get();
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();

  Result<QueryResult> via_facade =
      sys.Execute(request.xpath, {.translator = request.options.translator,
                                  .engine = Engine::kRelational});
  ASSERT_TRUE(via_facade.ok());
  EXPECT_EQ(Starts(*via_service), via_facade->starts);
  EXPECT_EQ(via_service->stats.elements, via_facade->stats.elements);
}

TEST(QueryServiceTest, PlanCacheHitsOnRepeatAndNormalizedText) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "/site/people/person/name";
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.stats().plan_cache_misses, 1u);
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);

  // Same text: hit. Whitespace-decorated text: also a hit.
  ASSERT_TRUE(service.Submit(request).get().ok());
  QueryRequest spaced = request;
  spaced.xpath = "  /site / people/  person /name ";
  ASSERT_TRUE(service.Submit(spaced).get().ok());
  EXPECT_EQ(service.stats().plan_cache_hits, 2u);
  EXPECT_EQ(service.stats().plan_cache_misses, 1u);
  EXPECT_EQ(service.plan_cache().size(), 1u);
}

TEST(QueryServiceTest, BypassFlagSkipsCache) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//person/name";
  request.bypass_plan_cache = true;
  ASSERT_TRUE(service.Submit(request).get().ok());
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.stats().plan_cache_hits, 0u);
  EXPECT_EQ(service.stats().plan_cache_misses, 0u);
  EXPECT_EQ(service.plan_cache().size(), 0u);

  // Non-bypassed requests still populate it.
  request.bypass_plan_cache = false;
  ASSERT_TRUE(service.Submit(request).get().ok());
  EXPECT_EQ(service.plan_cache().size(), 1u);
}

TEST(QueryServiceTest, ParseErrorsCountAsFailed) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  Result<BlasCollection::CollectionResult> bad =
      service.Submit({.xpath = "not an xpath"}).get();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(QueryServiceTest, SubmitAfterShutdownReturnsError) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  service.Shutdown();
  Result<BlasCollection::CollectionResult> refused =
      service.Submit({.xpath = "//person/name"}).get();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(QueryServiceTest, OwnsSystemViaFromXml) {
  Result<std::unique_ptr<QueryService>> service = QueryService::FromXml(kDoc);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Result<BlasCollection::CollectionResult> result =
      (*service)->Submit({.xpath = "//item/name"}).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 2u);
}

// --------------------------------------------------------- concurrency ---

/// N worker threads x M client threads x the auction query suite must
/// produce byte-identical results to the single-threaded engines, and the
/// per-query stats must attribute exactly this query's storage accesses.
TEST(QueryServiceConcurrencyTest, MatchesSingleThreadedBaselines) {
  GenOptions gen_options;
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [&](SaxHandler* h) { GenerateAuction(gen_options, h); });
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  BlasSystem sys = std::move(built).value();

  std::vector<BenchQuery> suite = Figure10Queries('A');
  for (const BenchQuery& q : XMarkBenchmarkQueries()) suite.push_back(q);

  // Single-threaded baselines, both engines, cold service-free run.
  struct Baseline {
    std::vector<uint32_t> starts;
    uint64_t elements = 0;
  };
  std::map<std::pair<std::string, Engine>, Baseline> expected;
  for (const BenchQuery& q : suite) {
    for (Engine engine : {Engine::kRelational, Engine::kTwig}) {
      Result<QueryResult> r =
          sys.Execute(q.xpath,
                      {.translator = Translator::kPushUp, .engine = engine});
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      expected[{q.xpath, engine}] =
          Baseline{r->starts, r->stats.elements};
    }
  }

  ASSERT_GE(suite.size(), 6u);
  QueryService service(
      &sys, ServiceOptions{.worker_threads = 4,
                           .plan_cache_capacity = suite.size() - 2});

  // 4 client threads, each submitting every query several times with both
  // engines; the small cache forces eviction traffic while queries run.
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<Result<BlasCollection::CollectionResult>>>
            futures;
        std::vector<std::pair<std::string, Engine>> keys;
        for (const BenchQuery& q : suite) {
          Engine engine = (c + round) % 2 == 0 ? Engine::kRelational
                                               : Engine::kTwig;
          QueryRequest request;
          request.xpath = q.xpath;
          request.options.engine = engine;
          futures.push_back(service.Submit(std::move(request)));
          keys.emplace_back(q.xpath, engine);
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          Result<BlasCollection::CollectionResult> r = futures[i].get();
          // .at(): the map is shared across threads and must stay
          // read-only; a missing key should throw, not insert.
          const Baseline& base = expected.at(keys[i]);
          if (!r.ok() || Starts(*r) != base.starts ||
              r->stats.elements != base.elements) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.stats();
  uint64_t total = static_cast<uint64_t>(kClients) * kRounds * suite.size();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  // Cycling suite.size() distinct keys through a cache two entries
  // smaller guarantees eviction traffic; whether any concurrent lookup
  // hits depends on interleaving, so assert hits deterministically with a
  // quiet back-to-back repeat instead.
  EXPECT_GT(stats.plan_cache_evictions, 0u);
  EXPECT_GT(stats.exec.elements, 0u);
  QueryRequest warm;
  warm.xpath = suite.front().xpath;
  ASSERT_TRUE(service.Execute(warm).ok());
  ASSERT_TRUE(service.Execute(warm).ok());
  EXPECT_GT(service.stats().plan_cache_hits, stats.plan_cache_hits);
}

/// One query path: the single-document service, served as a one-member
/// collection, costs exactly what BlasSystem::Open costs — same matches,
/// offset skips and every ExecStats counter — for every fig-10 query ×
/// translator × engine × offset/limit window × projection, through
/// Execute, OpenCursor and the streaming Submit. Every run starts from a
/// cold page cache, so page misses compare too.
TEST(QueryServiceConcurrencyTest, SingleDocumentServiceEqualsBlasSystemOpen) {
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
  ASSERT_TRUE(built.ok()) << built.status();
  BlasSystem sys = std::move(built).value();
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  struct Run {
    std::vector<uint32_t> starts;
    std::vector<std::string> contents;
    ExecStats stats;
    uint64_t offset_skipped = 0;
  };
  auto expect_same = [](const Run& want, const Run& got,
                        const std::string& context) {
    EXPECT_EQ(got.starts, want.starts) << context;
    EXPECT_EQ(got.contents, want.contents) << context;
    EXPECT_EQ(got.offset_skipped, want.offset_skipped) << context;
    EXPECT_EQ(got.stats.elements, want.stats.elements) << context;
    EXPECT_EQ(got.stats.page_fetches, want.stats.page_fetches) << context;
    EXPECT_EQ(got.stats.page_misses, want.stats.page_misses) << context;
    EXPECT_EQ(got.stats.io_reads, want.stats.io_reads) << context;
    EXPECT_EQ(got.stats.d_joins, want.stats.d_joins) << context;
    EXPECT_EQ(got.stats.intermediate_rows, want.stats.intermediate_rows)
        << context;
    EXPECT_EQ(got.stats.output_rows, want.stats.output_rows) << context;
  };
  auto add = [](Run* run, const Match& m, bool project) {
    run->starts.push_back(m.start);
    if (project) run->contents.push_back(m.content);
  };

  struct Window {
    uint64_t offset, limit;
  };
  const Window windows[] = {{0, 0}, {0, 1}, {0, 10}, {5, 10}, {50, 200}};
  size_t compared = 0;
  for (const BenchQuery& q : Figure10Queries('A')) {
    for (Translator t : {Translator::kDLabel, Translator::kSplit,
                         Translator::kPushUp, Translator::kUnfold}) {
      for (Engine e : {Engine::kRelational, Engine::kTwig, Engine::kAuto}) {
        for (const Window& w : windows) {
          for (Projection p : {Projection::kDLabel, Projection::kValue}) {
            const bool project = p != Projection::kDLabel;
            QueryRequest request{.xpath = q.xpath};
            request.options.translator = t;
            request.options.engine = e;
            request.options.offset = w.offset;
            request.options.limit = w.limit;
            request.options.projection = p;
            const std::string context =
                q.name + " " + TranslatorName(t) + "/" + EngineName(e) +
                " offset=" + std::to_string(w.offset) +
                " limit=" + std::to_string(w.limit) +
                (project ? " kValue" : " kDLabel");

            sys.ResetCounters();
            Result<ResultCursor> direct = sys.Open(q.xpath, request.options);
            Run want;
            if (direct.ok()) {
              while (std::optional<Match> m = direct->Next()) {
                add(&want, *m, project);
              }
              want.stats = direct->stats();
              want.offset_skipped = direct->offset_skipped();
            }

            sys.ResetCounters();
            Result<BlasCollection::CollectionResult> executed =
                service.Execute(request);
            ASSERT_EQ(executed.ok(), direct.ok()) << context;
            if (!direct.ok()) {
              EXPECT_EQ(executed.status().code(), direct.status().code())
                  << context;
              continue;
            }
            Run got;
            for (const BlasCollection::DocMatches& doc : executed->docs) {
              got.starts.insert(got.starts.end(), doc.starts.begin(),
                                doc.starts.end());
              for (const Match& m : doc.matches) {
                got.contents.push_back(m.content);
              }
            }
            got.stats = executed->stats;
            got.offset_skipped = executed->offset_skipped;
            expect_same(want, got, context + " Execute");

            sys.ResetCounters();
            Result<CollectionCursor> cursor = service.OpenCursor(request);
            ASSERT_TRUE(cursor.ok()) << context;
            got = Run();
            while (std::optional<CollectionMatch> m = cursor->Next()) {
              add(&got, m->match, project);
            }
            got.stats = cursor->SettledStats();
            got.offset_skipped = cursor->offset_skipped();
            expect_same(want, got, context + " OpenCursor");

            sys.ResetCounters();
            const uint64_t skipped_before =
                service.stats().exec.offset_skipped;
            got = Run();
            Result<StreamSummary> streamed =
                service
                    .Submit(request,
                            [&](const Match& m) {
                              add(&got, m, project);
                              return true;
                            })
                    .get();
            ASSERT_TRUE(streamed.ok()) << context;
            got.stats = streamed->stats;
            got.offset_skipped =
                service.stats().exec.offset_skipped - skipped_before;
            expect_same(want, got, context + " Submit");
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);

  // A warm repeat is one plan-cache hit, and one hit on the document's
  // plan slot.
  QueryRequest warm{.xpath = Figure10Queries('A')[0].xpath};
  ServiceStats before = service.stats();
  ASSERT_TRUE(service.Execute(warm).ok());
  ServiceStats after = service.stats();
  EXPECT_EQ(after.plan_cache_hits, before.plan_cache_hits + 1);
  EXPECT_EQ(after.plan_cache_misses, before.plan_cache_misses);
  EXPECT_EQ(after.doc_plan_hits, before.doc_plan_hits + 1);
  EXPECT_EQ(after.doc_plan_misses, before.doc_plan_misses);
}

TEST(QueryServiceConcurrencyTest, ReturnFirstRangeQueryStatsMatchOnCacheMissAndHit) {
  // A bounded range query runs return-first, and its batches are sized by
  // the exact count of prices that pass. The count is made when the cursor
  // opens, not when the plan is analysed, so a plan-cache hit (which skips
  // the analysis) pays and reports it exactly as a miss and the facade do.
  Result<BlasSystem> built = BlasSystem::FromEvents(
      [](SaxHandler* h) { GenerateAuction(GenOptions{}, h); });
  ASSERT_TRUE(built.ok()) << built.status();
  BlasSystem sys = std::move(built).value();
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  for (const char* price : {"40", "300", "100000"}) {
    QueryRequest request{.xpath = std::string("//closed_auction[price>\"") +
                                  price + "\"]/buyer/@person"};
    request.options.translator = Translator::kPushUp;
    request.options.limit = 10;
    sys.ResetCounters();
    Result<QueryResult> facade = sys.Execute(request.xpath, request.options);
    ASSERT_TRUE(facade.ok()) << facade.status();
    const ExecStats& want = facade->stats;
    const ServiceStats before = service.stats();
    for (const char* leg : {"miss", "hit"}) {
      sys.ResetCounters();
      Result<BlasCollection::CollectionResult> got = service.Execute(request);
      ASSERT_TRUE(got.ok()) << got.status();
      const std::string context = std::string(price) + " " + leg;
      EXPECT_EQ(Starts(*got), facade->starts) << context;
      EXPECT_EQ(got->stats.elements, want.elements) << context;
      EXPECT_EQ(got->stats.page_fetches, want.page_fetches) << context;
      EXPECT_EQ(got->stats.page_misses, want.page_misses) << context;
      EXPECT_EQ(got->stats.io_reads, want.io_reads) << context;
      EXPECT_EQ(got->stats.d_joins, want.d_joins) << context;
      EXPECT_EQ(got->stats.intermediate_rows, want.intermediate_rows)
          << context;
      EXPECT_EQ(got->stats.output_rows, want.output_rows) << context;
    }
    const ServiceStats after = service.stats();
    EXPECT_EQ(after.plan_cache_misses, before.plan_cache_misses + 1);
    EXPECT_EQ(after.plan_cache_hits, before.plan_cache_hits + 1);
  }
}

/// Service-wide element roll-up equals the store's own global counter when
/// the service is the only reader (ExecStats aggregation is exact).
TEST(QueryServiceConcurrencyTest, StatsRollUpMatchesStoreCounters) {
  BlasSystem sys = MustBuild(kDoc);
  sys.ResetCounters();
  QueryService service(&sys, ServiceOptions{.worker_threads = 4});

  std::vector<std::future<Result<BlasCollection::CollectionResult>>> futures;
  for (int i = 0; i < 40; ++i) {
    QueryRequest request;
    request.xpath = i % 2 == 0 ? "//item/name" : "/site/people/person/name";
    request.options.engine = i % 3 == 0 ? Engine::kTwig : Engine::kRelational;
    futures.push_back(service.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().ok());
  }
  EXPECT_EQ(service.stats().exec.elements, sys.store().stats().elements);
  EXPECT_EQ(service.stats().exec.page_fetches,
            sys.store().stats().page_fetches);
}

// ------------------------------------------------------- observability ---

/// Statsz()'s exec roll-up must equal the sum of the per-query ExecStats
/// the callers saw — no double count, no leak.
TEST(QueryServiceObsTest, StatszCountersMatchPerQueryExecStatsSums) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 2});

  ExecStats sum;
  uint64_t completed = 0;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request;
    request.xpath = i % 2 == 0 ? "//item/name" : "//person/name";
    Result<BlasCollection::CollectionResult> result = service.Execute(request);
    ASSERT_TRUE(result.ok());
    sum.elements += result->stats.elements;
    sum.page_fetches += result->stats.page_fetches;
    sum.output_rows += result->stats.output_rows;
    ++completed;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.exec.elements, sum.elements);
  EXPECT_EQ(stats.exec.page_fetches, sum.page_fetches);
  EXPECT_EQ(stats.exec.output_rows, sum.output_rows);

  // The latency histogram saw exactly one sample per completed query.
  const obs::Histogram* latency =
      service.metrics().GetHistogram("blas_query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), completed);

  // Both exporters carry the same numbers.
  const std::string json = service.Statsz();
  EXPECT_EQ(json.rfind("{\"metrics\":{\"counters\":{", 0), 0u) << json;
  EXPECT_NE(json.find("\"process\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"blas_service_completed\":" +
                      std::to_string(completed) + ","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blas_service_exec_elements\":" +
                      std::to_string(sum.elements) + ","),
            std::string::npos)
      << json;
  const std::string prom = service.StatszPrometheus();
  EXPECT_NE(prom.find("blas_service_completed " + std::to_string(completed)),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("blas_query_latency_ns_bucket"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("blas_query_latency_ns_count " +
                      std::to_string(completed)),
            std::string::npos)
      << prom;
}

/// The number after `"key":` in a JSON text, or UINT64_MAX when absent.
uint64_t JsonCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// The sample value of an unlabelled Prometheus series, or UINT64_MAX.
uint64_t PromSample(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

/// ServiceStats is a view of the registry: after a mix of every kind of
/// work, each field equals its `blas_service_*` entry in the registry
/// snapshot, in Statsz() and in StatszPrometheus(), and the registry
/// holds no other `blas_service_*` series.
TEST(QueryServiceObsTest, EveryServiceStatsFieldIsARegistryEntry) {
  BlasCollection coll;
  for (int i = 0; i < 8; ++i) {
    std::string xml = "<r>";
    for (int j = 0; j < 20; ++j) xml += "<x>m</x>";
    xml += "</r>";
    ASSERT_TRUE(coll.AddXml("doc" + std::to_string(i), xml).ok());
  }
  QueryService service(
      &coll, ServiceOptions{.worker_threads = 1, .plan_cache_capacity = 2});

  // Completed queries: a miss, a hit, and two more shapes that evict.
  for (const char* xpath : {"//x", "//x", "//r", "/r/x"}) {
    ASSERT_TRUE(service.Execute({.xpath = xpath}).ok()) << xpath;
  }
  ASSERT_TRUE(service.Submit({.xpath = "//x"}).get().ok());
  EXPECT_FALSE(service.Execute({.xpath = "//["}).ok());  // parse failure
  {
    Result<CollectionCursor> cursor = service.OpenCursor({.xpath = "//r"});
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(cursor->Drain().ok());
  }
  QueryRequest window{.xpath = "//x"};
  window.options.offset = 3;
  window.options.limit = 2;
  ASSERT_TRUE(service.Execute(window).ok());

  // Park the one worker inside a stream's callback (which then cancels
  // it), so a bounded query's scattered documents stay queued and its
  // merge cancels them.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  bool first = true;  // touched by the one worker only
  auto parked = service.Submit({.xpath = "//x"}, [&](const Match&) {
    if (first) {
      first = false;
      entered.set_value();
      gate.wait();
    }
    return false;
  });
  entered.get_future().wait();
  QueryRequest bounded{.xpath = "//x"};
  bounded.options.limit = 1;
  ASSERT_TRUE(service.Execute(bounded).ok());
  release.set_value();
  Result<StreamSummary> cancelled = parked.get();
  ASSERT_TRUE(cancelled.ok());
  EXPECT_TRUE(cancelled->cancelled);

  service.Shutdown();
  EXPECT_FALSE(service.Submit({.xpath = "//x"}).get().ok());  // rejected

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.completed, 7u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cursors_opened, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_GT(s.plan_cache_evictions, 0u);
  EXPECT_GT(s.docs_cancelled, 0u);
  EXPECT_EQ(s.exec.offset_skipped, 3u);
  const std::map<std::string, uint64_t> fields = {
      {"submitted", s.submitted},
      {"completed", s.completed},
      {"failed", s.failed},
      {"rejected", s.rejected},
      {"cursors_opened", s.cursors_opened},
      {"cancelled", s.cancelled},
      {"plan_cache_hits", s.plan_cache_hits},
      {"plan_cache_misses", s.plan_cache_misses},
      {"plan_cache_evictions", s.plan_cache_evictions},
      {"doc_plan_hits", s.doc_plan_hits},
      {"doc_plan_misses", s.doc_plan_misses},
      {"queries_served_during_churn", s.queries_served_during_churn},
      {"docs_executed", s.docs_executed},
      {"docs_cancelled", s.docs_cancelled},
      {"exec_elements", s.exec.elements},
      {"exec_page_fetches", s.exec.page_fetches},
      {"exec_page_misses", s.exec.page_misses},
      {"exec_io_reads", s.exec.io_reads},
      {"exec_d_joins", s.exec.d_joins},
      {"exec_intermediate_rows", s.exec.intermediate_rows},
      {"exec_output_rows", s.exec.output_rows},
      {"exec_offset_skipped", s.exec.offset_skipped},
  };
  const obs::MetricsSnapshot snapshot = service.metrics().Snapshot();
  const std::string json = service.Statsz();
  const std::string prom = service.StatszPrometheus();
  for (const auto& [field, value] : fields) {
    const std::string name = "blas_service_" + field;
    auto it = snapshot.counters.find(name);
    ASSERT_NE(it, snapshot.counters.end()) << name;
    EXPECT_EQ(it->second, value) << name;
    EXPECT_EQ(JsonCounter(json, name), value) << name;
    EXPECT_EQ(PromSample(prom, name), value) << name;
    EXPECT_NE(prom.find("# TYPE " + name + " counter\n"), std::string::npos)
        << name;
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("blas_service_", 0) == 0) {
      EXPECT_EQ(fields.count(name.substr(13)), 1u) << name;
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_NE(name.rfind("blas_service_", 0), 0u) << name;
  }
  EXPECT_EQ(prom.find("blas_plan_cache_hit_percent"), std::string::npos);
}

/// A live service exports its collection's figures from the collection
/// itself; the manifest size is a gauge, because a checkpoint shrinks it.
TEST(QueryServiceObsTest, LiveFiguresComeFromTheCollection) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("blas_service_obs_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  LiveOptions options;
  options.checkpoint_every = 2;
  Result<std::unique_ptr<LiveCollection>> opened =
      LiveCollection::Open(dir.string(), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  LiveCollection& live = **opened;
  {
    QueryService service(&live);
    auto manifest_bytes = [&service] {
      return service.metrics().Snapshot().gauges.at(
          "blas_service_manifest_bytes");
    };
    // The second publish compacts the log; the third appends to it and
    // the fourth, removing a document, compacts it again.
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(service.SubmitAddDocument(name, kDoc).get().ok()) << name;
    }
    const int64_t before = manifest_bytes();
    ASSERT_TRUE(service.SubmitRemoveDocument("c").get().ok());
    EXPECT_EQ(live.stats().checkpoints, 2u);
    EXPECT_LT(manifest_bytes(), before);

    const LiveCollection::Stats ingest = live.stats();
    const obs::MetricsSnapshot snapshot = service.metrics().Snapshot();
    EXPECT_EQ(snapshot.counters.at("blas_service_docs_ingested"),
              ingest.docs_ingested);
    EXPECT_EQ(snapshot.counters.at("blas_service_docs_removed"),
              ingest.docs_removed);
    EXPECT_EQ(snapshot.counters.at("blas_service_epochs_published"),
              ingest.epochs_published);
    EXPECT_EQ(manifest_bytes(), static_cast<int64_t>(ingest.manifest_bytes));
    const std::string prom = service.StatszPrometheus();
    EXPECT_NE(prom.find("# TYPE blas_service_manifest_bytes gauge\n"),
              std::string::npos)
        << prom;
    EXPECT_EQ(PromSample(prom, "blas_service_manifest_bytes"),
              ingest.manifest_bytes);
    EXPECT_NE(prom.find("# TYPE blas_service_epochs_published counter\n"),
              std::string::npos);
    EXPECT_EQ(PromSample(prom, "blas_service_docs_removed"), 1u);
  }
  opened->reset();
  std::filesystem::remove_all(dir);
}

/// QueryOptions::trace yields the full stage span tree on a cold plan:
/// plan_cache(miss) -> parse -> merge, which opens the document lazily:
/// translate -> optimize -> execute.
TEST(QueryServiceObsTest, ExplicitTraceYieldsStageSpans) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.trace = true;
  ASSERT_TRUE(service.Execute(request).ok());
  auto recent = service.recent_traces();
  ASSERT_EQ(recent.size(), 1u);
  const std::shared_ptr<const obs::Trace> cold = recent[0];
  EXPECT_EQ(cold->label, NormalizeXPath(request.xpath));
  EXPECT_GT(cold->total_ns, 0u);

  std::map<std::string, const obs::TraceSpan*> by_name;
  for (const obs::TraceSpan& span : cold->spans) by_name[span.name] = &span;
  for (const char* stage : {"plan_cache", "parse", "translate", "optimize",
                            "execute", "merge"}) {
    ASSERT_TRUE(by_name.count(stage)) << "missing span " << stage << "\n"
                                      << cold->Render();
  }
  EXPECT_EQ(by_name["plan_cache"]->note, "miss");
  // Stages run in order; the merge opens the document inside its span.
  EXPECT_LE(by_name["parse"]->start_ns, by_name["merge"]->start_ns);
  EXPECT_LE(by_name["merge"]->start_ns, by_name["translate"]->start_ns);
  EXPECT_LE(by_name["translate"]->start_ns, by_name["optimize"]->start_ns);
  EXPECT_LE(by_name["optimize"]->start_ns, by_name["execute"]->start_ns);
  // The engine ran during execute: its counter delta is attributed there.
  EXPECT_GT(by_name["execute"]->elements, 0u);

  // Warm plan: the cache hit skips parse/translate/optimize entirely.
  ASSERT_TRUE(service.Execute(request).ok());
  recent = service.recent_traces();
  ASSERT_EQ(recent.size(), 2u);  // oldest first
  EXPECT_EQ(recent[0], cold);
  bool saw_parse = false;
  for (const obs::TraceSpan& span : recent[1]->spans) {
    if (span.name == "parse") saw_parse = true;
    if (span.name == "plan_cache") EXPECT_EQ(span.note, "hit");
  }
  EXPECT_FALSE(saw_parse);
}

/// Sampling traces every query without the per-request flag, and the ring
/// stays bounded.
TEST(QueryServiceObsTest, SampledTracesStayInBoundedRing) {
  BlasSystem sys = MustBuild(kDoc);
  ServiceOptions options;
  options.worker_threads = 1;
  options.trace_sample_every = 1;
  options.trace_ring_capacity = 3;
  QueryService service(&sys, options);

  for (int i = 0; i < 7; ++i) {
    QueryRequest request;
    request.xpath = "//person/name";
    ASSERT_TRUE(service.Execute(request).ok());
  }
  EXPECT_EQ(service.recent_traces().size(), 3u);
  EXPECT_EQ(service.trace_ring().total_pushed(), 7u);
}

TEST(QueryServiceObsTest, SlowQueryLogCapturesBreakdown) {
  BlasSystem sys = MustBuild(kDoc);
  ServiceOptions options;
  options.worker_threads = 1;
  // Every query is "slow" at a 0+ threshold, so one completed query must
  // produce one entry.
  options.slow_query_millis = 1e-9;
  options.slow_query_log_capacity = 2;
  QueryService service(&sys, options);

  QueryRequest request;
  request.xpath = "  //item/name  ";
  request.options.trace = true;
  ASSERT_TRUE(service.Execute(request).ok());
  auto entries = service.slow_query_log().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query, "//item/name");  // normalized
  EXPECT_GT(entries[0].output_rows, 0u);
  ASSERT_NE(entries[0].trace, nullptr);
  EXPECT_NE(entries[0].ToString().find("translate"), std::string::npos);

  // The ring stays bounded.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Execute(request).ok());
  }
  EXPECT_EQ(service.slow_query_log().Entries().size(), 2u);
  EXPECT_EQ(service.slow_query_log().total_recorded(), 6u);
}

/// The offset satellite: matches consumed by `offset` surface in the exec
/// roll-up instead of vanishing.
TEST(QueryServiceObsTest, OffsetSkippedReachesRollup) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});

  QueryRequest request;
  request.xpath = "//person/name";  // two matches
  request.options.offset = 1;
  Result<BlasCollection::CollectionResult> result = service.Execute(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->offset_skipped, 1u);
  EXPECT_EQ(service.stats().exec.offset_skipped, 1u);
}

/// Collection queries report scatter accounting (docs_executed) and feed
/// the one latency histogram.
TEST(QueryServiceObsTest, CollectionQueryRecordsScatterStats) {
  BlasCollection coll;
  ASSERT_TRUE(coll.AddXml("a", kDoc).ok());
  ASSERT_TRUE(coll.AddXml("b", kDoc).ok());
  QueryService service(&coll, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.trace = true;
  Result<BlasCollection::CollectionResult> result = service.Execute(request);
  ASSERT_TRUE(result.ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.docs_executed, 2u);
  EXPECT_EQ(stats.docs_cancelled, 0u);
  const obs::Histogram* latency =
      service.metrics().GetHistogram("blas_query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);

  // The trace carries one open_doc span per document (the merge's own and
  // the scattered one) plus the gather-side merge span.
  auto recent = service.recent_traces();
  ASSERT_EQ(recent.size(), 1u);
  size_t open_docs = 0;
  bool merged = false;
  for (const obs::TraceSpan& span : recent[0]->spans) {
    if (span.name == "open_doc") ++open_docs;
    if (span.name == "merge") merged = true;
  }
  EXPECT_EQ(open_docs, 2u);
  EXPECT_TRUE(merged);
}

/// Latency is timed from submission: a query queued behind a busy worker
/// reports its queue wait in blas_queue_wait_ns and in its latency.
TEST(QueryServiceObsTest, LatencyIncludesQueueWait) {
  BlasSystem sys = MustBuild(kDoc);
  QueryService service(&sys, ServiceOptions{.worker_threads = 1});
  bool slept = false;  // touched by the one worker only
  auto first = service.Submit({.xpath = "//person/name"},
                              [&slept](const Match&) {
                                if (!slept) {
                                  slept = true;
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(30));
                                }
                                return true;
                              });
  auto second = service.Submit({.xpath = "//person/name"},
                               [](const Match&) { return true; });
  ASSERT_TRUE(first.get().ok());
  Result<StreamSummary> queued = second.get();
  ASSERT_TRUE(queued.ok());
  EXPECT_GE(queued->millis, 20.0);

  constexpr uint64_t k20ms = 20'000'000;
  const obs::Histogram* wait =
      service.metrics().GetHistogram("blas_queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 2u);
  EXPECT_GE(wait->max_recorded(), k20ms);  // the second query's wait
  const obs::Histogram* latency =
      service.metrics().GetHistogram("blas_query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  // The smaller of the two: the first query sleeps, the second waits.
  EXPECT_GE(latency->ValueAtQuantile(0.0), k20ms);
}

}  // namespace
}  // namespace blas
