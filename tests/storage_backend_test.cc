// Pluggable storage backends: the PageSource seam must be invisible to
// queries. Every test here opens the same BLASIDX2 snapshot through the
// pread and mmap backends and checks byte-identical answers against the
// in-memory original (tiny and unlimited budgets), PageRef validity
// across DropCache on every backend, mmap mapping-epoch reclamation
// ordering (munmap + deferred unlink only after the last ref drops, even
// when the ref outlives the BufferPool and the owning system), segment
// reclamation under LiveCollection churn, identical corrupt-file
// preflight, and frame/mapped-bytes budget bounds.
//
// Runs under the TSan and cache-pressure CI jobs (BLAS_PAGED_FRAMES).

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blas/collection.h"
#include "gen/generator.h"
#include "ingest/live_collection.h"
#include "storage/page_source.h"
#include "storage/persist.h"
#include "tests/test_util.h"

namespace blas {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Frames per shard for pressure tests; the CI cache-pressure job
/// overrides the default via BLAS_PAGED_FRAMES.
size_t PressureFrames(size_t def) {
  const char* env = std::getenv("BLAS_PAGED_FRAMES");
  if (env == nullptr) return def;
  int v = std::atoi(env);
  return v < 2 ? 2 : static_cast<size_t>(v);
}

StorageOptions TinyBudget(StorageBackend backend, size_t frames = 4) {
  StorageOptions storage;
  storage.frames_per_shard = PressureFrames(frames);
  storage.shards = 1;
  storage.backend = backend;
  return storage;
}

StorageOptions AmpleBudget(StorageBackend backend) {
  StorageOptions storage;
  storage.backend = backend;
  return storage;
}

BlasSystem BuildAuction(int scale = 1) {
  Result<BlasSystem> sys = BlasSystem::FromEvents(
      [scale](SaxHandler* h) {
        GenOptions gen;
        gen.scale = scale;
        GenerateAuction(gen, h);
      },
      BlasOptions{});
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) std::abort();
  return std::move(sys).value();
}

const char* kAuctionQueries[] = {
    "//item/name",
    "/site/regions/asia/item[shipping]/description",
    "/site//keyword",
    "//parlist/listitem",
    "/site/people/person/name",
    "//nosuchtag",
};

constexpr StorageBackend kPagedBackends[] = {StorageBackend::kPread,
                                             StorageBackend::kMmap};

// ------------------------------------------ cross-backend equivalence ---

TEST(StorageBackendTest, AllBackendsAnswerByteIdentically) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_equiv.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  for (StorageBackend backend : kPagedBackends) {
    for (const StorageOptions& storage :
         {TinyBudget(backend, 4), AmpleBudget(backend)}) {
      Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
      ASSERT_TRUE(paged.ok()) << paged.status();
      // The fallback path (mmap unavailable) would silently serve pread;
      // on this platform the requested backend must actually be serving.
      EXPECT_EQ(paged->store().pool().backend(), backend)
          << StorageBackendName(backend);
      for (const char* q : kAuctionQueries) {
        for (Translator t : {Translator::kDLabel, Translator::kSplit,
                             Translator::kPushUp, Translator::kUnfold}) {
          for (Engine e : {Engine::kRelational, Engine::kTwig}) {
            Result<QueryResult> a = original.Execute(
                q, {.translator = t, .engine = e});
            Result<QueryResult> b = paged->Execute(
                q, {.translator = t, .engine = e});
            if (!a.ok()) {
              EXPECT_EQ(a.status().code(), b.status().code()) << q;
              continue;
            }
            ASSERT_TRUE(b.ok()) << q << " " << b.status();
            EXPECT_EQ(a->starts, b->starts)
                << q << " [" << TranslatorName(t) << "/" << EngineName(e)
                << "] backend=" << StorageBackendName(backend)
                << " frames=" << storage.frames_per_shard;
          }
        }
      }
    }
  }
}

TEST(StorageBackendTest, ProjectedContentIdenticalAcrossBackends) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_projection.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  QueryOptions options;
  options.projection = Projection::kValue;
  Result<QueryResult> expected =
      original.Execute("//item/description", options);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (StorageBackend backend : kPagedBackends) {
    Result<BlasSystem> paged =
        BlasSystem::OpenPaged(path, TinyBudget(backend, 4));
    ASSERT_TRUE(paged.ok()) << paged.status();
    Result<QueryResult> got = paged->Execute("//item/description", options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(expected->starts, got->starts);
    ASSERT_EQ(expected->matches.size(), got->matches.size());
    for (size_t i = 0; i < expected->matches.size(); ++i) {
      EXPECT_EQ(expected->matches[i].content, got->matches[i].content)
          << StorageBackendName(backend) << " match " << i;
    }
  }
}

// ------------------------------------------------- PageRef lifetimes ---

TEST(StorageBackendTest, PageRefSurvivesDropCacheOnEveryBackend) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_dropcache.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  for (StorageBackend backend : kPagedBackends) {
    Result<BlasSystem> paged =
        BlasSystem::OpenPaged(path, TinyBudget(backend, 4));
    ASSERT_TRUE(paged.ok()) << paged.status();
    const BufferPool& pool = paged->store().pool();

    PageRef ref = pool.Fetch(0);
    ASSERT_TRUE(ref) << StorageBackendName(backend);
    Page copy = *ref;
    // blas-analyze: allow(pin-escape) -- pin-survives-DropCache is the
    paged->store().DropCache();  // very contract under test here
    // pread: the pinned frame was skipped. mmap: the page was madvised
    // away but refaults from the immutable file — same bytes either way.
    EXPECT_EQ(0, std::memcmp(copy.bytes.data(), ref->bytes.data(), kPageSize))
        << StorageBackendName(backend);
  }
}

TEST(StorageBackendTest, MmapRefOutlivesPoolAndMappingReclaimsAfterLastRef) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_epoch.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  const size_t epochs_before = MappedEpochsLive();
  const size_t bytes_before = MappedBytesLive();

  PageRef ref;
  Page copy;
  {
    Result<BlasSystem> paged =
        BlasSystem::OpenPaged(path, AmpleBudget(StorageBackend::kMmap));
    ASSERT_TRUE(paged.ok()) << paged.status();
    ASSERT_EQ(paged->store().pool().backend(), StorageBackend::kMmap);
    const size_t pool_pages = paged->store().pool().page_count();
    EXPECT_EQ(MappedEpochsLive(), epochs_before + 1);
    // The whole pool prefix (header page + pool pages) is mapped once.
    EXPECT_GE(MappedBytesLive() - bytes_before, pool_pages * kPageSize);

    ref = paged->store().pool().Fetch(0);
    ASSERT_TRUE(ref);
    copy = *ref;
  }
  // The system (and its BufferPool) are gone; the ref keeps the mapping
  // epoch — and the bytes — alive.
  EXPECT_EQ(MappedEpochsLive(), epochs_before + 1);
  EXPECT_EQ(0, std::memcmp(copy.bytes.data(), ref->bytes.data(), kPageSize));

  ref = PageRef();  // last ref: munmap now
  EXPECT_EQ(MappedEpochsLive(), epochs_before);
  EXPECT_EQ(MappedBytesLive(), bytes_before);
}

// ------------------------------------- live-collection churn (mmap) ---

std::string ShardXml(const std::string& tag, int items, int salt = 0) {
  std::ostringstream xml;
  xml << "<shard>";
  for (int i = 0; i < items; ++i) {
    xml << "<item><name>" << tag << "-" << (i + salt) << "</name><price>"
        << (10 * (i + 1) + salt) << "</price></item>";
  }
  xml << "</shard>";
  return xml.str();
}

std::string UniqueDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::string dir = TempPath("backend_" + tag + "_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter.fetch_add(1)));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

TEST(StorageBackendTest, MmapSegmentUnlinkedOnlyAfterLastRefUnderChurn) {
  std::string dir = UniqueDir("churn_ref");
  LiveOptions options;
  options.storage.backend = StorageBackend::kMmap;
  Result<std::unique_ptr<LiveCollection>> lc =
      LiveCollection::Open(dir, options);
  ASSERT_TRUE(lc.ok()) << lc.status();
  ASSERT_TRUE((*lc)->AddDocument("a", ShardXml("a", 40)).ok());

  // Pin generation 1: the snapshot pins the system, and a raw PageRef
  // pins the mapping epoch beyond even the system's lifetime.
  std::shared_ptr<const CollectionState> snap = (*lc)->Snapshot();
  std::shared_ptr<const BlasSystem> sys = snap->collection.FindShared("a");
  ASSERT_NE(sys, nullptr);
  ASSERT_EQ(sys->store().pool().backend(), StorageBackend::kMmap);
  std::string seg = dir + "/" + snap->files.at("a");
  ASSERT_TRUE(FileExists(seg));

  PageRef ref = sys->store().pool().Fetch(0);
  ASSERT_TRUE(ref);
  Page copy = *ref;

  // Replace the document: generation 1 becomes obsolete, but its file
  // must survive every live pin.
  ASSERT_TRUE((*lc)->ReplaceDocument("a", ShardXml("a", 40, 7)).ok());
  EXPECT_TRUE(FileExists(seg));

  // Drop the system pins. The tombstone deleter runs, but the unlink is
  // deferred to the mapping epoch because the PageRef still holds it.
  sys.reset();
  snap.reset();
  EXPECT_TRUE(FileExists(seg));
  EXPECT_EQ(0, std::memcmp(copy.bytes.data(), ref->bytes.data(), kPageSize));

  ref = PageRef();  // last pin: munmap, then unlink
  EXPECT_FALSE(FileExists(seg));
  EXPECT_GE((*lc)->stats().files_reclaimed, 1u);

  lc->reset();
  RemoveTree(dir);
}

TEST(StorageBackendTest, MmapChurnWithConcurrentReadersStaysConsistent) {
  std::string dir = UniqueDir("churn_mt");
  LiveOptions options;
  options.storage.backend = StorageBackend::kMmap;
  Result<std::unique_ptr<LiveCollection>> opened =
      LiveCollection::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  LiveCollection* lc = opened->get();
  ASSERT_TRUE(lc->AddDocument("a", ShardXml("a", 30)).ok());
  ASSERT_TRUE(lc->AddDocument("b", ShardXml("b", 30)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<BlasCollection::CollectionResult> r =
            lc->Execute("//item/name");
        ASSERT_TRUE(r.ok()) << r.status();
        // Every published epoch holds both documents with 30 items each.
        size_t starts = 0;
        for (const auto& doc : r->docs) starts += doc.starts.size();
        EXPECT_EQ(starts, 60u);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(
        lc->ReplaceDocument(round % 2 ? "a" : "b",
                            ShardXml(round % 2 ? "a" : "b", 30, round + 1))
            .ok());
  }
  while (reads.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Every replaced generation's file is reclaimed once its pins drop.
  EXPECT_GE(lc->stats().files_reclaimed, 1u);
  opened->reset();
  EXPECT_EQ(MappedEpochsLive(), 0u);
  RemoveTree(dir);
}

// ----------------------------------------------- corrupt-file parity ---

TEST(StorageBackendTest, TruncatedFilePreflightIdenticalAcrossBackends) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_truncated.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  // Cut the file behind the (still valid) header: every backend must
  // fail the size preflight with the same status — mmap in particular
  // must refuse to map rather than SIGBUS on the unbacked tail.
  struct stat st;
  ASSERT_EQ(0, ::stat(path.c_str(), &st));
  ASSERT_EQ(0, ::truncate(path.c_str(),
                          static_cast<off_t>(st.st_size) -
                              static_cast<off_t>(2 * kPageSize)));

  std::optional<StatusCode> first;
  for (StorageBackend backend : kPagedBackends) {
    Result<BlasSystem> paged =
        BlasSystem::OpenPaged(path, AmpleBudget(backend));
    ASSERT_FALSE(paged.ok()) << StorageBackendName(backend);
    if (!first.has_value()) {
      first = paged.status().code();
      EXPECT_EQ(*first, StatusCode::kCorruption);
    } else {
      EXPECT_EQ(paged.status().code(), *first)
          << StorageBackendName(backend);
    }
  }
  EXPECT_EQ(MappedEpochsLive(), 0u);
}

TEST(StorageBackendTest, PagedFilePreflightRejectsShortFileBeforeMapping) {
  std::string path = TempPath("backend_short.bin");
  {
    std::string cmd = "head -c 4096 /dev/zero > '" + path + "'";
    ASSERT_EQ(0, std::system(cmd.c_str()));
  }
  // The file cannot cover base_offset + 8 pages: Open must fail before
  // any backend (pread or mmap) touches it.
  Result<PagedFile> file = PagedFile::Open(path, kPageSize, 8);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------ budget bounds ---

TEST(StorageBackendTest, MmapResidencyHonorsFrameBudget) {
  BlasSystem original = BuildAuction();
  std::string path = TempPath("backend_budget.idx2");
  ASSERT_TRUE(original.SavePagedIndex(path).ok());

  const size_t frames = PressureFrames(4);
  Result<BlasSystem> paged =
      BlasSystem::OpenPaged(path, TinyBudget(StorageBackend::kMmap, 4));
  ASSERT_TRUE(paged.ok()) << paged.status();
  const BufferPool& pool = paged->store().pool();
  ASSERT_GT(pool.page_count(), frames) << "corpus too small for pressure";

  for (const char* q : kAuctionQueries) {
    Result<QueryResult> r = paged->Execute(q, QueryOptions{});
    ASSERT_TRUE(r.ok()) << q << " " << r.status();
  }
  // Mapped-resident pages — not mapped bytes — are the budgeted unit:
  // the whole segment stays mapped while residency is bounded by the
  // frame allowance, exactly like pread frames.
  EXPECT_LE(pool.frames_in_use(), frames);
  EXPECT_LE(pool.peak_frames(), frames);
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GE(MappedBytesLive(), pool.page_count() * kPageSize);
}

TEST(StorageBackendTest, SharedBudgetSettlesToZeroAfterMmapTeardown) {
  auto budget = std::make_shared<FrameBudget>(24 * kPageSize);
  std::string path = TempPath("backend_shared.idx2");
  {
    BlasSystem original = BuildAuction();
    ASSERT_TRUE(original.SavePagedIndex(path).ok());
  }
  {
    StorageOptions storage;
    storage.backend = StorageBackend::kMmap;
    storage.shards = 1;
    storage.shared_budget = budget;
    std::vector<BlasSystem> pools;
    for (int i = 0; i < 3; ++i) {
      Result<BlasSystem> paged = BlasSystem::OpenPaged(path, storage);
      ASSERT_TRUE(paged.ok()) << paged.status();
      pools.push_back(std::move(paged).value());
    }
    for (BlasSystem& sys : pools) {
      Result<QueryResult> r = sys.Execute("//item/name", QueryOptions{});
      ASSERT_TRUE(r.ok()) << r.status();
    }
    EXPECT_GT(budget->used(), 0u);
  }
  // Every mapped-resident charge is returned when its pool dies.
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_GE(budget->peak_used(), kPageSize);
  EXPECT_EQ(MappedEpochsLive(), 0u);
}

}  // namespace
}  // namespace blas
