// Tests for the live ingestion subsystem: durable manifest log,
// epoch-snapshot publishes, crash recovery, reader/churn isolation, and
// the epoch-tagged plan cache.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/ingest_queue.h"
#include "ingest/live_collection.h"
#include "ingest/manifest.h"
#include "service/query_service.h"
#include "service/thread_pool.h"

namespace blas {
namespace {

// ------------------------------------------------------- filesystem ---

std::string UniqueDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::string dir = "/tmp/blas_live_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Byte-copies every regular file of `src` into a fresh `dst` — the
/// "crash image" the recovery tests reopen.
void CopyDir(const std::string& src, const std::string& dst) {
  ::mkdir(dst.c_str(), 0755);
  std::string cmd = "cp '" + src + "'/* '" + dst + "'/ 2>/dev/null";
  (void)std::system(cmd.c_str());
}

/// RAII cleanup of every directory a test creates.
class TempDirs {
 public:
  ~TempDirs() {
    for (const std::string& dir : dirs_) RemoveTree(dir);
  }
  std::string Make(const std::string& tag) {
    dirs_.push_back(UniqueDir(tag));
    return dirs_.back();
  }
  std::string Track(std::string dir) {
    dirs_.push_back(std::move(dir));
    return dirs_.back();
  }

 private:
  std::vector<std::string> dirs_;
};

// --------------------------------------------------------- documents ---

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

/// Canonical serialization of a collection answer — the "byte-identical
/// to some published epoch" comparand.
std::string Serialize(const BlasCollection::CollectionResult& r) {
  std::ostringstream out;
  for (const auto& doc : r.docs) {
    out << doc.name << ":";
    for (uint32_t s : doc.starts) out << s << ",";
    for (const Match& m : doc.matches) out << m.content << ";";
    out << "|";
  }
  return out.str();
}

QueryOptions ValueQuery() {
  QueryOptions options;
  options.projection = Projection::kValue;
  return options;
}

std::string Drained(const LiveCollection& live, const std::string& xpath) {
  Result<BlasCollection::CollectionResult> r =
      live.Execute(xpath, ValueQuery());
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? Serialize(*r) : std::string("<error>");
}

// ------------------------------------------------------------- tests ---

TEST(LiveCollectionTest, AddReplaceRemoveAndReopen) {
  TempDirs dirs;
  std::string dir = dirs.Make("basic");
  uint64_t final_epoch = 0;
  std::string final_answer;
  {
    Result<std::unique_ptr<LiveCollection>> open = LiveCollection::Open(dir);
    ASSERT_TRUE(open.ok()) << open.status();
    LiveCollection& live = **open;
    EXPECT_EQ(live.epoch(), 0u);
    EXPECT_EQ(live.size(), 0u);

    ASSERT_TRUE(live.AddDocument("a", ShardXml("a", 2)).ok());
    ASSERT_TRUE(live.AddDocument("b", ShardXml("b", 3)).ok());
    EXPECT_EQ(live.epoch(), 2u);
    EXPECT_EQ(live.size(), 2u);

    // Duplicate add / missing replace / missing remove all refuse.
    EXPECT_EQ(live.AddDocument("a", ShardXml("a", 1)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(live.ReplaceDocument("zzz", ShardXml("z", 1)).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(live.RemoveDocument("zzz").code(), StatusCode::kNotFound);
    EXPECT_EQ(live.epoch(), 2u);  // failed publishes do not bump

    Result<BlasCollection::CollectionResult> r =
        live.Execute("//item/name", ValueQuery());
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->total_matches, 5u);

    ASSERT_TRUE(live.ReplaceDocument("a", ShardXml("a", 4, 100)).ok());
    ASSERT_TRUE(live.RemoveDocument("b").ok());
    EXPECT_EQ(live.epoch(), 4u);
    EXPECT_EQ(live.size(), 1u);

    r = live.Execute("//item/name", ValueQuery());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->total_matches, 4u);
    final_epoch = live.epoch();
    final_answer = Drained(live, "//item/name");

    LiveCollection::Stats stats = live.stats();
    EXPECT_EQ(stats.epochs_published, 4u);
    EXPECT_EQ(stats.docs_ingested, 3u);  // a, b, a-replacement
    EXPECT_EQ(stats.docs_removed, 1u);
    EXPECT_GT(stats.manifest_bytes, 0u);
  }
  // Reopen: the manifest replays to exactly the last published epoch.
  Result<std::unique_ptr<LiveCollection>> reopened =
      LiveCollection::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->epoch(), final_epoch);
  EXPECT_EQ(Drained(**reopened, "//item/name"), final_answer);
}

TEST(LiveCollectionTest, ValueLongerThanAPageIngestsAndSurvivesReopen) {
  // A shard is a BLASIDX2 snapshot; a value past one page's payload
  // spills onto a run of value pages instead of refusing the document.
  TempDirs dirs;
  std::string dir = dirs.Make("long_value");
  const std::string note(10000, 'x');
  const std::string lookup = "//note=\"" + note + "\"";
  std::string answer;
  {
    Result<std::unique_ptr<LiveCollection>> open = LiveCollection::Open(dir);
    ASSERT_TRUE(open.ok()) << open.status();
    LiveCollection& live = **open;
    ASSERT_TRUE(live.AddDocument(
                        "probe", "<site><item><note>" + note +
                                     "</note></item></site>")
                    .ok());
    Result<BlasCollection::CollectionResult> r =
        live.Execute("//item/note", ValueQuery());
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->total_matches, 1u);
    EXPECT_TRUE(r->docs[0].matches[0].content == note);
    Result<BlasCollection::CollectionResult> hit =
        live.Execute(lookup, QueryOptions{});
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_EQ(hit->total_matches, 1u);
    answer = Drained(live, "//item/note");
  }
  Result<std::unique_ptr<LiveCollection>> reopened =
      LiveCollection::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(Drained(**reopened, "//item/note") == answer);
  Result<BlasCollection::CollectionResult> hit =
      (*reopened)->Execute(lookup, QueryOptions{});
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->total_matches, 1u);
}

TEST(LiveCollectionTest, BatchPublishesAsOneEpoch) {
  TempDirs dirs;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("batch"));
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;

  ThreadPool pool(2, 64);
  IngestQueue queue(&live, &pool);
  std::vector<IngestQueue::DocOp> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(IngestQueue::DocOp{ManifestOp::Kind::kAdd,
                                       "doc" + std::to_string(i),
                                       ShardXml("d" + std::to_string(i), 2)});
  }
  std::future<Status> published = queue.SubmitBatch(std::move(batch));
  ASSERT_TRUE(published.get().ok());
  EXPECT_EQ(live.epoch(), 1u);  // three documents, ONE epoch
  EXPECT_EQ(live.size(), 3u);

  // A batch with one bad op publishes nothing.
  std::vector<IngestQueue::DocOp> bad;
  bad.push_back(
      IngestQueue::DocOp{ManifestOp::Kind::kAdd, "doc9", ShardXml("x", 1)});
  bad.push_back(IngestQueue::DocOp{ManifestOp::Kind::kRemove, "absent", ""});
  EXPECT_FALSE(queue.SubmitBatch(std::move(bad)).get().ok());
  EXPECT_EQ(live.epoch(), 1u);
  EXPECT_EQ(live.size(), 3u);
  queue.Drain();
  EXPECT_EQ(queue.stats().published, 1u);
  EXPECT_EQ(queue.stats().failed, 1u);
  EXPECT_EQ(queue.stats().pending, 0u);
}

TEST(LiveCollectionTest, CrashAtEveryRecordBoundaryRecoversThatEpoch) {
  TempDirs dirs;
  std::string dir = dirs.Make("crash");
  LiveOptions options;
  options.checkpoint_every = 0;  // keep the pure delta log
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dir, options);
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;

  // Each publish = one record = one crash image, copied before the next
  // publish can reclaim any file the image still references.
  std::vector<std::string> images;
  std::vector<std::string> expected;
  auto snapshot_image = [&]() {
    std::string image =
        dirs.Track(dir + "_crash" + std::to_string(images.size()));
    CopyDir(dir, image);
    images.push_back(image);
    expected.push_back(Drained(live, "//item/name"));
  };

  snapshot_image();  // epoch 0: empty collection
  ASSERT_TRUE(live.AddDocument("a", ShardXml("a", 2)).ok());
  snapshot_image();
  ASSERT_TRUE(live.AddDocument("b", ShardXml("b", 3)).ok());
  snapshot_image();
  ASSERT_TRUE(live.ReplaceDocument("a", ShardXml("a", 1, 50)).ok());
  snapshot_image();
  ASSERT_TRUE(live.RemoveDocument("b").ok());
  snapshot_image();
  ASSERT_TRUE(live.AddDocument("c", ShardXml("c", 2, 7)).ok());
  snapshot_image();
  ASSERT_TRUE(live.ReplaceDocument("c", ShardXml("c", 3, 9)).ok());
  snapshot_image();

  // The images' manifests must end exactly on ascending record
  // boundaries (crash points).
  Result<ManifestState> full = ReplayManifest(dir + "/MANIFEST");
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->record_boundaries.size(), images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    std::string manifest = ReadFile(images[i] + "/MANIFEST");
    EXPECT_EQ(manifest.size(), full->record_boundaries[i]) << "image " << i;

    Result<std::unique_ptr<LiveCollection>> recovered =
        LiveCollection::Open(images[i], options);
    ASSERT_TRUE(recovered.ok()) << "image " << i << ": "
                                << recovered.status();
    EXPECT_EQ((*recovered)->epoch(), i) << "image " << i;
    EXPECT_EQ(Drained(**recovered, "//item/name"), expected[i])
        << "image " << i;
  }
}

TEST(LiveCollectionTest, TornTailRecordIsDroppedOnRecovery) {
  TempDirs dirs;
  std::string dir = dirs.Make("torn");
  Result<std::unique_ptr<LiveCollection>> open = LiveCollection::Open(dir);
  ASSERT_TRUE(open.ok()) << open.status();
  ASSERT_TRUE((*open)->AddDocument("a", ShardXml("a", 2)).ok());
  ASSERT_TRUE((*open)->AddDocument("b", ShardXml("b", 2)).ok());
  std::string answer = Drained(**open, "//item/name");
  open->reset();

  const std::string manifest_path = dir + "/MANIFEST";
  const std::string intact = ReadFile(manifest_path);

  // Crash mid-append: header-only fragment, then header + partial
  // payload of a would-be third record. Both recover to epoch 2.
  ManifestRecord torn;
  torn.epoch = 3;
  torn.ops.push_back(ManifestOp{ManifestOp::Kind::kRemove, "a", ""});
  std::string encoded = EncodeManifestRecord(torn);
  for (size_t cut : {size_t{5}, encoded.size() - 3}) {
    WriteFile(manifest_path, intact + encoded.substr(0, cut));
    Result<ManifestState> replay = ReplayManifest(manifest_path);
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_TRUE(replay->dropped_partial_tail);
    EXPECT_EQ(replay->epoch, 2u);

    Result<std::unique_ptr<LiveCollection>> recovered =
        LiveCollection::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ((*recovered)->epoch(), 2u);
    EXPECT_EQ(Drained(**recovered, "//item/name"), answer);
    // Reopening truncated the torn tail; the next append starts clean.
    // (An add keeps a/b's files live for the restored manifest below;
    // the new segment becomes an orphan the next Open sweeps.)
    ASSERT_TRUE((*recovered)->AddDocument("c", ShardXml("c", 1)).ok());
    EXPECT_EQ((*recovered)->epoch(), 3u);
    recovered->reset();
    WriteFile(manifest_path, intact);  // rebuild for the next cut
  }
}

TEST(LiveCollectionTest, CorruptManifestIsRejected) {
  TempDirs dirs;
  std::string dir = dirs.Make("corrupt");
  Result<std::unique_ptr<LiveCollection>> open = LiveCollection::Open(dir);
  ASSERT_TRUE(open.ok()) << open.status();
  ASSERT_TRUE((*open)->AddDocument("a", ShardXml("a", 2)).ok());
  ASSERT_TRUE((*open)->AddDocument("b", ShardXml("b", 2)).ok());
  open->reset();

  const std::string manifest_path = dir + "/MANIFEST";
  const std::string intact = ReadFile(manifest_path);
  Result<ManifestState> replay = ReplayManifest(manifest_path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->record_boundaries.size(), 3u);

  LiveOptions no_create;
  no_create.create_if_missing = false;

  // Flipped byte inside the FIRST record's checksummed payload.
  std::string corrupt = intact;
  corrupt[replay->record_boundaries[0] + 12 + 2] ^= 0x5A;
  WriteFile(manifest_path, corrupt);
  Result<std::unique_ptr<LiveCollection>> r =
      LiveCollection::Open(dir, no_create);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // Bad file magic.
  corrupt = intact;
  corrupt[0] = 'X';
  WriteFile(manifest_path, corrupt);
  r = LiveCollection::Open(dir, no_create);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // Bad record magic on the second record.
  corrupt = intact;
  corrupt[replay->record_boundaries[1]] ^= 0xFF;
  WriteFile(manifest_path, corrupt);
  r = LiveCollection::Open(dir, no_create);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);

  // Missing manifest without create_if_missing.
  ASSERT_EQ(std::remove(manifest_path.c_str()), 0);
  r = LiveCollection::Open(dir, no_create);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(LiveCollectionTest, RemoveWhileQueryDrainsThenReclaimsFile) {
  TempDirs dirs;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("reclaim"));
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;
  ASSERT_TRUE(live.AddDocument("a", ShardXml("a", 3)).ok());
  ASSERT_TRUE(live.AddDocument("b", ShardXml("b", 2)).ok());
  const std::string a_file =
      live.dir() + "/" + live.Snapshot()->files.at("a");
  ASSERT_TRUE(FileExists(a_file));

  {
    Result<CollectionCursor> cursor =
        live.OpenCursor("//item/name", ValueQuery());
    ASSERT_TRUE(cursor.ok()) << cursor.status();

    // The document disappears from the published state mid-drain...
    ASSERT_TRUE(live.RemoveDocument("a").ok());
    EXPECT_EQ(live.size(), 1u);
    EXPECT_TRUE(FileExists(a_file));  // ...but the cursor still pins it.

    Result<BlasCollection::CollectionResult> drained = cursor->Drain();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained->total_matches, 5u);  // snapshot semantics: a included
    ASSERT_EQ(drained->docs.size(), 2u);
    EXPECT_EQ(drained->docs[0].name, "a");
  }
  // Last pin dropped with the cursor: the obsolete snapshot file is gone.
  EXPECT_FALSE(FileExists(a_file));
  EXPECT_EQ(live.stats().files_reclaimed, 1u);

  // New queries see the post-remove epoch.
  Result<BlasCollection::CollectionResult> fresh =
      live.Execute("//item/name", ValueQuery());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->total_matches, 2u);
}

TEST(LiveCollectionTest, OrphanedSnapshotFilesAreSweptAtOpen) {
  TempDirs dirs;
  std::string dir = dirs.Make("sweep");
  {
    Result<std::unique_ptr<LiveCollection>> open = LiveCollection::Open(dir);
    ASSERT_TRUE(open.ok()) << open.status();
    ASSERT_TRUE((*open)->AddDocument("a", ShardXml("a", 2)).ok());
  }
  // Crash leftovers: an unreferenced snapshot and a torn temp file.
  WriteFile(dir + "/seg-777.blasidx", "leftover");
  WriteFile(dir + "/seg-778.blasidx.tmp", "torn");

  Result<std::unique_ptr<LiveCollection>> reopened =
      LiveCollection::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(FileExists(dir + "/seg-777.blasidx"));
  EXPECT_FALSE(FileExists(dir + "/seg-778.blasidx.tmp"));
  EXPECT_EQ((*reopened)->stats().files_swept, 2u);
  EXPECT_EQ((*reopened)->size(), 1u);
}

TEST(LiveCollectionTest, CheckpointCompactionKeepsLogSmallAndCorrect) {
  TempDirs dirs;
  std::string dir = dirs.Make("ckpt");
  LiveOptions options;
  options.checkpoint_every = 4;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dir, options);
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        live.AddDocument("doc" + std::to_string(i),
                         ShardXml("d" + std::to_string(i), 1 + i % 3))
            .ok());
  }
  ASSERT_TRUE(live.RemoveDocument("doc3").ok());
  EXPECT_EQ(live.epoch(), 11u);
  EXPECT_GE(live.stats().checkpoints, 2u);
  std::string answer = Drained(live, "//item/name");

  // The compacted log replays to few records but the full state.
  Result<ManifestState> replay = ReplayManifest(dir + "/MANIFEST");
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_LE(replay->records, 4u);
  EXPECT_EQ(replay->epoch, 11u);
  EXPECT_EQ(replay->files.size(), 9u);

  open->reset();
  Result<std::unique_ptr<LiveCollection>> reopened =
      LiveCollection::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->epoch(), 11u);
  EXPECT_EQ(Drained(**reopened, "//item/name"), answer);
}

// Readers x churn equivalence: concurrent readers each drain a snapshot
// while a writer publishes 100+ add/replace/remove epochs; every drained
// result must be byte-identical to the answer of SOME published epoch —
// never a half-state. (TSan hunts the races.)
TEST(LiveCollectionTest, ReadersDrainConsistentEpochsDuringChurn) {
  TempDirs dirs;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("churn"));
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;
  const std::string xpath = "//item/name";

  std::mutex expected_mu;
  std::map<uint64_t, std::string> expected;  // epoch -> serialized answer
  {
    std::lock_guard<std::mutex> lock(expected_mu);
    expected[0] = Drained(live, xpath);
  }

  ThreadPool scatter_pool(3, 128);
  std::atomic<bool> done{false};
  struct Observation {
    uint64_t epoch;
    std::string answer;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const CollectionState> state = live.Snapshot();
        ScatterOptions scatter;
        if (r % 2 == 1) scatter.pool = &scatter_pool;  // parallel readers
        Result<CollectionCursor> cursor =
            state->collection.OpenCursor(xpath, ValueQuery(), scatter);
        ASSERT_TRUE(cursor.ok()) << cursor.status();
        Result<BlasCollection::CollectionResult> drained = cursor->Drain();
        ASSERT_TRUE(drained.ok()) << drained.status();
        observations[r].push_back(
            Observation{state->epoch, Serialize(*drained)});
      }
    });
  }

  // The writer: 120 publishes of mixed shape, recording each epoch's
  // ground-truth answer right after publishing it (only this thread
  // publishes, so Snapshot() is exactly the epoch it just made).
  constexpr int kOps = 120;
  int added = 0;
  for (int i = 0; i < kOps; ++i) {
    std::string name = "doc" + std::to_string(i % 8);
    Status status;
    if (i % 8 == 5 && live.Snapshot()->files.count(name) != 0) {
      status = live.RemoveDocument(name);
    } else if (live.Snapshot()->files.count(name) != 0) {
      status = live.ReplaceDocument(name, ShardXml(name, 1 + i % 3, i));
    } else {
      status = live.AddDocument(name, ShardXml(name, 1 + i % 3, i));
      ++added;
    }
    ASSERT_TRUE(status.ok()) << status;
    std::shared_ptr<const CollectionState> state = live.Snapshot();
    std::lock_guard<std::mutex> lock(expected_mu);
    expected[state->epoch] = Drained(live, xpath);
  }
  ASSERT_GE(added, 8);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(live.epoch(), static_cast<uint64_t>(kOps));
  size_t total_reads = 0;
  for (int r = 0; r < kReaders; ++r) {
    total_reads += observations[r].size();
    for (const Observation& obs : observations[r]) {
      auto it = expected.find(obs.epoch);
      ASSERT_NE(it, expected.end()) << "unknown epoch " << obs.epoch;
      EXPECT_EQ(obs.answer, it->second)
          << "reader " << r << " drained a state not matching epoch "
          << obs.epoch;
    }
  }
  EXPECT_GT(total_reads, 0u);
}

TEST(LiveCollectionTest, SharedFrameBudgetHoldsUnderChurn) {
  TempDirs dirs;
  LiveOptions options;
  options.storage.memory_budget = size_t{48} << 10;  // a handful of frames
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("budget"), options);
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;

  for (int round = 0; round < 3; ++round) {
    for (int d = 0; d < 4; ++d) {
      std::string name = "doc" + std::to_string(d);
      std::string xml = ShardXml(name, 40, round * 100);
      Status status = round == 0 ? live.AddDocument(name, xml)
                                 : live.ReplaceDocument(name, xml);
      ASSERT_TRUE(status.ok()) << status;
    }
    Result<BlasCollection::CollectionResult> r =
        live.Execute("//item/price", ValueQuery());
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->total_matches, 160u);
  }
  EXPECT_LE(live.budget()->peak_used(), live.budget()->limit());
  EXPECT_GT(live.budget()->peak_used(), 0u);
}

// ------------------------------------------------- service + ingest ---

TEST(LiveCollectionTest, ServiceAdminFuturesAndChurnCounters) {
  TempDirs dirs;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("svc"));
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;
  QueryService service(&live, ServiceOptions{.worker_threads = 4});

  std::vector<std::future<Status>> admin;
  for (int i = 0; i < 6; ++i) {
    admin.push_back(service.SubmitAddDocument(
        "doc" + std::to_string(i), ShardXml("d" + std::to_string(i), 2)));
  }
  for (std::future<Status>& f : admin) {
    Status status = f.get();
    EXPECT_TRUE(status.ok()) << status;
  }
  service.DrainIngest();
  EXPECT_EQ(live.epoch(), 6u);

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.projection = Projection::kValue;
  Result<BlasCollection::CollectionResult> r = service.Submit(request).get();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->total_matches, 12u);

  // A query that overlaps a publish counts as served-during-churn: the
  // stream callback itself publishes an epoch after the first match.
  std::atomic<bool> replaced{false};
  Result<StreamSummary> summary =
      service
          .SubmitCollection(request,
                            [&](const CollectionMatch&) {
                              if (!replaced.exchange(true)) {
                                EXPECT_TRUE(live.ReplaceDocument(
                                                    "doc0",
                                                    ShardXml("d0", 1, 9))
                                                .ok());
                              }
                              return true;
                            })
          .get();
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->delivered, 12u);  // drained the pinned epoch in full

  LiveCollection::Stats ingest = live.stats();
  EXPECT_EQ(ingest.docs_ingested, 7u);
  EXPECT_EQ(ingest.epochs_published, 7u);
  EXPECT_GT(ingest.manifest_bytes, 0u);
  EXPECT_EQ(service.stats().queries_served_during_churn, 1u);

  // Admin on a non-live service refuses.
  BlasCollection static_coll;
  QueryService static_service(&static_coll);
  EXPECT_EQ(static_service.SubmitAddDocument("x", "<x/>").get().code(),
            StatusCode::kInvalidArgument);
}

// The plan-cache staleness regression: a replaced document must never be
// served through the plan translated against its previous incarnation.
TEST(LiveCollectionTest, ReplacedDocumentNeverServesStalePlan) {
  TempDirs dirs;
  Result<std::unique_ptr<LiveCollection>> open =
      LiveCollection::Open(dirs.Make("stale"));
  ASSERT_TRUE(open.ok()) << open.status();
  LiveCollection& live = **open;
  // Two structurally different generations: the tag alphabet, codec
  // widths and path summary all change across the replace.
  ASSERT_TRUE(live.AddDocument(
                      "doc",
                      "<shard><item><name>old</name></item></shard>")
                  .ok());
  QueryService service(&live, ServiceOptions{.worker_threads = 2});

  QueryRequest request;
  request.xpath = "//item/name";
  request.options.projection = Projection::kValue;
  Result<BlasCollection::CollectionResult> r = service.Execute(request);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->total_matches, 1u);
  EXPECT_EQ(r->docs[0].matches[0].content, "old");
  uint64_t misses_before = service.stats().doc_plan_misses;

  // Warm repeat: pure per-document plan hit.
  r = service.Execute(request);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(service.stats().doc_plan_misses, misses_before);
  EXPECT_GT(service.stats().doc_plan_hits, 0u);

  ASSERT_TRUE(
      live.ReplaceDocument("doc",
                           "<shard><extra/><item><name>new</name>"
                           "<name>new2</name></item></shard>")
          .ok());

  // Same query text, same cached entry — but the document's epoch moved,
  // so the per-document plan retranslates against the new generation.
  r = service.Execute(request);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->total_matches, 2u);
  EXPECT_EQ(r->docs[0].matches[0].content, "new");
  EXPECT_EQ(r->docs[0].matches[1].content, "new2");
  EXPECT_EQ(service.stats().doc_plan_misses, misses_before + 1);
}

// Manifest primitives round-trip (unit coverage for the log format).
TEST(LiveCollectionTest, ManifestEncodeReplayRoundTrip) {
  TempDirs dirs;
  std::string path = dirs.Make("manifest") + "/MANIFEST";
  Result<ManifestWriter> created = ManifestWriter::Create(path);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(ManifestWriter::Create(path).status().code(),
            StatusCode::kInvalidArgument);  // refuses to clobber

  ManifestWriter writer = std::move(created).value();
  ManifestRecord r1;
  r1.epoch = 1;
  r1.ops.push_back(
      ManifestOp{ManifestOp::Kind::kAdd, "a", "seg-0.blasidx"});
  r1.ops.push_back(
      ManifestOp{ManifestOp::Kind::kAdd, "b", "seg-1.blasidx"});
  ASSERT_TRUE(writer.Append(r1).ok());
  ManifestRecord r2;
  r2.epoch = 2;
  r2.ops.push_back(
      ManifestOp{ManifestOp::Kind::kReplace, "a", "seg-2.blasidx"});
  r2.ops.push_back(ManifestOp{ManifestOp::Kind::kRemove, "b", ""});
  ASSERT_TRUE(writer.Append(r2).ok());

  Result<ManifestState> replay = ReplayManifest(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->epoch, 2u);
  EXPECT_EQ(replay->records, 2u);
  EXPECT_FALSE(replay->dropped_partial_tail);
  ASSERT_EQ(replay->files.size(), 1u);
  EXPECT_EQ(replay->files.at("a"), "seg-2.blasidx");
  EXPECT_EQ(replay->doc_epochs.at("a"), 2u);
  EXPECT_EQ(replay->bytes, writer.bytes());

  // Epoch regression and inconsistent ops are corruption.
  ManifestRecord stale;
  stale.epoch = 2;  // must ascend
  stale.ops.push_back(
      ManifestOp{ManifestOp::Kind::kAdd, "c", "seg-3.blasidx"});
  ASSERT_TRUE(writer.Append(stale).ok());
  EXPECT_EQ(ReplayManifest(path).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace blas
