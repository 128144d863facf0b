#ifndef BLAS_INGEST_LIVE_COLLECTION_H_
#define BLAS_INGEST_LIVE_COLLECTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blas/collection.h"
#include "common/thread_annotations.h"
#include "ingest/manifest.h"

namespace blas {

/// \brief One published generation of a live collection: an immutable,
/// epoch-stamped snapshot that readers pin via shared_ptr.
///
/// The embedded BlasCollection shares its member documents with the
/// previous and next generations (copy-on-write: a publish copies the
/// map and swaps only the changed entries), and every cursor opened on
/// it pins the documents it enumerates — so a reader drains a consistent
/// epoch no matter how many publishes happen underneath it.
struct CollectionState {
  uint64_t epoch = 0;
  BlasCollection collection;
  /// Epoch at which each document was last added/replaced — the plan
  /// cache's staleness tag.
  std::map<std::string, uint64_t> doc_epochs;
  /// Directory-relative BLASIDX2 snapshot file per document.
  std::map<std::string, std::string> files;
};

/// Construction options for LiveCollection.
struct LiveOptions {
  /// Paged-open sizing for member documents. When `shared_budget` is
  /// null, Open creates one FrameBudget of `memory_budget` bytes shared
  /// by every member — past, present and future — so the whole live
  /// corpus honours a single memory allowance under churn.
  StorageOptions storage;
  /// Initialize an empty collection when the directory has no MANIFEST.
  bool create_if_missing = true;
  /// Compact the manifest (checkpoint record) after this many delta
  /// records; 0 never compacts.
  size_t checkpoint_every = 64;
  /// BlasOptions for the in-memory indexing pass of Prepare.
  BlasOptions blas;
};

/// \brief A durable, continuously-ingesting document collection that
/// serves queries while documents are added, replaced and removed.
///
/// Layout on disk: `dir/MANIFEST` (the epoch log, see manifest.h) plus
/// one `seg-<n>.blasidx` paged snapshot per live document generation.
/// `Open` replays the manifest, opens every referenced snapshot O(1)
/// against one shared FrameBudget, sweeps orphaned files from earlier
/// crashes, and publishes the recovered epoch.
///
/// Concurrency model:
///   * readers call Snapshot() (or OpenCursor/Execute, which do) — a
///     lock-briefly shared_ptr copy; they never block writers and are
///     never blocked by them;
///   * Prepare runs anywhere, concurrently — parse, label and
///     SavePagedIndex happen entirely off to the side;
///   * publishes are serialized internally: manifest append (fsync'ed)
///     first, then the new state swaps in atomically. A crash at any
///     point recovers to the last fully-appended record's epoch.
///
/// Old generations are reclaimed by refcount: when the last snapshot or
/// cursor pinning a replaced/removed document drops, the document's
/// snapshot file is unlinked from disk.
class LiveCollection {
 private:
  struct FileTomb;

 public:
  /// A document indexed and persisted into the collection directory but
  /// not yet published. Dropping it unpublished deletes its file.
  struct PreparedDoc {
    std::string file;  // directory-relative
    std::shared_ptr<const BlasSystem> system;

   private:
    friend class LiveCollection;
    std::shared_ptr<FileTomb> tomb;
  };

  /// One mutation of a batched publish.
  struct BatchOp {
    ManifestOp::Kind kind = ManifestOp::Kind::kAdd;
    std::string name;
    /// Required for kAdd/kReplace; ignored for kRemove.
    std::optional<PreparedDoc> doc;
  };

  /// Called after each publish, once per changed document, with the
  /// publishing epoch. Runs under the publish lock — keep it cheap (the
  /// query service uses it to invalidate per-document cached plans).
  using ChangeListener =
      std::function<void(const std::string& name, ManifestOp::Kind kind,
                         uint64_t epoch)>;

  /// Opens (or, with `create_if_missing`, initializes) the collection in
  /// `dir`: manifest replay, O(1) paged opens, orphan sweep.
  static Result<std::unique_ptr<LiveCollection>> Open(
      const std::string& dir, const LiveOptions& options = {});

  ~LiveCollection();

  LiveCollection(const LiveCollection&) = delete;
  LiveCollection& operator=(const LiveCollection&) = delete;

  /// The current published generation. Holding the returned pointer pins
  /// every document in it (and their snapshot files) for as long as the
  /// caller keeps it.
  std::shared_ptr<const CollectionState> Snapshot() const;

  uint64_t epoch() const { return Snapshot()->epoch; }
  size_t size() const { return Snapshot()->collection.size(); }

  // ------------------------------------------------------- ingestion ---

  /// Indexes `xml` (parse -> label -> SavePagedIndex) and opens the
  /// resulting snapshot demand-paged against the shared budget. Pure
  /// side work: safe from any thread, no publish happens.
  Result<PreparedDoc> Prepare(std::string_view xml) const;

  /// Atomically publishes a batch as ONE epoch and ONE manifest record:
  /// validate -> append (fsync) -> swap state -> mark obsolete files.
  /// On failure nothing is published and prepared files are deleted.
  Status PublishBatch(std::vector<BatchOp> ops);

  /// Single-document conveniences: Prepare + one-op PublishBatch.
  Status AddDocument(const std::string& name, std::string_view xml);
  Status ReplaceDocument(const std::string& name, std::string_view xml);
  Status RemoveDocument(const std::string& name);

  /// Forces a manifest compaction at the current epoch.
  Status Checkpoint();

  void SetChangeListener(ChangeListener listener);

  // --------------------------------------------------------- queries ---

  /// Pins the current snapshot and opens a scatter-gather cursor over it
  /// (see BlasCollection::OpenCursor). The cursor stays valid across any
  /// number of subsequent publishes.
  Result<CollectionCursor> OpenCursor(
      std::string_view xpath, const QueryOptions& options = {},
      const ScatterOptions& scatter = {}) const;

  /// Pins the current snapshot and runs `xpath` over it.
  Result<BlasCollection::CollectionResult> Execute(
      std::string_view xpath, const QueryOptions& options = {}) const;

  // ----------------------------------------------------------- stats ---

  struct Stats {
    /// Documents published by add/replace since open.
    uint64_t docs_ingested = 0;
    uint64_t docs_removed = 0;
    /// Publishes (epoch bumps) since open.
    uint64_t epochs_published = 0;
    /// Current durable manifest size in bytes.
    uint64_t manifest_bytes = 0;
    /// Manifest records appended since open.
    uint64_t manifest_records = 0;
    /// Checkpoint compactions since open.
    uint64_t checkpoints = 0;
    /// Obsolete snapshot files unlinked after their last pin dropped.
    uint64_t files_reclaimed = 0;
    /// Orphaned files (unreferenced by the manifest) swept at Open.
    uint64_t files_swept = 0;
  };
  /// Lock-free: never waits for a publish in progress.
  Stats stats() const;

  const std::string& dir() const { return dir_; }
  /// The budget every member document draws on.
  const std::shared_ptr<FrameBudget>& budget() const { return budget_; }

 private:
  /// Deletes its snapshot file when the last reference to the document
  /// generation drops — unless the generation is still live (declared
  /// above; defined here).
  struct FileTomb {
    std::string path;  // absolute
    /// True while no published state references the file (unpublished
    /// prepared docs start obsolete; publishing clears it; replace/
    /// remove sets it again).
    std::atomic<bool> obsolete{true};
    std::atomic<bool> published{false};
    std::shared_ptr<std::atomic<uint64_t>> reclaimed;
  };

  LiveCollection(std::string dir, LiveOptions options);

  std::string AbsPath(const std::string& rel) const { return dir_ + "/" + rel; }
  /// Wraps an opened system so its file dies with its last reference.
  std::shared_ptr<const BlasSystem> WrapSystem(
      BlasSystem system, const std::shared_ptr<FileTomb>& tomb) const;
  /// Deletes files in `dir_` that the recovered manifest does not
  /// reference (crash leftovers).
  void SweepOrphans(const std::map<std::string, std::string>& live_files);

  const std::string dir_;
  // The next three are set once inside Open before the collection is
  // returned to the caller, and never written again.
  // blas-analyze: allow(guarded-coverage) -- set once in Open
  LiveOptions options_;
  // blas-analyze: allow(guarded-coverage) -- set once in Open
  std::shared_ptr<FrameBudget> budget_;
  // blas-analyze: allow(guarded-coverage) -- set once in Open
  std::shared_ptr<std::atomic<uint64_t>> files_reclaimed_;

  /// Serializes publishes (manifest append + state swap + tombstones).
  /// The annotations encode the fsync-before-publish protocol: the
  /// manifest writer (durability) is guarded by publish_mu_ and the
  /// published-state pointer (visibility) by state_mu_, with publish_mu_
  /// ordered strictly before state_mu_ — so the only way to swap state_
  /// during a publish is from inside the publish critical section, i.e.
  /// *after* the fsync'ed manifest append that made the epoch durable.
  /// A crash at any point therefore never exposes state the log cannot
  /// replay.
  mutable Mutex publish_mu_ BLAS_ACQUIRED_BEFORE(state_mu_);
  std::optional<ManifestWriter> writer_ BLAS_GUARDED_BY(publish_mu_);
  /// Tombs of live (published, non-obsolete) files, keyed by relative
  /// file name.
  std::map<std::string, std::shared_ptr<FileTomb>> tombs_
      BLAS_GUARDED_BY(publish_mu_);
  ChangeListener listener_ BLAS_GUARDED_BY(publish_mu_);

  /// Guards the published-state pointer only (reader pin path).
  mutable Mutex state_mu_;
  std::shared_ptr<const CollectionState> state_ BLAS_GUARDED_BY(state_mu_);

  /// Next seg-<n>.blasidx suffix.
  mutable std::atomic<uint64_t> file_seq_{0};

  std::atomic<uint64_t> docs_ingested_{0};
  std::atomic<uint64_t> docs_removed_{0};
  std::atomic<uint64_t> epochs_published_{0};
  /// The writer's size, kept after every append and compaction so stats()
  /// reads it without waiting out a publish's fsync.
  std::atomic<uint64_t> manifest_bytes_{0};
  std::atomic<uint64_t> manifest_records_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> files_swept_{0};
};

}  // namespace blas

#endif  // BLAS_INGEST_LIVE_COLLECTION_H_
