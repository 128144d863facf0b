#include "ingest/live_collection.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace blas {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kSegSuffix[] = ".blasidx";

/// Process-wide ingest metrics; registered once, recorded per publish
/// (publishes are serialized on publish_mu_, so contention is moot).
struct IngestMetrics {
  obs::Histogram* publish_ns;
  obs::Histogram* manifest_append_ns;
  obs::Counter* epochs_published;

  IngestMetrics() {
    auto& reg = obs::DefaultRegistry();
    publish_ns = reg.GetHistogram(
        "blas_ingest_publish_ns",
        "End-to-end latency of one PublishBatch (validate + fsync + swap)");
    manifest_append_ns = reg.GetHistogram(
        "blas_ingest_manifest_append_ns",
        "Latency of one manifest record append (write + flush + fsync)");
    epochs_published = reg.GetCounter("blas_ingest_epochs_published_total",
                                      "Collection epochs made visible");
  }
};

IngestMetrics& ingest_metrics() {
  static IngestMetrics* m = new IngestMetrics();
  return *m;
}

/// Parses "seg-<n>.blasidx"; nullopt for anything else.
std::optional<uint64_t> SegNumber(const std::string& file) {
  uint64_t n = 0;
  int consumed = 0;
  if (std::sscanf(file.c_str(), "seg-%" SCNu64 ".blasidx%n", &n,
                  &consumed) == 1 &&
      static_cast<size_t>(consumed) == file.size()) {
    return n;
  }
  return std::nullopt;
}

}  // namespace

LiveCollection::LiveCollection(std::string dir, LiveOptions options)
    : dir_(std::move(dir)),
      options_(std::move(options)),
      files_reclaimed_(std::make_shared<std::atomic<uint64_t>>(0)) {}

LiveCollection::~LiveCollection() = default;

Result<std::unique_ptr<LiveCollection>> LiveCollection::Open(
    const std::string& dir, const LiveOptions& options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create collection directory: " + dir);
  }
  // unique_ptr because the publish machinery (mutexes, atomics) pins the
  // object in place.
  std::unique_ptr<LiveCollection> live(new LiveCollection(dir, options));
  // Nobody else can reach `live` yet, but recovery writes publish-guarded
  // fields (writer_, tombs_, state_), so hold the locks anyway: uncontended
  // by construction, and it keeps this function inside the proven protocol.
  MutexLock publish_lock(live->publish_mu_);
  live->budget_ =
      options.storage.shared_budget != nullptr
          ? options.storage.shared_budget
          : std::make_shared<FrameBudget>(options.storage.memory_budget);

  const std::string manifest_path = live->AbsPath(kManifestName);
  Result<ManifestState> replayed = ReplayManifest(manifest_path);
  ManifestState recovered;
  if (replayed.ok()) {
    recovered = std::move(replayed).value();
    BLAS_ASSIGN_OR_RETURN(
        ManifestWriter writer,
        ManifestWriter::OpenAppend(manifest_path, recovered));
    live->writer_.emplace(std::move(writer));
  } else if (replayed.status().code() == StatusCode::kNotFound &&
             options.create_if_missing) {
    BLAS_ASSIGN_OR_RETURN(
        ManifestWriter writer,
        // Recovery runs under publish_mu_ by design: nothing serves
        // until Open returns, so this fsync cannot stall a reader.
        // blas-analyze: allow(blocking-under-lock) -- recovery I/O
        ManifestWriter::Create(manifest_path));
    live->writer_.emplace(std::move(writer));
  } else {
    return replayed.status();
  }
  live->manifest_bytes_.store(live->writer_->bytes(),
                              std::memory_order_relaxed);

  // Open every recovered document O(1) against the shared budget.
  StorageOptions storage = options.storage;
  storage.shared_budget = live->budget_;
  auto state = std::make_shared<CollectionState>();
  state->epoch = recovered.epoch;
  state->doc_epochs = recovered.doc_epochs;
  state->files = recovered.files;
  uint64_t max_seg = 0;
  for (const auto& [name, file] : recovered.files) {
    BLAS_ASSIGN_OR_RETURN(BlasSystem sys,
                          BlasSystem::OpenPaged(live->AbsPath(file), storage));
    auto tomb = std::make_shared<FileTomb>();
    tomb->path = live->AbsPath(file);
    tomb->obsolete.store(false, std::memory_order_relaxed);
    tomb->published.store(true, std::memory_order_relaxed);
    tomb->reclaimed = live->files_reclaimed_;
    BLAS_RETURN_NOT_OK(state->collection.AddSystem(
        name, live->WrapSystem(std::move(sys), tomb)));
    live->tombs_[file] = std::move(tomb);
    if (std::optional<uint64_t> n = SegNumber(file)) {
      max_seg = std::max(max_seg, *n + 1);
    }
  }
  live->file_seq_.store(max_seg, std::memory_order_relaxed);
  live->SweepOrphans(recovered.files);
  {
    MutexLock state_lock(live->state_mu_);
    live->state_ = std::move(state);
  }
  return live;
}

std::shared_ptr<const BlasSystem> LiveCollection::WrapSystem(
    BlasSystem system, const std::shared_ptr<FileTomb>& tomb) const {
  return std::shared_ptr<const BlasSystem>(
      new BlasSystem(std::move(system)), [tomb](const BlasSystem* sys) {
        // Last pin (state or cursor) dropped: an obsolete generation's
        // snapshot file goes with it. Every PageRef into the segment was
        // minted by this system's pool and died with the pin that held
        // it, so deleting the system (which closes its descriptor) and
        // then unlinking leaves nothing reading the file. A crash between
        // the two leaves a plain orphan file, which SweepOrphans collects
        // on the next open.
        const bool obsolete = tomb->obsolete.load(std::memory_order_acquire);
        delete sys;
        if (obsolete) {
          std::remove(tomb->path.c_str());
          if (tomb->published.load(std::memory_order_relaxed)) {
            tomb->reclaimed->fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
}

void LiveCollection::SweepOrphans(
    const std::map<std::string, std::string>& live_files) {
  std::set<std::string> keep;
  for (const auto& [name, file] : live_files) keep.insert(file);
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  while (dirent* entry = ::readdir(d)) {
    std::string file = entry->d_name;
    const bool snapshot = EndsWith(file, kSegSuffix);
    const bool torn_tmp = EndsWith(file, ".tmp") && file != "MANIFEST.tmp";
    if ((!snapshot && !torn_tmp) || keep.count(file) != 0) continue;
    if (std::remove(AbsPath(file).c_str()) == 0) {
      files_swept_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ::closedir(d);
}

std::shared_ptr<const CollectionState> LiveCollection::Snapshot() const {
  MutexLock lock(state_mu_);
  return state_;
}

// ---------------------------------------------------------- ingestion ---

Result<LiveCollection::PreparedDoc> LiveCollection::Prepare(
    std::string_view xml) const {
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys,
                        BlasSystem::FromXml(xml, options_.blas));
  const uint64_t seq = file_seq_.fetch_add(1, std::memory_order_relaxed);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%" PRIu64 "%s", seq, kSegSuffix);
  PreparedDoc prepared;
  prepared.file = buf;
  BLAS_RETURN_NOT_OK(sys.SavePagedIndex(AbsPath(prepared.file)));

  StorageOptions storage = options_.storage;
  storage.shared_budget = budget_;
  Result<BlasSystem> paged =
      BlasSystem::OpenPaged(AbsPath(prepared.file), storage);
  if (!paged.ok()) {
    std::remove(AbsPath(prepared.file).c_str());
    return std::move(paged).status();
  }
  // The tomb starts obsolete: a prepared doc that never publishes takes
  // its file with it when the caller drops it.
  auto tomb = std::make_shared<FileTomb>();
  tomb->path = AbsPath(prepared.file);
  tomb->reclaimed = files_reclaimed_;
  prepared.system = WrapSystem(std::move(paged).value(), tomb);
  prepared.tomb = std::move(tomb);
  return prepared;
}

Status LiveCollection::PublishBatch(std::vector<BatchOp> ops) {
  if (ops.empty()) return Status::InvalidArgument("empty publish batch");
  Stopwatch publish_timer;
  MutexLock publish_lock(publish_mu_);
  std::shared_ptr<const CollectionState> current = Snapshot();

  // Validate the whole batch against the current state before anything
  // durable happens — a bad op must not half-publish.
  std::set<std::string> touched;
  for (const BatchOp& op : ops) {
    if (op.name.empty()) {
      return Status::InvalidArgument("empty document name");
    }
    if (!touched.insert(op.name).second) {
      return Status::InvalidArgument("duplicate document in batch: " +
                                     op.name);
    }
    const bool exists = current->files.count(op.name) != 0;
    switch (op.kind) {
      case ManifestOp::Kind::kAdd:
        if (exists) {
          return Status::InvalidArgument("document already in collection: " +
                                         op.name);
        }
        break;
      case ManifestOp::Kind::kReplace:
        if (!exists) return Status::NotFound("no such document: " + op.name);
        break;
      case ManifestOp::Kind::kRemove:
        if (!exists) return Status::NotFound("no such document: " + op.name);
        break;
    }
    if (op.kind != ManifestOp::Kind::kRemove &&
        (!op.doc.has_value() || op.doc->system == nullptr)) {
      return Status::InvalidArgument("publish without a prepared document: " +
                                     op.name);
    }
  }

  // Durability first: the record is fsync'ed before the epoch becomes
  // visible, so a crash never publishes state the log cannot replay.
  ManifestRecord record;
  record.epoch = current->epoch + 1;
  record.ops.reserve(ops.size());
  for (const BatchOp& op : ops) {
    record.ops.push_back(ManifestOp{
        op.kind, op.name,
        op.kind == ManifestOp::Kind::kRemove ? std::string() : op.doc->file});
  }
  {
    Stopwatch append_timer;
    // fsync-before-publish: the manifest append MUST be durable before
    // the state swap below, and both must sit under publish_mu_ — that
    // ordering is the crash-consistency protocol, not an accident.
    // blas-analyze: allow(blocking-under-lock) -- fsync-before-publish
    Status appended = writer_->Append(record);
    manifest_bytes_.store(writer_->bytes(), std::memory_order_relaxed);
    ingest_metrics().manifest_append_ns->Record(append_timer.ElapsedNanos());
    BLAS_RETURN_NOT_OK(appended);
  }
  manifest_records_.fetch_add(1, std::memory_order_relaxed);

  // Copy-on-write publish: unchanged documents are shared with the
  // previous generation; only the touched entries swap.
  auto next = std::make_shared<CollectionState>();
  next->epoch = record.epoch;
  next->collection = current->collection;
  next->doc_epochs = current->doc_epochs;
  next->files = current->files;
  std::vector<std::string> obsolete_files;
  for (BatchOp& op : ops) {
    if (op.kind != ManifestOp::Kind::kAdd) {
      obsolete_files.push_back(next->files.at(op.name));
    }
    if (op.kind == ManifestOp::Kind::kRemove) {
      (void)next->collection.Remove(op.name);
      next->files.erase(op.name);
      next->doc_epochs.erase(op.name);
      docs_removed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    PreparedDoc& doc = *op.doc;
    doc.tomb->published.store(true, std::memory_order_relaxed);
    doc.tomb->obsolete.store(false, std::memory_order_release);
    tombs_[doc.file] = doc.tomb;
    (void)next->collection.PutSystem(op.name, doc.system);
    next->files[op.name] = doc.file;
    next->doc_epochs[op.name] = record.epoch;
    docs_ingested_.fetch_add(1, std::memory_order_relaxed);
  }

  {
    MutexLock state_lock(state_mu_);
    state_ = next;
  }
  epochs_published_.fetch_add(1, std::memory_order_relaxed);

  // The replaced/removed generations die when their last pin (an old
  // snapshot or an in-flight cursor) drops; their files follow.
  for (const std::string& file : obsolete_files) {
    auto it = tombs_.find(file);
    if (it != tombs_.end()) {
      it->second->obsolete.store(true, std::memory_order_release);
      tombs_.erase(it);
    }
  }

  if (options_.checkpoint_every > 0 &&
      writer_->records_since_compact() >= options_.checkpoint_every) {
    // Best effort: the uncompacted log is longer, never wrong. Compact
    // rewrites + fsyncs the manifest under publish_mu_ deliberately: a
    // concurrent publish interleaved with the rewrite could drop its
    // record.
    // blas-analyze: allow(blocking-under-lock) -- checkpoint durability
    if (writer_->Compact(next->epoch, next->files).ok()) {
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
    }
    manifest_bytes_.store(writer_->bytes(), std::memory_order_relaxed);
  }

  if (listener_) {
    for (const ManifestOp& op : record.ops) {
      listener_(op.name, op.kind, record.epoch);
    }
  }
  IngestMetrics& metrics = ingest_metrics();
  metrics.publish_ns->Record(publish_timer.ElapsedNanos());
  metrics.epochs_published->Increment();
  return Status::OK();
}

Status LiveCollection::AddDocument(const std::string& name,
                                   std::string_view xml) {
  BLAS_ASSIGN_OR_RETURN(PreparedDoc doc, Prepare(xml));
  std::vector<BatchOp> ops(1);
  ops[0].kind = ManifestOp::Kind::kAdd;
  ops[0].name = name;
  ops[0].doc = std::move(doc);
  return PublishBatch(std::move(ops));
}

Status LiveCollection::ReplaceDocument(const std::string& name,
                                       std::string_view xml) {
  BLAS_ASSIGN_OR_RETURN(PreparedDoc doc, Prepare(xml));
  std::vector<BatchOp> ops(1);
  ops[0].kind = ManifestOp::Kind::kReplace;
  ops[0].name = name;
  ops[0].doc = std::move(doc);
  return PublishBatch(std::move(ops));
}

Status LiveCollection::RemoveDocument(const std::string& name) {
  std::vector<BatchOp> ops(1);
  ops[0].kind = ManifestOp::Kind::kRemove;
  ops[0].name = name;
  return PublishBatch(std::move(ops));
}

Status LiveCollection::Checkpoint() {
  MutexLock publish_lock(publish_mu_);
  std::shared_ptr<const CollectionState> current = Snapshot();
  // Same protocol as PublishBatch: the compacted manifest must be
  // durable before the next publish can append to it.
  // blas-analyze: allow(blocking-under-lock) -- checkpoint durability
  Status compacted = writer_->Compact(current->epoch, current->files);
  manifest_bytes_.store(writer_->bytes(), std::memory_order_relaxed);
  BLAS_RETURN_NOT_OK(compacted);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void LiveCollection::SetChangeListener(ChangeListener listener) {
  MutexLock publish_lock(publish_mu_);
  listener_ = std::move(listener);
}

// ------------------------------------------------------------ queries ---

Result<CollectionCursor> LiveCollection::OpenCursor(
    std::string_view xpath, const QueryOptions& options,
    const ScatterOptions& scatter) const {
  // The cursor pins every document of this generation at open; the state
  // object itself may be released as soon as the cursor exists.
  std::shared_ptr<const CollectionState> state = Snapshot();
  return state->collection.OpenCursor(xpath, options, scatter);
}

Result<BlasCollection::CollectionResult> LiveCollection::Execute(
    std::string_view xpath, const QueryOptions& options) const {
  std::shared_ptr<const CollectionState> state = Snapshot();
  return state->collection.Execute(xpath, options);
}

// -------------------------------------------------------------- stats ---

LiveCollection::Stats LiveCollection::stats() const {
  Stats s;
  s.docs_ingested = docs_ingested_.load(std::memory_order_relaxed);
  s.docs_removed = docs_removed_.load(std::memory_order_relaxed);
  s.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  s.manifest_records = manifest_records_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.files_reclaimed = files_reclaimed_->load(std::memory_order_relaxed);
  s.files_swept = files_swept_.load(std::memory_order_relaxed);
  s.manifest_bytes = manifest_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace blas
