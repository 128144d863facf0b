#include "blas/collection.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/thread_annotations.h"

#include "service/thread_pool.h"
#include "xpath/parser.h"

namespace blas {

namespace {

Status DuplicateName(const std::string& name) {
  return Status::InvalidArgument("document already in collection: " + name);
}

}  // namespace

Status BlasCollection::AddXml(const std::string& name, std::string_view xml,
                              const BlasOptions& options) {
  if (docs_.count(name) != 0) return DuplicateName(name);
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys, BlasSystem::FromXml(xml, options));
  docs_.emplace(name, std::make_shared<BlasSystem>(std::move(sys)));
  return Status::OK();
}

Status BlasCollection::AddEvents(
    const std::string& name, const std::function<void(SaxHandler*)>& emit,
    const BlasOptions& options) {
  if (docs_.count(name) != 0) return DuplicateName(name);
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys,
                        BlasSystem::FromEvents(emit, options));
  docs_.emplace(name, std::make_shared<BlasSystem>(std::move(sys)));
  return Status::OK();
}

Status BlasCollection::AddIndexFile(const std::string& name,
                                    const std::string& path,
                                    const BlasOptions& options) {
  if (docs_.count(name) != 0) return DuplicateName(name);
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys,
                        BlasSystem::FromIndexFile(path, options));
  docs_.emplace(name, std::make_shared<BlasSystem>(std::move(sys)));
  return Status::OK();
}

Status BlasCollection::AddPagedIndexFile(const std::string& name,
                                         const std::string& path,
                                         const StorageOptions& storage) {
  if (docs_.count(name) != 0) return DuplicateName(name);
  BLAS_ASSIGN_OR_RETURN(BlasSystem sys, BlasSystem::OpenPaged(path, storage));
  docs_.emplace(name, std::make_shared<BlasSystem>(std::move(sys)));
  return Status::OK();
}

Status BlasCollection::AddSystem(const std::string& name,
                                 std::shared_ptr<const BlasSystem> system) {
  if (system == nullptr) {
    return Status::InvalidArgument("null system for document: " + name);
  }
  if (docs_.count(name) != 0) return DuplicateName(name);
  docs_.emplace(name, std::move(system));
  return Status::OK();
}

std::shared_ptr<const BlasSystem> BlasCollection::PutSystem(
    const std::string& name, std::shared_ptr<const BlasSystem> system) {
  std::shared_ptr<const BlasSystem>& slot = docs_[name];
  std::shared_ptr<const BlasSystem> previous = std::move(slot);
  slot = std::move(system);
  return previous;
}

Status BlasCollection::Remove(const std::string& name) {
  if (docs_.erase(name) == 0) {
    return Status::NotFound("no such document: " + name);
  }
  return Status::OK();
}

std::vector<std::string> BlasCollection::names() const {
  std::vector<std::string> out;
  out.reserve(docs_.size());
  for (const auto& [name, _] : docs_) out.push_back(name);
  return out;
}

const BlasSystem* BlasCollection::Find(const std::string& name) const {
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const BlasSystem> BlasCollection::FindShared(
    const std::string& name) const {
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

// ------------------------------------------------- scatter-gather state ---

/// Everything the merge side and the per-document producers share. Kept
/// alive by shared_ptr: producer tasks still queued on the pool when the
/// cursor dies hold their own reference and exit via the cancel flag.
struct CollectionCursor::Shared {
  enum class DocState {
    kPending,    // not started; a pool task may be queued for it
    kRunning,    // a producer (worker or inline claim) is executing it
    kDone,       // finished: status/stats are final, queue may hold matches
    kCancelled,  // cancelled before execution started
  };

  struct Doc {
    std::string name;
    /// Pinned at open time: the cursor keeps draining this exact document
    /// generation even if the collection is copied-and-republished (live
    /// ingestion) or the document removed meanwhile.
    std::shared_ptr<const BlasSystem> sys;
    DocState state = DocState::kPending;
    /// Bounded producer -> merge queue (capacity `queue_capacity`).
    std::deque<Match> queue;
    /// A per-document cursor was opened (the early-termination counters).
    bool executed = false;
    Status status = Status::OK();
    ExecStats stats;
  };

  // The three setup fields below are populated once at OpenCursor time,
  // before any producer task exists, and read-only afterwards.
  // blas-analyze: allow(guarded-coverage) -- set before producers exist
  QueryOptions base;
  // blas-analyze: allow(guarded-coverage) -- set before producers exist
  BlasCollection::DocCursorOpener opener;
  // blas-analyze: allow(guarded-coverage) -- set before producers exist
  size_t queue_capacity = 256;

  Mutex mu;
  CondVar items;  // merge waits: matches or completion
  CondVar space;  // producers wait: queue space or cancel
  bool cancelled BLAS_GUARDED_BY(mu) = false;
  /// Populated once at OpenCursor time, before any producer exists; name
  /// order == merge order. The analysis cannot express "each Doc's mutable
  /// fields are guarded by the enclosing Shared's mu", so the vector itself
  /// is the guarded unit: take a Doc* under the lock and touch only the
  /// setup-immutable identity fields (name, sys) after release.
  std::vector<Doc> docs BLAS_GUARDED_BY(mu);
  /// == docs.size(); immutable after OpenCursor, readable without mu.
  // blas-analyze: allow(guarded-coverage) -- set before producers exist
  size_t doc_count = 0;

  /// Scatter worker body: claims the document, opens its cursor capped at
  /// offset + limit, and streams matches into the bounded queue.
  void RunDoc(size_t index) BLAS_EXCLUDES(mu);
};

void CollectionCursor::Shared::RunDoc(size_t index) {
  Doc* doc;
  {
    MutexLock lock(mu);
    doc = &docs[index];
    if (cancelled || doc->state != DocState::kPending) {
      if (doc->state == DocState::kPending) {
        doc->state = DocState::kCancelled;
        items.NotifyAll();
      }
      return;
    }
    doc->state = DocState::kRunning;
  }

  QueryOptions doc_options = base;
  doc_options.offset = 0;
  doc_options.limit = 0;
  if (base.limit > 0) {
    // Whatever earlier documents produce, no single document contributes
    // more than offset + limit answers to the merged window — so each
    // document runs with that cap and the per-document limit-k machinery
    // terminates its scans early.
    doc_options.limit = base.offset > UINT64_MAX - base.limit
                            ? UINT64_MAX
                            : base.offset + base.limit;
  }

  Result<ResultCursor> cursor = opener(doc->name, *doc->sys, doc_options);
  {
    MutexLock lock(mu);
    doc->executed = true;
    if (!cursor.ok()) {
      doc->status = std::move(cursor).status();
      doc->state = DocState::kDone;
      items.NotifyAll();
      return;
    }
  }

  // Matches move through the queue a batch at a time: one lock per
  // kPushBatch answers instead of per answer. The queue may overshoot
  // its capacity by one batch (the wait is on `size < capacity` before
  // appending a whole batch) — capacity bounds memory softly, exactness
  // is not needed.
  constexpr size_t kPushBatch = 64;
  std::vector<Match> batch;
  batch.reserve(kPushBatch);
  bool stop = false;
  auto flush = [&]() -> bool {  // false = cancelled
    if (batch.empty()) return true;
    MutexLock lock(mu);
    while (!cancelled && doc->queue.size() >= queue_capacity) {
      space.Wait(lock);
    }
    if (cancelled) return false;
    for (Match& m : batch) doc->queue.push_back(std::move(m));
    batch.clear();
    items.NotifyOne();
    return true;
  };
  while (!stop) {
    std::optional<Match> match = cursor->Next();
    if (!match.has_value()) break;
    batch.push_back(std::move(*match));
    if (batch.size() >= kPushBatch && !flush()) stop = true;
  }
  if (!stop) flush();

  MutexLock lock(mu);
  doc->stats = cursor->stats();
  doc->state = DocState::kDone;
  items.NotifyAll();
}

// ------------------------------------------------------ collection API ---

Result<CollectionCursor> BlasCollection::OpenCursor(
    std::string_view xpath, const QueryOptions& options,
    const ScatterOptions& scatter) const {
  BLAS_ASSIGN_OR_RETURN(Query parsed, ParseXPath(xpath));
  auto query = std::make_shared<const Query>(std::move(parsed));
  return OpenCursor(
      [query](const std::string&, const BlasSystem& sys,
              const QueryOptions& doc_options) {
        return sys.Open(*query, doc_options);
      },
      options, scatter);
}

CollectionCursor BlasCollection::OpenCursor(
    DocCursorOpener opener, const QueryOptions& options,
    const ScatterOptions& scatter) const {
  auto shared = std::make_shared<CollectionCursor::Shared>();
  shared->base = options;
  shared->opener = std::move(opener);
  shared->queue_capacity =
      scatter.queue_capacity == 0 ? 1 : scatter.queue_capacity;
  {
    // No producer exists yet, but docs is publish-guarded; the lock is
    // uncontended by construction.
    MutexLock lock(shared->mu);
    shared->docs.reserve(docs_.size());
    for (const auto& [name, sys] : docs_) {
      CollectionCursor::Shared::Doc doc;
      doc.name = name;
      doc.sys = sys;
      shared->docs.push_back(std::move(doc));
    }
  }
  shared->doc_count = docs_.size();

  CollectionCursor cursor(shared);
  if (scatter.pool != nullptr) {
    // The first document is the merge's own; scattering it would only add
    // a hand-off. Never block the opener on a full pool: a rejected
    // document stays kPending and the merge claims it when reached.
    for (size_t i = 1; i < shared->doc_count; ++i) {
      (void)scatter.pool->TrySubmit([shared, i] { shared->RunDoc(i); });
    }
  }
  return cursor;
}

void BlasCollection::CollectionResult::Add(CollectionMatch match,
                                           bool project) {
  if (docs.empty() || docs.back().name != match.document) {
    docs.push_back(DocMatches{std::string(match.document), {}, {}});
  }
  DocMatches& doc = docs.back();
  doc.starts.push_back(match.match.start);
  if (project) doc.matches.push_back(std::move(match.match));
  ++total_matches;
}

Result<BlasCollection::CollectionResult> BlasCollection::Execute(
    std::string_view xpath, const QueryOptions& options) const {
  BLAS_ASSIGN_OR_RETURN(CollectionCursor cursor, OpenCursor(xpath, options));
  return cursor.Drain();
}

// --------------------------------------------------- collection cursor ---

CollectionCursor::CollectionCursor(std::shared_ptr<Shared> shared)
    : shared_(std::move(shared)) {}

CollectionCursor& CollectionCursor::operator=(CollectionCursor&& other) {
  if (this != &other) {
    if (shared_ != nullptr) Cancel();
    shared_ = std::move(other.shared_);
    status_ = std::move(other.status_);
    exhausted_ = other.exhausted_;
    doc_index_ = other.doc_index_;
    doc_name_ = other.doc_name_;
    inline_ = std::move(other.inline_);
    local_ = std::move(other.local_);
    delivered_ = other.delivered_;
    skipped_ = other.skipped_;
    other.shared_.reset();
  }
  return *this;
}

CollectionCursor::~CollectionCursor() {
  if (shared_ != nullptr) Cancel();
}

void CollectionCursor::Cancel() {
  if (shared_ == nullptr) return;
  SettleInline();
  Shared& s = *shared_;
  MutexLock lock(s.mu);
  s.cancelled = true;
  for (Shared::Doc& doc : s.docs) {
    if (doc.state == Shared::DocState::kPending) {
      doc.state = Shared::DocState::kCancelled;
    }
  }
  s.space.NotifyAll();
  s.items.NotifyAll();
}

std::optional<CollectionMatch> CollectionCursor::Next() {
  if (exhausted_ || shared_ == nullptr) return std::nullopt;
  Shared& s = *shared_;
  while (true) {
    if (s.base.limit > 0 && delivered_ >= s.base.limit) {
      // Budget spent: cancel still-queued documents and stop producers.
      Cancel();
      exhausted_ = true;
      return std::nullopt;
    }
    if (inline_.has_value()) {
      // A document the merge runs itself: its cursor already applies the
      // remaining window, so every match it yields is delivered.
      if (std::optional<Match> match = inline_->Next()) {
        ++delivered_;
        return CollectionMatch{*doc_name_, std::move(*match)};
      }
      SettleInline();
      ++doc_index_;
      continue;
    }
    if (!local_.empty()) {
      Match match = std::move(local_.front());
      local_.pop_front();
      if (skipped_ < s.base.offset) {
        ++skipped_;  // merge-side collection-wide offset
        continue;
      }
      ++delivered_;
      return CollectionMatch{*doc_name_, std::move(match)};
    }
    if (doc_index_ >= s.doc_count) {
      exhausted_ = true;
      return std::nullopt;
    }
    const BlasSystem* claimed = nullptr;
    bool failed = false;
    {
      MutexLock lock(s.mu);
      Shared::Doc& doc = s.docs[doc_index_];
      doc_name_ = &doc.name;  // identity field: stable
      if (!doc.queue.empty()) {
        // Grab everything queued in one lock acquisition; serve from
        // local_ without further locking. One cv serves every producer,
        // so wake them all: notify_one could pick a producer whose own
        // queue is still full and strand the one this grab freed.
        local_.swap(doc.queue);
        s.space.NotifyAll();
        continue;
      }
      switch (doc.state) {
        case Shared::DocState::kDone:
          if (!doc.status.ok()) {
            // The error surfaces when the merge reaches the failing
            // document, so documents abort in name order.
            // Cancel re-acquires mu, so leave the critical section first
            // and cancel outside (no relockable-lock tricks: the scoped
            // lock covers exactly this block).
            status_ = doc.status;
            exhausted_ = true;
            failed = true;
            break;
          }
          ++doc_index_;
          continue;
        case Shared::DocState::kCancelled:
          ++doc_index_;  // only reachable after Cancel; nothing queued
          continue;
        case Shared::DocState::kPending:
          // The first document, no pool, or the pool has not started this
          // one (rejected submission or still queued behind other work):
          // claim it and run it here, so a saturated pool degrades to one
          // document at a time and never deadlocks.
          doc.state = Shared::DocState::kRunning;
          claimed = doc.sys.get();
          break;
        case Shared::DocState::kRunning:
          s.items.Wait(lock);
          continue;
      }
    }
    if (failed) {
      Cancel();
      return std::nullopt;
    }
    if (claimed != nullptr) OpenInline(*claimed);
  }
}

void CollectionCursor::OpenInline(const BlasSystem& sys) {
  Shared& s = *shared_;
  // Matches this document skips or delivers come straight off its own
  // cursor, so open it with exactly the window the merge still owes:
  // skipped matches are then never projected or counted as output, and
  // nothing past the limit is ever produced.
  QueryOptions window = s.base;
  window.offset = s.base.offset - skipped_;
  window.limit = s.base.limit == 0 ? 0 : s.base.limit - delivered_;
  Result<ResultCursor> cursor = s.opener(*doc_name_, sys, window);
  MutexLock lock(s.mu);
  Shared::Doc& doc = s.docs[doc_index_];
  doc.executed = true;
  if (cursor.ok()) {
    inline_.emplace(std::move(cursor).value());
    return;
  }
  // Only the merge itself waits on this document: no notify needed.
  doc.status = std::move(cursor).status();
  doc.state = Shared::DocState::kDone;
}

void CollectionCursor::SettleInline() {
  if (!inline_.has_value()) return;
  Shared& s = *shared_;
  skipped_ += inline_->offset_skipped();
  MutexLock lock(s.mu);
  Shared::Doc& doc = s.docs[doc_index_];
  doc.stats = inline_->stats();
  doc.state = Shared::DocState::kDone;
  inline_.reset();
}

void CollectionCursor::WaitSettled() {
  Shared& s = *shared_;
  MutexLock lock(s.mu);
  for (;;) {
    bool settled = true;
    for (const Shared::Doc& d : s.docs) {
      if (d.state != Shared::DocState::kDone &&
          d.state != Shared::DocState::kCancelled) {
        settled = false;
        break;
      }
    }
    if (settled) return;
    s.items.Wait(lock);
  }
}

Result<BlasCollection::CollectionResult> CollectionCursor::Drain() {
  BlasCollection::CollectionResult result;
  const bool project = shared_->base.projection != Projection::kDLabel;
  while (std::optional<CollectionMatch> cm = Next()) {
    result.Add(std::move(*cm), project);
  }
  if (!status_.ok()) return status_;
  // Producers cancelled mid-stream still hold partial stats until they
  // unwind; wait for every document to settle before summing.
  WaitSettled();
  {
    MutexLock lock(shared_->mu);
    for (const Shared::Doc& doc : shared_->docs) {
      if (doc.executed) result.stats += doc.stats;
    }
  }
  result.offset_skipped = offset_skipped();
  return result;
}

ExecStats CollectionCursor::SettledStats() {
  ExecStats out;
  if (shared_ == nullptr) return out;
  if (!exhausted_) {
    Cancel();
    exhausted_ = true;
  }
  WaitSettled();
  MutexLock lock(shared_->mu);
  for (const Shared::Doc& doc : shared_->docs) {
    if (doc.executed) out += doc.stats;
  }
  return out;
}

CollectionCursor::ScatterStats CollectionCursor::scatter_stats() const {
  ScatterStats out;
  if (shared_ == nullptr) return out;
  MutexLock lock(shared_->mu);
  out.docs_total = shared_->docs.size();
  for (const Shared::Doc& doc : shared_->docs) {
    if (doc.executed) {
      ++out.docs_executed;
    } else if (doc.state == Shared::DocState::kCancelled) {
      ++out.docs_cancelled;
    }
  }
  return out;
}

}  // namespace blas
