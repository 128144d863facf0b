#ifndef BLAS_BLAS_COLLECTION_H_
#define BLAS_BLAS_COLLECTION_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blas/blas.h"

namespace blas {

class ThreadPool;
class CollectionCursor;

/// One answer of a collection-wide enumeration: the owning document's
/// name (a view into the cursor, valid for the cursor's lifetime) plus
/// the match itself.
struct CollectionMatch {
  std::string_view document;
  Match match;
};

/// How a collection cursor executes its per-document cursors.
struct ScatterOptions {
  /// Worker pool the per-document producers fan out onto. Every document
  /// but the first is TrySubmit-ted (never blocking the opener); the merge
  /// runs the first one itself, and claims any document whose task has not
  /// started by the time the merge needs it, so a saturated pool degrades
  /// to one-document-at-a-time execution instead of deadlocking. Null is
  /// the limiting case: the merge runs every document itself, lazily and
  /// in name order.
  ThreadPool* pool = nullptr;
  /// Bounded per-document match queue: producers ahead of the merge
  /// block once their queue is full, bounding memory and delay.
  size_t queue_capacity = 256;
};

/// \brief A queryable set of independently indexed XML documents.
///
/// Section 3 of the paper notes that the labeling scheme "can be easily
/// extended to multiple documents by introducing document id information".
/// This collection realizes that extension at the system level: each
/// document keeps its own index (tag alphabets and therefore P-label
/// codecs legitimately differ between documents) and queries fan out
/// across all of them, returning per-document match lists.
class BlasCollection {
 public:
  BlasCollection() = default;
  BlasCollection(BlasCollection&&) = default;
  BlasCollection& operator=(BlasCollection&&) = default;
  /// Copying is shallow: both collections share the (immutable, refcounted)
  /// member documents. This is the copy-on-write primitive of the live
  /// ingestion layer — a new epoch copies the previous collection and
  /// swaps only the changed entries, so unchanged documents cost one
  /// refcount bump each.
  BlasCollection(const BlasCollection&) = default;
  BlasCollection& operator=(const BlasCollection&) = default;

  /// Indexes and adds a document. Fails on duplicate names or index
  /// errors; the collection is unchanged on failure.
  Status AddXml(const std::string& name, std::string_view xml,
                const BlasOptions& options = {});
  Status AddEvents(const std::string& name,
                   const std::function<void(SaxHandler*)>& emit,
                   const BlasOptions& options = {});
  /// Adds a document from a persisted index file.
  Status AddIndexFile(const std::string& name, const std::string& path,
                      const BlasOptions& options = {});
  /// Adds a document from a BLASIDX2 paged snapshot, opened lazily (O(1)
  /// in document size; pages fault in as queries touch them). Pass the
  /// same `storage.shared_budget` for every member so the whole
  /// collection draws on one memory allowance — a corpus larger than the
  /// budget still answers every query, evicting as it goes.
  Status AddPagedIndexFile(const std::string& name, const std::string& path,
                           const StorageOptions& storage = {});

  /// Adds an already-open document, sharing ownership. The live ingestion
  /// layer uses this to publish documents indexed off to the side (and to
  /// attach reclamation hooks via the shared_ptr's deleter).
  Status AddSystem(const std::string& name,
                   std::shared_ptr<const BlasSystem> system);

  /// Replaces (or inserts) a document, sharing ownership. Never fails;
  /// returns the previous document when one was replaced.
  std::shared_ptr<const BlasSystem> PutSystem(
      const std::string& name, std::shared_ptr<const BlasSystem> system);

  /// Removes a document. Returns NotFound if absent. Safe against open
  /// cursors: each cursor pins the documents it enumerates at open time,
  /// so an in-flight query keeps draining the removed document's data.
  /// (Concurrent mutation of the *collection object itself* still needs
  /// external synchronization — the live ingestion layer never mutates a
  /// published collection, it publishes a copy.)
  Status Remove(const std::string& name);

  size_t size() const { return docs_.size(); }
  std::vector<std::string> names() const;
  /// Returns nullptr when absent.
  const BlasSystem* Find(const std::string& name) const;
  /// Shared-ownership lookup; null when absent.
  std::shared_ptr<const BlasSystem> FindShared(const std::string& name) const;

  /// One document's answer within a collection-wide result.
  struct DocMatches {
    std::string name;
    std::vector<uint32_t> starts;
    /// Projected content, parallel to `starts`; filled only when the
    /// query's projection != kDLabel.
    std::vector<Match> matches;
  };
  struct CollectionResult {
    std::vector<DocMatches> docs;  // only documents with >= 1 match
    ExecStats stats;               // summed across executed documents
    /// Matches delivered across all documents — i.e. after `offset` and
    /// `limit` are applied. A bounded query stops enumerating once the
    /// budget is spent, so the number of answers that exist beyond it is
    /// unknown (that is the point of early termination); run unbounded to
    /// count everything.
    size_t total_matches = 0;
    /// Matches consumed by the collection-wide `offset` before the first
    /// delivered one.
    uint64_t offset_skipped = 0;

    /// Appends the next merged match to its document's entry (a new one
    /// when the document changes), keeping its content when `project`.
    void Add(CollectionMatch match, bool project);
  };

  /// How a collection cursor executes its per-document cursors (see the
  /// namespace-scope ScatterOptions).
  using ScatterOptions = blas::ScatterOptions;

  /// Opens the per-document ResultCursor for one document with the
  /// per-document offset/limit window in `doc_options`. Called once per
  /// document, concurrently from the merge thread and scatter workers; the
  /// query service's opener consults its per-document plan cache.
  using DocCursorOpener = std::function<Result<ResultCursor>(
      const std::string& name, const BlasSystem& sys,
      const QueryOptions& doc_options)>;

  /// Opens a streaming cursor over the collection-wide answer sequence,
  /// ordered by (document name, document order). Collection-wide
  /// `options.offset`/`options.limit` apply to the merged sequence.
  ///
  /// The merge runs the first document itself, and any other it reaches
  /// before a worker has started it, opening it with the window that
  /// remains (offset not yet skipped, limit not yet delivered) and pulling
  /// it one Next() at a time — so a one-member collection costs exactly
  /// what the member's own cursor costs. The other documents fan out onto
  /// `scatter.pool`, each capped at offset + limit answers, and merge
  /// through bounded queues; a bounded cursor cancels still-queued
  /// documents once the window is delivered.
  ///
  /// A per-document translation failure surfaces when the merge reaches
  /// that document: Next() returns nullopt with CollectionCursor::status()
  /// set, Drain() returns the error — documents abort in name order, with
  /// or without a pool.
  ///
  /// The collection (and the pool, if any) must outlive the cursor.
  Result<CollectionCursor> OpenCursor(std::string_view xpath,
                                      const QueryOptions& options = {},
                                      const ScatterOptions& scatter = {}) const;
  /// As above, with `opener` creating each per-document cursor.
  CollectionCursor OpenCursor(DocCursorOpener opener,
                              const QueryOptions& options,
                              const ScatterOptions& scatter = {}) const;

  /// Runs `xpath` over every document (in name order) with the unified
  /// per-query knobs: translator, engine (kAuto resolves per document —
  /// plans legitimately differ), join-order optimization, projection, and
  /// collection-wide `limit`/`offset` over the concatenated name-ordered
  /// match sequence — enumeration stops (documents are not even opened)
  /// once offset + limit matches have been produced. OpenCursor + Drain
  /// with no pool (lazy, name order, each document opened with the window
  /// that remains).
  ///
  /// A per-document translation failure aborts the query; that includes
  /// Unsupported (e.g. wildcards under Split) — pick Unfold or DLabel for
  /// wildcard queries.
  Result<CollectionResult> Execute(std::string_view xpath,
                                   const QueryOptions& options = {}) const;

 private:
  std::map<std::string, std::shared_ptr<const BlasSystem>> docs_;
};

/// \brief Pull-based enumeration of one query's answers across a whole
/// collection, merged in (document name, document order).
///
/// Obtained from BlasCollection::OpenCursor. Matches are pulled one
/// Next() at a time (or all at once via Drain()); per-document producers
/// run concurrently on the scatter pool and are cancelled as soon as the
/// collection-wide budget is spent. Must be pulled by one thread at a
/// time; abandoning the cursor cancels outstanding producers.
class CollectionCursor {
 public:
  /// Scatter-side execution counters (early-termination accounting).
  struct ScatterStats {
    size_t docs_total = 0;
    /// Documents whose per-document cursor was actually opened (their
    /// ExecStats are in the result roll-up).
    size_t docs_executed = 0;
    /// Documents cancelled before execution started — the budget was
    /// spent (or the query aborted) while they were still queued.
    size_t docs_cancelled = 0;
  };

  CollectionCursor(CollectionCursor&&) = default;
  /// Cancels the overwritten cursor's outstanding producers first (like
  /// the destructor would) — otherwise producers blocked on their full
  /// queues would wait forever with no consumer left to drain or cancel
  /// them.
  CollectionCursor& operator=(CollectionCursor&& other);
  ~CollectionCursor();

  /// The next match, or nullopt when exhausted — end of results, `limit`
  /// delivered, or a per-document failure (check status()).
  std::optional<CollectionMatch> Next();

  /// Delivers every remaining match grouped per document, plus the
  /// summed ExecStats of every executed document.
  Result<BlasCollection::CollectionResult> Drain();

  /// Cancels still-queued documents and stops producers; idempotent.
  /// Next() returns nullopt from then on.
  void Cancel();

  /// Summed ExecStats of every executed document. If the cursor is not
  /// yet exhausted this cancels outstanding work first, then blocks until
  /// every producer settles (their stats are final).
  ExecStats SettledStats();

  /// OK unless a per-document open/translation failed; set by the time
  /// Next() returns nullopt for that reason.
  const Status& status() const { return status_; }
  bool exhausted() const { return exhausted_; }
  /// Matches delivered so far (after the collection-wide offset).
  uint64_t delivered() const { return delivered_; }
  /// Matches consumed by the collection-wide offset so far.
  uint64_t offset_skipped() const {
    return skipped_ + (inline_.has_value() ? inline_->offset_skipped() : 0);
  }
  ScatterStats scatter_stats() const;

 private:
  friend class BlasCollection;
  struct Shared;

  explicit CollectionCursor(std::shared_ptr<Shared> shared);

  /// Opens the claimed current document on the merge thread with the
  /// window that remains.
  void OpenInline(const BlasSystem& sys);
  /// Publishes the inline document's stats and offset skips and marks it
  /// done; no-op without one.
  void SettleInline();
  /// Blocks until no producer is mid-execution (their stats are final).
  void WaitSettled();

  std::shared_ptr<Shared> shared_;
  Status status_;
  bool exhausted_ = false;
  size_t doc_index_ = 0;
  /// The current document's name (stable: owned by shared_).
  const std::string* doc_name_ = nullptr;
  /// The current document when the merge runs it itself.
  std::optional<ResultCursor> inline_;
  /// The current document's matches grabbed from its producer queue a
  /// whole batch per lock acquisition.
  std::deque<Match> local_;
  uint64_t delivered_ = 0;
  /// Offset consumed by settled inline documents and by the merge.
  uint64_t skipped_ = 0;
};

}  // namespace blas

#endif  // BLAS_BLAS_COLLECTION_H_
