#ifndef BLAS_SERVICE_PLAN_CACHE_H_
#define BLAS_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blas/blas.h"
#include "common/thread_annotations.h"
#include "exec/plan.h"
#include "xpath/ast.h"

namespace blas {

/// A translated plan plus the plan-derived verdicts whose computation
/// walks the path summary: the cost-based engine choice for Engine::kAuto
/// and the bounded-cursor streaming-gate inputs. Caching them alongside
/// the plan keeps warm queries free of per-request summary walks.
/// Immutable once cached.
struct CachedPlan {
  ExecPlan plan;
  Engine auto_engine = Engine::kRelational;
  StreamPlanInfo stream_info;
};

/// \brief Plan-cache entry: the query is parsed once, and the
/// per-document translated plans (codecs legitimately differ between
/// documents, so each document needs its own plan) fill in lazily as each
/// document is first opened. A hot query therefore pays one parse total
/// and one translation per document total, after which every request is
/// pure cache hits. A single-document service uses one slot.
///
/// Every per-document plan is tagged with the *epoch* of the document
/// generation it was translated against (a live collection bumps a
/// document's epoch on every replace; single documents and static
/// collections use epoch 0). A lookup whose epoch differs from the tag
/// misses — a replaced document can therefore never serve a plan
/// translated against its previous incarnation, whose tag ids, codec
/// widths and path summary may all differ.
///
/// The per-document map is internally synchronized: scatter workers for
/// different documents insert concurrently through the const handle the
/// cache gives out.
class CachedQuery {
 public:
  explicit CachedQuery(Query query) : query_(std::move(query)) {}

  const Query& query() const { return query_; }

  /// The cached plan for `doc` at `epoch`, or nullptr when the slot is
  /// empty or holds a different generation's plan (the entry stays —
  /// see PutDoc).
  std::shared_ptr<const CachedPlan> ForDoc(const std::string& doc,
                                           uint64_t epoch) const;

  /// Publishes `plan` for `doc` at `epoch`. First writer wins among
  /// same-epoch racers (the plans are identical); a newer epoch replaces
  /// an older tag; an older epoch never displaces a newer one (cursors
  /// still draining a superseded snapshot must not thrash the slot the
  /// current epoch's readers hit).
  void PutDoc(const std::string& doc, uint64_t epoch,
              std::shared_ptr<const CachedPlan> plan) const;

  /// Drops the cached plan for `doc` (any epoch). Used when a document is
  /// removed or replaced, so the entry's memory is reclaimed eagerly
  /// instead of waiting for the epoch tag to miss.
  void InvalidateDocument(const std::string& doc) const;

 private:
  struct TaggedPlan {
    uint64_t epoch = 0;
    std::shared_ptr<const CachedPlan> plan;
  };

  const Query query_;
  mutable Mutex mu_;
  mutable std::unordered_map<std::string, TaggedPlan> per_doc_
      BLAS_GUARDED_BY(mu_);
};

/// \brief Thread-safe LRU cache of query entries.
///
/// Keyed by PlanCacheKey (normalized XPath + translator + optimizer
/// knobs); a hit skips parsing, and a hit on a document's slot skips
/// decomposition, translation and join-order optimization as well.
/// Entries are handed out as shared_ptr<const CachedQuery>, so an entry
/// evicted while a query still uses it stays alive until the query drops
/// its reference.
class PlanCache {
 public:
  /// `capacity` == 0 disables the cache (every Get misses, Put is a
  /// no-op) — the service uses that for its cache-bypass mode.
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  /// Returns the cached entry and promotes it to most-recently-used, or
  /// nullptr on miss. Counts one hit or one miss.
  std::shared_ptr<const CachedQuery> Get(const std::string& key);

  /// Inserts or refreshes `value` under `key`, evicting the
  /// least-recently-used entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const CachedQuery> value);

  /// Drops `doc`'s per-document plan from every cached entry (document
  /// replaced or removed). The parsed queries and other documents' plans
  /// survive — only the invalidated document pays retranslation.
  void InvalidateDocument(const std::string& doc) const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };
  Stats stats() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Keys in recency order, most recent first (tests of eviction order).
  std::vector<std::string> KeysMruToLru() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedQuery> value;
  };

  const size_t capacity_;
  mutable Mutex mu_;
  std::list<Entry> lru_ BLAS_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      BLAS_GUARDED_BY(mu_);
  Stats stats_ BLAS_GUARDED_BY(mu_);
};

}  // namespace blas

#endif  // BLAS_SERVICE_PLAN_CACHE_H_
