#ifndef BLAS_STORAGE_BUFFER_POOL_H_
#define BLAS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace blas {

class BufferPool;
class PageSource;

/// Per-thread storage access counters. Scans and page fetches add to the
/// scope installed on the current thread (if any) in addition to the
/// owning structure's global counters, so a query running on a worker
/// thread can attribute exactly its own accesses even while other queries
/// hammer the same store. Scopes nest; the innermost one receives the
/// counts.
struct ReadCounters {
  uint64_t elements = 0;
  uint64_t fetches = 0;
  uint64_t misses = 0;
  /// Misses that performed a real disk read (paged pools only; an
  /// in-memory pool's misses are simulated and cost no I/O).
  uint64_t io_reads = 0;
};

/// RAII installer for a thread-local ReadCounters sink.
class ReadCounterScope {
 public:
  explicit ReadCounterScope(ReadCounters* counters);
  ~ReadCounterScope();

  ReadCounterScope(const ReadCounterScope&) = delete;
  ReadCounterScope& operator=(const ReadCounterScope&) = delete;

  /// The innermost scope installed on this thread, or nullptr.
  static ReadCounters* Current();

 private:
  ReadCounters* prev_;
};

/// Sizing of a paged (disk-backed) BufferPool.
struct StorageOptions {
  /// Total bytes of page frames this pool (or, with `shared_budget`, the
  /// whole pool group) may keep resident. Rounded down to whole frames;
  /// at least one frame per shard is always kept so progress is possible.
  size_t memory_budget = size_t{64} << 20;
  /// Explicit per-shard frame cap; 0 derives it from `memory_budget`.
  size_t frames_per_shard = 0;
  /// Latch shards (0 = auto-scale with the frame count, up to 16).
  size_t shards = 0;
  /// Optional budget shared between several pools (a collection of paged
  /// documents drawing on one memory allowance). When set, a miss that
  /// would exceed the group budget first evicts an unpinned frame from
  /// some registered pool before bringing the new page in.
  std::shared_ptr<class FrameBudget> shared_budget;
};

/// \brief Byte budget shared by a group of paged BufferPools.
///
/// Each pool charges one frame on every page it reads in and releases it
/// on eviction. When a charge would exceed the limit, the charging pool
/// asks the group to reclaim: registered pools are probed (try-lock, no
/// nested latches) for an unpinned frame to evict, retrying with yields
/// when a probe round loses every try-lock race. Only when frames stay
/// unavailable across repeated rounds — in practice, everything pinned —
/// does the group overshoot; `peak_used()` records the high-water mark
/// so tests can assert the budget held.
class FrameBudget {
 public:
  explicit FrameBudget(size_t limit_bytes);

  size_t limit() const { return limit_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak_used() const { return peak_.load(std::memory_order_relaxed); }

 private:
  friend class BufferPool;
  friend class PageSource;  // sources charge through protected shims

  /// Reserves `bytes` if it fits; false when the budget is exhausted.
  bool TryCharge(size_t bytes);
  /// Reserves unconditionally (every evictable frame was pinned).
  void ForceCharge(size_t bytes);
  void Release(size_t bytes);
  /// Evicts one unpinned frame from some registered pool (preferring
  /// `preferred`). False when nothing in the group is evictable. Holds
  /// pools_mu_ while try-lock probing shard latches; the probes never
  /// block, so the pools_mu_ -> shard.mu order cannot deadlock against a
  /// charging fetcher (which holds no latch while it reclaims).
  bool ReclaimOne(BufferPool* preferred) BLAS_EXCLUDES(pools_mu_);

  void Register(BufferPool* pool) BLAS_EXCLUDES(pools_mu_);
  void Unregister(BufferPool* pool) BLAS_EXCLUDES(pools_mu_);

  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  Mutex pools_mu_;
  std::vector<BufferPool*> pools_ BLAS_GUARDED_BY(pools_mu_);
};

/// \brief Read-only page file: the on-disk backing of a paged BufferPool.
///
/// Pages live at `base_offset + id * kPageSize`; reads go through pread,
/// so any number of threads may read concurrently through one descriptor.
class PagedFile {
 public:
  /// Opens `path` and verifies it holds `page_count` pages at
  /// `base_offset` (fails with Corruption when the file is too short).
  static Result<PagedFile> Open(const std::string& path,
                                uint64_t base_offset, uint64_t page_count);

  PagedFile(PagedFile&& other) noexcept;
  PagedFile& operator=(PagedFile&& other) noexcept;
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;
  ~PagedFile();

  /// Reads page `id` into `out` (one full-page pread).
  Status Read(PageId id, Page* out) const;

  /// Advises the kernel that pages [first, first + count) will be read
  /// soon (one ranged POSIX_FADV_WILLNEED; out-of-range tails are
  /// clamped). Purely a hint: no error surfaces, nothing is charged.
  void ReadaheadHint(PageId first, uint64_t count) const;

  uint64_t page_count() const { return pages_; }
  const std::string& path() const { return path_; }

 private:
  PagedFile(int fd, uint64_t base, uint64_t pages, std::string path)
      : fd_(fd), base_(base), pages_(pages), path_(std::move(path)) {}

  int fd_ = -1;
  uint64_t base_ = 0;
  uint64_t pages_ = 0;
  std::string path_;
};

/// \brief RAII handle to a fetched page.
///
/// Lifetime rules:
///   * in-memory — pages are never freed; the ref is a plain pointer
///     (`pins_` is null);
///   * paged — the ref holds one pin on its frame: eviction, DropCache
///     and shard reclaim all skip pinned frames, so the bytes stay valid
///     and immutable until the ref dies. A ref must not outlive the
///     BufferPool that minted it.
/// An empty ref (`!ref`) means the page id was out of range or the
/// backing read failed — treat it as end-of-data.
class [[nodiscard]] PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  const Page* get() const { return page_; }
  const Page* operator->() const { return page_; }
  const Page& operator*() const { return *page_; }
  explicit operator bool() const { return page_ != nullptr; }

 private:
  friend class BufferPool;
  friend class PageSource;
  PageRef(const Page* page, std::atomic<uint32_t>* pins)
      : page_(page), pins_(pins) {}

  void Release();

  const Page* page_ = nullptr;
  /// The frame's pin count (paged pools), or null (in-memory pages).
  std::atomic<uint32_t>* pins_ = nullptr;
};

/// \brief Page store facade over a PageSource (in-memory or paged).
///
/// **In-memory mode** (the build-time pool): all pages live in memory;
/// `Fetch` runs every access through an LRU cache so benchmarks can
/// report the two quantities the paper argues about — logical page reads
/// (`fetches`) and simulated disk accesses (`misses`). Nothing is ever
/// freed, so refs never dangle and `io_reads` stays 0.
///
/// **Paged mode** (`BufferPool(PagedFile, StorageOptions)`): a miss
/// preads the page into an owned frame — a real disk read, counted in
/// `io_reads` — and second-chance eviction keeps residency within the
/// frame budget. `Allocate`/`MutablePage` are unavailable (the file
/// is immutable).
///
/// Concurrency: `Fetch`, `Peek`, `stats`, `DropCache`, `ResetStats` and
/// the counter scopes are safe to call from any number of threads once
/// the pool is built. The cache state is sharded by page id — small
/// pools (< 128 frames) keep a single shard and therefore exact
/// global-LRU semantics; larger pools split into up to 16 independently
/// latched shards. `Allocate` and `MutablePage` are build-time only and
/// must not race with `Fetch`.
class BufferPool {
 public:
  /// In-memory pool. `cache_capacity` is the number of cached frames
  /// (>= 1) of the miss-counting LRU. `shards` is the number of
  /// independently latched shards; 0 picks one shard per 128 frames
  /// (capped at 16). Pass 1 for exact global-LRU miss accounting.
  explicit BufferPool(size_t cache_capacity = 1024, size_t shards = 0);

  /// Paged pool over `file`. Frame count derives from
  /// `options.memory_budget` (or `frames_per_shard`); at least one frame
  /// per shard is kept so a pinned descent can always progress.
  BufferPool(PagedFile file, const StorageOptions& options);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  BufferPool(BufferPool&&) = delete;
  BufferPool& operator=(BufferPool&&) = delete;

  bool paged() const;

  /// Appends a zeroed page and returns its id. Build-time, in-memory
  /// pools only (kInvalidPage otherwise).
  PageId Allocate();

  /// Build-time access; does not touch the counters. Bounds-checked:
  /// out-of-range ids (and paged pools) return nullptr instead of
  /// indexing unallocated memory.
  Page* MutablePage(PageId id);

  /// Query-time access; counts one fetch, plus one miss when `id` is not
  /// resident in its shard (paged pools then read it in, possibly
  /// evicting an unpinned frame). An out-of-range id — e.g. from a
  /// corrupt snapshot directory — yields an empty ref, never UB.
  PageRef Fetch(PageId id) const;

  /// Maintenance access (export, verification); bypasses the counters
  /// and, in in-memory pools, the cache. Paged pools still track
  /// residency (the bytes must come from somewhere) but without touching
  /// the statistics. Bounds-checked like Fetch.
  PageRef Peek(PageId id) const;

  /// Hints that pages [first, first + count) are about to be read in
  /// order (one ranged POSIX_FADV_WILLNEED batch in paged pools, no-op
  /// in memory). Purely advisory; does not charge the budget or touch
  /// the counters.
  void Readahead(PageId first, size_t count) const;

  size_t page_count() const;
  size_t shard_count() const;

  struct Stats {
    uint64_t fetches = 0;
    uint64_t misses = 0;
    /// Real disk reads (== misses for paged pools, 0 for in-memory).
    uint64_t io_reads = 0;
    /// Frames evicted to stay within the budget (paged pools).
    uint64_t evictions = 0;
    /// preads that failed (see io_error()).
    uint64_t io_errors = 0;
  };
  /// Aggregate over all shards since the last ResetStats().
  Stats stats() const;
  void ResetStats();

  /// Sticky: true once any pread has failed over this pool's lifetime.
  /// A failed read surfaces to scans as end-of-data (Next() cannot fail
  /// by contract), so results may be truncated from that point on —
  /// callers that must distinguish "no more matches" from "the disk went
  /// away" check this flag (it never resets).
  bool io_error() const;

  /// Drops cached state (cold-cache experiments; the paper runs every
  /// query on a cold cache). In-memory pools clear the LRU bookkeeping;
  /// paged pools evict every unpinned frame — pinned frames survive, so
  /// concurrent readers holding PageRefs stay valid.
  void DropCache();

  /// Frames currently resident (paged pools; 0 for in-memory).
  size_t frames_in_use() const;
  /// Sum of the per-shard resident high-water marks since construction
  /// or the last ResetStats() (paged pools; 0 for in-memory).
  size_t peak_frames() const;

 private:
  friend class FrameBudget;

  /// Evicts one unpinned frame from any shard (try-lock probing; used by
  /// the shared budget's reclaim). False when everything is pinned.
  bool TryEvictOne();

  std::unique_ptr<PageSource> source_;
  std::shared_ptr<FrameBudget> budget_;
};

}  // namespace blas

#endif  // BLAS_STORAGE_BUFFER_POOL_H_
