#ifndef BLAS_STORAGE_PAGE_SOURCE_H_
#define BLAS_STORAGE_PAGE_SOURCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace blas {

/// \brief The read path behind BufferPool.
///
/// A PageSource turns page ids into page bytes and owns the residency
/// bookkeeping (shard latches, eviction, budget charges, statistics):
///
///   * InMemorySource — the build-time page array with the counting LRU
///     that models disk accesses (BufferPool's in-memory constructor);
///   * PreadFrameSource — demand paging, pread-into-frame with
///     second-chance eviction and pin-counted frames.
///
/// The concrete classes live in page_source.cc; everything reaches them
/// through this interface plus the factories below. Thread-safety
/// contract matches BufferPool's: Fetch/stats/DropCache/ResetStats/
/// frames_in_use/peak_frames/TryEvictOne are safe from any thread;
/// Allocate/MutablePage are build-time only.
class PageSource {
 public:
  virtual ~PageSource() = default;

  virtual bool paged() const = 0;
  virtual size_t page_count() const = 0;
  virtual size_t shard_count() const = 0;

  /// Build-time mutation (in-memory only; paged sources return
  /// kInvalidPage / nullptr).
  virtual PageId Allocate() = 0;
  virtual Page* MutablePage(PageId id) = 0;

  /// The read path. `counted` distinguishes Fetch (query-time, counts
  /// fetches/misses/io_reads) from Peek (maintenance, uncounted).
  virtual PageRef Fetch(PageId id, bool counted) const = 0;

  /// Advisory batched readahead over [first, first + count); default
  /// no-op.
  virtual void Readahead(PageId first, size_t count) const;

  virtual BufferPool::Stats stats() const = 0;
  virtual void ResetStats() = 0;
  virtual void DropCache() = 0;
  virtual size_t frames_in_use() const = 0;
  virtual size_t peak_frames() const = 0;
  virtual bool io_error() const = 0;

  /// Evicts one unpinned resident frame (shared-budget reclaim; try-lock
  /// probes only, never blocks). False when nothing is evictable.
  virtual bool TryEvictOne() = 0;

 protected:
  /// Concrete sources mint refs through this shim (PageRef's constructor
  /// is private; PageSource is a friend).
  static PageRef MakeRef(const Page* page, std::atomic<uint32_t>* pins) {
    return PageRef(page, pins);
  }

  /// FrameBudget shims: the budget's mutating interface is private
  /// (friend PageSource), so subclasses charge through these.
  static bool BudgetTryCharge(FrameBudget* budget, size_t bytes) {
    return budget->TryCharge(bytes);
  }
  static void BudgetForceCharge(FrameBudget* budget, size_t bytes) {
    budget->ForceCharge(bytes);
  }
  static void BudgetRelease(FrameBudget* budget, size_t bytes) {
    budget->Release(bytes);
  }
  static bool BudgetReclaimOne(FrameBudget* budget, BufferPool* preferred) {
    return budget->ReclaimOne(preferred);
  }
};

/// The in-memory source (BufferPool's default constructor delegates
/// here).
std::unique_ptr<PageSource> MakeInMemorySource(size_t cache_capacity,
                                               size_t shards);

/// The pread source over `file`, sized per `options`. `owner` is the
/// facade pool (passed to shared-budget reclaim as the preferred eviction
/// target); `budget` may be null.
std::unique_ptr<PageSource> MakePagedSource(PagedFile file,
                                            const StorageOptions& options,
                                            BufferPool* owner,
                                            FrameBudget* budget);

}  // namespace blas

#endif  // BLAS_STORAGE_PAGE_SOURCE_H_
