#include "storage/page_source.h"

#include <cassert>
#include <list>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blas {

namespace {

// Process-wide storage metrics (see obs/metrics.h). Registered once; the
// hot paths below pay one relaxed atomic per event. The pread histogram
// is only touched on misses, which already pay a disk read.
struct StorageMetrics {
  obs::Histogram* pread_ns;
  obs::Counter* evictions;
  obs::Gauge* frames_in_use;
  obs::Histogram* readahead;

  StorageMetrics() {
    auto& reg = obs::DefaultRegistry();
    pread_ns = reg.GetHistogram(
        "blas_storage_pread_ns", "Latency of one paged 8 KiB pread");
    evictions = reg.GetCounter(
        "blas_storage_evictions_total", "Buffer-pool frames evicted");
    frames_in_use = reg.GetGauge(
        "blas_storage_frames_in_use",
        "Buffer-pool frames currently resident across all paged pools");
    readahead = reg.GetHistogram(
        "blas_storage_readahead_batch_pages",
        "Pages per ranged POSIX_FADV_WILLNEED readahead batch");
  }
};

StorageMetrics& storage_metrics() {
  static StorageMetrics* m = new StorageMetrics();
  return *m;
}

/// One shard per 128 frames, capped at 16: tiny pools (including the unit
/// tests' 2-frame pools) keep exact single-LRU semantics, while the
/// default 4096-frame pool spreads readers over 16 latches.
size_t PickShardCount(size_t capacity) {
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= 64) shards *= 2;
  return shards;
}

/// Per-shard frame allowance: an even split of `total` with at least one
/// frame per shard so a pinned descent can always progress.
size_t ShardCapacity(size_t total, size_t shards, size_t index) {
  size_t capacity = total / shards + (index < total % shards ? 1 : 0);
  return capacity == 0 ? 1 : capacity;
}

// --------------------------------------------------------------------------
// InMemorySource: the build-time page array. Every page is resident by
// construction; the LRU exists purely to *count* what a paged run would
// have fetched and missed, which is what the paper's experiments report.
// --------------------------------------------------------------------------

class InMemorySource final : public PageSource {
 public:
  InMemorySource(size_t cache_capacity, size_t shards)
      : cache_capacity_(cache_capacity == 0 ? 1 : cache_capacity) {
    size_t n = shards == 0 ? PickShardCount(cache_capacity_) : shards;
    if (n > cache_capacity_) n = cache_capacity_;
    if (n == 0) n = 1;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      shards_.push_back(
          std::make_unique<Shard>(ShardCapacity(cache_capacity_, n, i)));
    }
  }

  bool paged() const override { return false; }
  size_t page_count() const override { return pages_.size(); }
  size_t shard_count() const override { return shards_.size(); }

  PageId Allocate() override {
    pages_.push_back(std::make_unique<Page>());
    return static_cast<PageId>(pages_.size() - 1);
  }

  Page* MutablePage(PageId id) override {
    // An out-of-range id (e.g. from a corrupt snapshot directory) must
    // not index unallocated memory.
    assert(id < pages_.size() && "MutablePage out of range");
    if (id >= pages_.size()) return nullptr;
    return pages_[id].get();
  }

  PageRef Fetch(PageId id, bool counted) const override {
    if (id >= pages_.size()) {
      assert(false && "Fetch out of range");
      return PageRef();
    }
    if (!counted) {
      // Peek: bypass the counting cache entirely — pages are resident
      // anyway, and maintenance reads must not perturb the model.
      return MakeRef(pages_[id].get(), nullptr);
    }
    Shard& shard = shard_for(id);
    bool miss = false;
    {
      MutexLock lock(shard.mu);
      ++shard.stats.fetches;
      auto it = shard.cached.find(id);
      if (it != shard.cached.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        miss = true;
        ++shard.stats.misses;
        if (shard.cached.size() >= shard.capacity) {
          PageId victim = shard.lru.back();
          shard.lru.pop_back();
          shard.cached.erase(victim);
        }
        shard.lru.push_front(id);
        shard.cached[id] = shard.lru.begin();
      }
    }
    if (ReadCounters* counters = ReadCounterScope::Current()) {
      ++counters->fetches;
      if (miss) ++counters->misses;
    }
    return MakeRef(pages_[id].get(), nullptr);
  }

  BufferPool::Stats stats() const override {
    BufferPool::Stats total;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total.fetches += shard->stats.fetches;
      total.misses += shard->stats.misses;
    }
    return total;
  }

  void ResetStats() override {
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      shard->stats = BufferPool::Stats();
    }
  }

  void DropCache() override {
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      shard->lru.clear();
      shard->cached.clear();
    }
  }

  size_t frames_in_use() const override { return 0; }
  size_t peak_frames() const override { return 0; }
  bool io_error() const override { return false; }
  bool TryEvictOne() override { return false; }

 private:
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap == 0 ? 1 : cap) {}
    Mutex mu;
    std::list<PageId> lru BLAS_GUARDED_BY(mu);  // front = most recent
    std::unordered_map<PageId, std::list<PageId>::iterator> cached
        BLAS_GUARDED_BY(mu);
    const size_t capacity;
    BufferPool::Stats stats BLAS_GUARDED_BY(mu);
  };

  Shard& shard_for(PageId id) const { return *shards_[id % shards_.size()]; }

  std::vector<std::unique_ptr<Page>> pages_;
  size_t cache_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// --------------------------------------------------------------------------
// PreadFrameSource: demand paging into owned frames. A miss preads the
// page into a freshly allocated frame with the shard latch dropped (the
// `pending` set keeps the read exclusive; hits on other pages proceed);
// eviction is second-chance over the clock ring, skipping pinned frames.
// --------------------------------------------------------------------------

class PreadFrameSource final : public PageSource {
 public:
  PreadFrameSource(PagedFile file, size_t total_frames, size_t shard_count,
                   BufferPool* owner, FrameBudget* budget)
      : file_(std::move(file)), owner_(owner), budget_(budget) {
    shards_.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>(
          ShardCapacity(total_frames, shard_count, i)));
    }
  }

  ~PreadFrameSource() override {
    // The facade unregistered from the shared budget before destroying
    // this source, so no cross-pool reclaim can race the count below.
    size_t resident = 0;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      resident += shard->frames.size();
    }
    if (resident > 0) {
      storage_metrics().frames_in_use->Add(-static_cast<int64_t>(resident));
      if (budget_ != nullptr) {
        BudgetRelease(budget_, resident * kPageSize);
      }
    }
  }

  bool paged() const override { return true; }
  size_t page_count() const override { return file_.page_count(); }
  size_t shard_count() const override { return shards_.size(); }

  PageId Allocate() override {
    assert(false && "Allocate on a paged (immutable) pool");
    return kInvalidPage;
  }
  Page* MutablePage(PageId /*id*/) override {
    assert(false && "MutablePage on a paged (immutable) pool");
    return nullptr;
  }

  PageRef Fetch(PageId id, bool counted) const override {
    if (id >= file_.page_count()) {
      assert(false && "Fetch out of range");
      return PageRef();
    }
    Shard& shard = shard_for(id);
    {
      MutexLock lock(shard.mu);
      if (counted) ++shard.stats.fetches;
      while (true) {
        auto it = shard.frames.find(id);
        if (it != shard.frames.end()) {
          Frame* frame = it->second.get();
          frame->referenced = true;
          frame->pins.fetch_add(1, std::memory_order_relaxed);
          if (counted) {
            if (ReadCounters* counters = ReadCounterScope::Current()) {
              ++counters->fetches;
            }
          }
          return MakeRef(&frame->page, &frame->pins);
        }
        if (shard.pending.count(id) == 0) break;  // this thread reads it
        // Another thread's pread for this page is in flight; wait for it
        // to publish (or fail — then this thread retries the read).
        shard.ready.Wait(lock);
      }
      shard.pending.insert(id);
    }

    // Miss. Reserve budget first (reclaim may probe other shards and
    // pools; no latch may be held while it does), then pread with the
    // latch dropped — a slow disk must not block hits on this shard. The
    // pending marker keeps the read exclusive.
    bool charged = ChargeBudget();

    auto frame = std::make_unique<Frame>();
    frame->id = id;
    frame->pins.store(1, std::memory_order_relaxed);
    Stopwatch pread_timer;
    Status read = file_.Read(id, &frame->page);
    {
      const uint64_t ns = pread_timer.ElapsedNanos();
      storage_metrics().pread_ns->Record(ns);
      if (obs::TraceContext* trace = obs::TraceContext::Current()) {
        trace->RecordPageRead(ns);
      }
    }

    MutexLock lock(shard.mu);
    shard.pending.erase(id);
    shard.ready.NotifyAll();
    if (!read.ok()) {
      if (charged) BudgetRelease(budget_, kPageSize);
      ++shard.stats.io_errors;
      io_error_.store(true, std::memory_order_relaxed);
      assert(false && "paged read failed");
      return PageRef();
    }
    if (shard.frames.size() >= shard.capacity) {
      EvictDownTo(shard, shard.capacity - 1);
    }
    if (counted) {
      ++shard.stats.misses;
      ++shard.stats.io_reads;
    }
    Frame* raw = frame.get();
    shard.clock.push_back(id);
    shard.frames.emplace(id, std::move(frame));
    storage_metrics().frames_in_use->Add(1);
    if (shard.frames.size() > shard.peak) shard.peak = shard.frames.size();
    if (counted) {
      if (ReadCounters* counters = ReadCounterScope::Current()) {
        ++counters->fetches;
        ++counters->misses;
        ++counters->io_reads;
      }
    }
    return MakeRef(&raw->page, &raw->pins);
  }

  void Readahead(PageId first, size_t count) const override {
    if (count == 0 || first >= file_.page_count()) return;
    file_.ReadaheadHint(first, count);
    storage_metrics().readahead->Record(count);
  }

  BufferPool::Stats stats() const override {
    BufferPool::Stats total;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total.fetches += shard->stats.fetches;
      total.misses += shard->stats.misses;
      total.io_reads += shard->stats.io_reads;
      total.evictions += shard->stats.evictions;
      total.io_errors += shard->stats.io_errors;
    }
    return total;
  }

  void ResetStats() override {
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      shard->stats = BufferPool::Stats();
      shard->peak = shard->frames.size();
    }
  }

  void DropCache() override {
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      // Free every unpinned frame. Pinned frames stay resident (so their
      // refs keep reading valid bytes); their next unpin makes them
      // evictable again.
      EvictDownTo(*shard, 0);
    }
  }

  size_t frames_in_use() const override {
    size_t total = 0;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total += shard->frames.size();
    }
    return total;
  }

  size_t peak_frames() const override {
    size_t total = 0;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mu);
      total += shard->peak;
    }
    return total;
  }

  bool io_error() const override {
    return io_error_.load(std::memory_order_relaxed);
  }

  bool TryEvictOne() override {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      // Probe, never block: the caller (FrameBudget::ReclaimOne) holds
      // pools_mu_, and a blocking latch acquisition here could deadlock
      // against a shard holder waiting on the budget.
      if (!shard.mu.TryLock()) continue;
      size_t target = shard.frames.empty() ? 0 : shard.frames.size() - 1;
      bool evicted = EvictDownTo(shard, target) > 0;
      shard.mu.Unlock();
      if (evicted) return true;
    }
    return false;
  }

 private:
  struct Frame {
    Page page;
    PageId id = kInvalidPage;
    /// Pins are taken under the shard latch but dropped lock-free; the
    /// release/acquire pair orders the reader's last access before any
    /// eviction that observes the zero.
    std::atomic<uint32_t> pins{0};
    bool referenced = false;  // second-chance bit, under the shard latch
  };

  struct Shard {
    explicit Shard(size_t cap) : capacity(cap == 0 ? 1 : cap) {}
    Mutex mu;
    // Real frames plus a second-chance clock ring. Pages whose pread is
    // in flight sit in `pending` (the disk read happens with the latch
    // dropped, so hits on other pages proceed); concurrent fetchers of
    // the same page wait on `ready`. Frame pointers taken out of
    // `frames` under the latch stay valid while pinned: eviction skips
    // any frame whose pin count (an atomic, deliberately *not*
    // latch-guarded — pins drop lock-free in PageRef::Release) is
    // non-zero.
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames
        BLAS_GUARDED_BY(mu);
    std::list<PageId> clock BLAS_GUARDED_BY(mu);  // next eviction at front
    std::unordered_set<PageId> pending BLAS_GUARDED_BY(mu);
    CondVar ready;
    const size_t capacity;
    size_t peak BLAS_GUARDED_BY(mu) = 0;
    BufferPool::Stats stats BLAS_GUARDED_BY(mu);
  };

  Shard& shard_for(PageId id) const { return *shards_[id % shards_.size()]; }

  /// Charges one frame against the shared budget, reclaiming (or, when
  /// everything in the group stays pinned across repeated probe rounds,
  /// overshooting) as needed. Returns whether a charge was taken. Must
  /// be called with no shard latch held.
  bool ChargeBudget() const {
    if (budget_ == nullptr) return false;
    int failed_probes = 0;
    while (!BudgetTryCharge(budget_, kPageSize)) {
      if (BudgetReclaimOne(budget_, owner_)) {
        failed_probes = 0;
        continue;
      }
      // Reclaim probes shards with try-locks, so a failed round may just
      // mean evictable frames sat behind momentarily-held latches —
      // yield and retry before concluding the group is truly pinned.
      if (++failed_probes < 16) {
        std::this_thread::yield();
        continue;
      }
      // Every frame in the group stayed unavailable across repeated
      // probes (in practice: all pinned): overshoot rather than
      // deadlock; the next eviction rebalances.
      BudgetForceCharge(budget_, kPageSize);
      break;
    }
    return true;
  }

  size_t EvictDownTo(Shard& shard, size_t target) const
      BLAS_REQUIRES(shard.mu) {
    size_t evicted = 0;
    // Two full rotations: the first clears referenced bits, the second
    // can then evict; beyond that everything left is pinned.
    size_t attempts = 2 * shard.clock.size() + 1;
    while (shard.frames.size() > target && attempts-- > 0 &&
           !shard.clock.empty()) {
      PageId victim = shard.clock.front();
      auto it = shard.frames.find(victim);
      assert(it != shard.frames.end());
      Frame* frame = it->second.get();
      if (frame->pins.load(std::memory_order_acquire) > 0 ||
          frame->referenced) {
        frame->referenced = false;
        shard.clock.splice(shard.clock.end(), shard.clock,
                           shard.clock.begin());
        continue;
      }
      shard.clock.pop_front();
      shard.frames.erase(it);
      ++shard.stats.evictions;
      ++evicted;
      if (budget_ != nullptr) BudgetRelease(budget_, kPageSize);
    }
    if (evicted > 0) {
      StorageMetrics& metrics = storage_metrics();
      metrics.evictions->Add(evicted);
      metrics.frames_in_use->Add(-static_cast<int64_t>(evicted));
    }
    return evicted;
  }

  PagedFile file_;
  BufferPool* const owner_;
  FrameBudget* const budget_;
  mutable std::atomic<bool> io_error_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace

// ------------------------------------------------------------ interface ---

void PageSource::Readahead(PageId /*first*/, size_t /*count*/) const {}

std::unique_ptr<PageSource> MakeInMemorySource(size_t cache_capacity,
                                               size_t shards) {
  return std::make_unique<InMemorySource>(cache_capacity, shards);
}

std::unique_ptr<PageSource> MakePagedSource(PagedFile file,
                                            const StorageOptions& options,
                                            BufferPool* owner,
                                            FrameBudget* budget) {
  size_t total_frames;
  size_t n;
  if (options.frames_per_shard > 0) {
    n = options.shards == 0 ? 1 : options.shards;
    total_frames = options.frames_per_shard * n;
  } else {
    total_frames = options.memory_budget / kPageSize;
    if (total_frames == 0) total_frames = 1;
    n = options.shards == 0 ? PickShardCount(total_frames) : options.shards;
    if (n > total_frames) n = total_frames;
  }
  if (n == 0) n = 1;
  return std::make_unique<PreadFrameSource>(std::move(file), total_frames, n,
                                            owner, budget);
}

}  // namespace blas
