#include "storage/buffer_pool.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/page_source.h"

namespace blas {

namespace {

thread_local ReadCounters* tls_read_counters = nullptr;

}  // namespace

ReadCounterScope::ReadCounterScope(ReadCounters* counters)
    : prev_(tls_read_counters) {
  tls_read_counters = counters;
}

ReadCounterScope::~ReadCounterScope() { tls_read_counters = prev_; }

ReadCounters* ReadCounterScope::Current() { return tls_read_counters; }

// ------------------------------------------------------------ PagedFile ---

Result<PagedFile> PagedFile::Open(const std::string& path,
                                  uint64_t base_offset, uint64_t page_count) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open for paging: " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat failed: " + path);
  }
  // A truncated file behind a valid header fails here with Corruption at
  // open, not with a short read in the middle of some later query.
  const uint64_t needed = base_offset + page_count * kPageSize;
  if (static_cast<uint64_t>(st.st_size) < needed) {
    ::close(fd);
    return Status::Corruption("file too short for its page directory: " +
                              path);
  }
  return PagedFile(fd, base_offset, page_count, path);
}

PagedFile::PagedFile(PagedFile&& other) noexcept
    : fd_(other.fd_),
      base_(other.base_),
      pages_(other.pages_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
}

PagedFile& PagedFile::operator=(PagedFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    base_ = other.base_;
    pages_ = other.pages_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

PagedFile::~PagedFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PagedFile::Read(PageId id, Page* out) const {
  if (id >= pages_) {
    return Status::Corruption("page id out of range: " + std::to_string(id));
  }
  uint64_t offset = base_ + uint64_t{id} * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, out->bytes.data() + done, kPageSize - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("pread failed: " + path_ + ": " +
                              std::strerror(errno));
    }
    if (n == 0) {
      return Status::Corruption("unexpected EOF reading page " +
                                std::to_string(id) + " of " + path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

void PagedFile::ReadaheadHint(PageId first, uint64_t count) const {
  if (fd_ < 0 || first >= pages_ || count == 0) return;
  if (count > pages_ - first) count = pages_ - first;
  const uint64_t offset = base_ + uint64_t{first} * kPageSize;
#if defined(POSIX_FADV_WILLNEED)
  ::posix_fadvise(fd_, static_cast<off_t>(offset),
                  static_cast<off_t>(count * kPageSize),
                  POSIX_FADV_WILLNEED);
#else
  (void)offset;
#endif
}

// ---------------------------------------------------------- FrameBudget ---

FrameBudget::FrameBudget(size_t limit_bytes) : limit_(limit_bytes) {}

bool FrameBudget::TryCharge(size_t bytes) {
  size_t used = used_.load(std::memory_order_relaxed);
  while (true) {
    if (used + bytes > limit_) return false;
    if (used_.compare_exchange_weak(used, used + bytes,
                                    std::memory_order_relaxed)) {
      size_t peak = peak_.load(std::memory_order_relaxed);
      while (used + bytes > peak &&
             !peak_.compare_exchange_weak(peak, used + bytes,
                                          std::memory_order_relaxed)) {
      }
      return true;
    }
  }
}

void FrameBudget::ForceCharge(size_t bytes) {
  size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak && !peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void FrameBudget::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool FrameBudget::ReclaimOne(BufferPool* preferred) {
  MutexLock lock(pools_mu_);
  if (preferred != nullptr && preferred->TryEvictOne()) return true;
  for (BufferPool* pool : pools_) {
    if (pool == preferred) continue;
    if (pool->TryEvictOne()) return true;
  }
  return false;
}

void FrameBudget::Register(BufferPool* pool) {
  MutexLock lock(pools_mu_);
  pools_.push_back(pool);
}

void FrameBudget::Unregister(BufferPool* pool) {
  MutexLock lock(pools_mu_);
  for (auto it = pools_.begin(); it != pools_.end(); ++it) {
    if (*it == pool) {
      pools_.erase(it);
      return;
    }
  }
}

// -------------------------------------------------------------- PageRef ---

PageRef::PageRef(PageRef&& other) noexcept
    : page_(other.page_), pins_(other.pins_) {
  other.page_ = nullptr;
  other.pins_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    page_ = other.page_;
    pins_ = other.pins_;
    other.page_ = nullptr;
    other.pins_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  // Pins drop lock-free; the release pairs with the acquire load in the
  // paged source's eviction, so this reader's last access to the page
  // happens before any eviction that observes the zero.
  if (pins_ != nullptr) pins_->fetch_sub(1, std::memory_order_release);
  page_ = nullptr;
  pins_ = nullptr;
}

// ----------------------------------------------------------- BufferPool ---
//
// The facade: all mechanism lives in the PageSource (page_source.cc);
// BufferPool owns the source, the shared-budget registration, and
// nothing else.

BufferPool::BufferPool(size_t cache_capacity, size_t shards)
    : source_(MakeInMemorySource(cache_capacity, shards)) {}

BufferPool::BufferPool(PagedFile file, const StorageOptions& options)
    : budget_(options.shared_budget) {
  source_ = MakePagedSource(std::move(file), options, this, budget_.get());
  if (budget_ != nullptr) budget_->Register(this);
}

BufferPool::~BufferPool() {
  // Unregister FIRST: ReclaimOne holds pools_mu_ for the whole cross-pool
  // probe, so once Unregister returns, no other pool's fetch can evict
  // frames here. The source destructor then releases this pool's
  // remaining budget charges exactly once.
  if (budget_ != nullptr) budget_->Unregister(this);
  source_.reset();
}

bool BufferPool::paged() const { return source_->paged(); }

size_t BufferPool::page_count() const { return source_->page_count(); }

size_t BufferPool::shard_count() const { return source_->shard_count(); }

PageId BufferPool::Allocate() { return source_->Allocate(); }

Page* BufferPool::MutablePage(PageId id) { return source_->MutablePage(id); }

PageRef BufferPool::Fetch(PageId id) const {
  return source_->Fetch(id, /*counted=*/true);
}

PageRef BufferPool::Peek(PageId id) const {
  return source_->Fetch(id, /*counted=*/false);
}

void BufferPool::Readahead(PageId first, size_t count) const {
  source_->Readahead(first, count);
}

bool BufferPool::TryEvictOne() { return source_->TryEvictOne(); }

BufferPool::Stats BufferPool::stats() const { return source_->stats(); }

void BufferPool::ResetStats() { source_->ResetStats(); }

bool BufferPool::io_error() const { return source_->io_error(); }

void BufferPool::DropCache() { source_->DropCache(); }

size_t BufferPool::frames_in_use() const { return source_->frames_in_use(); }

size_t BufferPool::peak_frames() const { return source_->peak_frames(); }

}  // namespace blas
