#include "storage/string_dict.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace blas {

namespace {

const std::string kEmptyValue;

}  // namespace

bool DecodeValuePages(uint32_t expected_first, uint32_t group_pages,
                      uint64_t value_count, const ValuePageReader& read,
                      std::vector<std::string>* out) {
  Page page;
  if (group_pages == 0 || !read(0, &page)) return false;
  const auto* header = page.As<ValuePageHeader>();
  if (header->first_id != expected_first) return false;
  const uint64_t max_count = (kPageSize - sizeof(ValuePageHeader)) / 4 - 1;
  if (header->count == 0 || header->count > max_count) return false;
  if (group_pages > 1 && header->count != 1) return false;
  if (uint64_t{header->first_id} + header->count > value_count) return false;
  const auto* offsets = reinterpret_cast<const uint32_t*>(
      page.bytes.data() + sizeof(ValuePageHeader));
  uint32_t prev = static_cast<uint32_t>(sizeof(ValuePageHeader) +
                                        (header->count + 1) * 4);
  for (uint32_t i = 0; i < header->count; ++i) {
    if (offsets[i] < prev || offsets[i] > kPageSize) return false;
    prev = offsets[i];
  }
  // The end offset ends in the group's last page: a packed page's within
  // the page, a run's exactly `group_pages` pages into the run.
  const uint32_t end = offsets[header->count];
  if (end < prev || (end + kPageSize - 1) / kPageSize != group_pages) {
    return false;
  }
  const char* base = reinterpret_cast<const char*>(page.bytes.data());
  if (group_pages == 1) {
    for (uint32_t i = 0; i < header->count; ++i) {
      out->emplace_back(base + offsets[i], offsets[i + 1] - offsets[i]);
    }
    return true;
  }
  // A run: byte j of page k is byte k * kPageSize + j of the value's span.
  std::string value(base + offsets[0], kPageSize - offsets[0]);
  value.reserve(end - offsets[0]);
  for (uint32_t k = 1; k < group_pages; ++k) {
    if (!read(k, &page)) return false;
    value.append(base, std::min<size_t>(kPageSize, end - k * kPageSize));
  }
  out->push_back(std::move(value));
  return true;
}

uint32_t StringDict::Intern(std::string_view value) {
  assert(!paged() && "Intern on a paged (immutable) dictionary");
  auto it = ids_.find(std::string(value));
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(values_.size());
  values_.emplace_back(value);
  ids_.emplace(values_.back(), id);
  return id;
}

void StringDict::AttachPaged(const BufferPool* pool, PagedDictLayout layout) {
  pool_ = pool;
  layout_ = std::move(layout);
}

const std::string& StringDict::Get(uint32_t id) const {
  if (!paged()) return values_[id];
  return PagedGet(id);
}

const std::string& StringDict::PagedGet(uint32_t id) const {
  if (id >= layout_.count) {
    assert(false && "dictionary id out of range");
    return kEmptyValue;
  }
  // Locate the page group: page_first_ids is non-decreasing, and every
  // page of a run carries the run's id, so the group holding `id` is the
  // equal range of the last first id <= `id`.
  const std::vector<uint32_t>& firsts = layout_.page_first_ids;
  auto group_end = std::upper_bound(firsts.begin(), firsts.end(), id);
  assert(group_end != firsts.begin());
  auto group = std::lower_bound(firsts.begin(), group_end, *(group_end - 1));
  const uint32_t page_index = static_cast<uint32_t>(group - firsts.begin());

  MutexLock lock(decode_mu_);
  auto cached = decoded_.find(page_index);
  if (cached == decoded_.end()) {
    // Copy each page out and drop its pin before fetching the next.
    const PageId head = layout_.first_value_page + page_index;
    auto read = [this, head](uint32_t k, Page* page) {
      PageRef ref = pool_->Fetch(head + k);
      if (!ref) return false;
      *page = *ref;
      return true;
    };
    std::vector<std::string> group_values;
    if (!DecodeValuePages(*group, static_cast<uint32_t>(group_end - group),
                          layout_.count, read, &group_values)) {
      assert(false && "corrupt value page");
      return kEmptyValue;
    }
    cached = decoded_.emplace(page_index, std::move(group_values)).first;
  }
  const std::vector<std::string>& group_values = cached->second;
  uint32_t slot = id - *group;
  if (slot >= group_values.size()) {
    assert(false && "value slot out of range");
    return kEmptyValue;
  }
  return group_values[slot];
}

uint32_t StringDict::PermEntry(uint64_t k) const {
  PageId page = layout_.first_perm_page + static_cast<PageId>(k / kPermPerPage);
  PageRef ref = pool_->Fetch(page);
  if (!ref) {
    assert(false && "permutation page unreadable");
    return 0;
  }
  return ref->As<uint32_t>()[k % kPermPerPage];
}

std::optional<uint32_t> StringDict::Find(std::string_view value) const {
  if (!paged()) {
    auto it = ids_.find(std::string(value));
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  // Binary search the sorted-by-string permutation; each probe costs one
  // permutation-page read plus one value read (both through the pool, so
  // dictionary probes show up in the page counters like index descents).
  uint64_t lo = 0;
  uint64_t hi = layout_.count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (Get(PermEntry(mid)) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= layout_.count) return std::nullopt;
  uint32_t id = PermEntry(lo);
  if (Get(id) != value) return std::nullopt;
  return id;
}

}  // namespace blas
