#include "storage/string_dict.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

namespace blas {

namespace {

const std::string kEmptyValue;

/// ValueCollate with each side's number already converted.
bool CollateBefore(double a_num, std::string_view a, double b_num,
                   std::string_view b) {
  const bool a_numeric = !std::isnan(a_num);
  const bool b_numeric = !std::isnan(b_num);
  if (a_numeric != b_numeric) return a_numeric;
  if (a_numeric && a_num != b_num) return a_num < b_num;
  return a < b;
}

}  // namespace

bool ValueCollate::operator()(std::string_view a, std::string_view b) const {
  return CollateBefore(XPathNumber(a), a, XPathNumber(b), b);
}

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

std::vector<uint32_t> StringDict::Collate() {
  assert(!paged() && "Collate on a paged (immutable) dictionary");
  std::vector<double> nums(values_.size());
  for (size_t id = 0; id < values_.size(); ++id) {
    nums[id] = XPathNumber(values_[id]);
  }
  std::vector<uint32_t> order(values_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CollateBefore(nums[a], values_[a], nums[b], values_[b]);
  });
  std::vector<uint32_t> remap(values_.size());
  std::vector<std::string> sorted(values_.size());
  for (uint32_t id = 0; id < order.size(); ++id) {
    remap[order[id]] = id;
    sorted[id] = std::move(values_[order[id]]);
  }
  values_ = std::move(sorted);
  for (auto& [value, id] : ids_) id = remap[id];
  return remap;
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

template <typename Pred>
uint32_t StringDict::FirstFailing(Pred before) const {
  uint64_t lo = 0;
  uint64_t hi = size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (before(Get(static_cast<uint32_t>(mid)))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint32_t>(lo);
}

std::optional<uint32_t> StringDict::Find(std::string_view value) const {
  if (!paged()) {
    auto it = ids_.find(std::string(value));
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  // Ids follow the collation order: a lower-bound search over the value
  // pages, each probe one (memoized) value read through the pool.
  const double num = XPathNumber(value);
  const uint32_t id = FirstFailing([&](const std::string& v) {
    return CollateBefore(XPathNumber(v), v, num, value);
  });
  if (id >= size() || Get(id) != value) return std::nullopt;
  return id;
}

ValueIds StringDict::Select(const ValuePred& pred) const {
  ValueIds ids;
  if (pred.op == ValueOp::kEq || pred.op == ValueOp::kNe) {
    if (std::optional<uint32_t> id = Find(pred.literal)) {
      ids.lo = *id;
      ids.hi = *id + 1;
    }
    ids.negated = pred.op == ValueOp::kNe;
    return ids;
  }
  // Ordered operators compare numbers: the selected values are a run of
  // the numeric block, which ends at the first non-number.
  const double x = XPathNumber(pred.literal);
  if (std::isnan(x)) return ids;
  auto below = [x](bool or_equal) {
    return [x, or_equal](const std::string& v) {
      const double n = XPathNumber(v);
      return !std::isnan(n) && (n < x || (or_equal && n == x));
    };
  };
  const uint32_t numeric_end = FirstFailing(
      [](const std::string& v) { return !std::isnan(XPathNumber(v)); });
  switch (pred.op) {
    case ValueOp::kLt:
      ids.hi = FirstFailing(below(false));
      break;
    case ValueOp::kLe:
      ids.hi = FirstFailing(below(true));
      break;
    case ValueOp::kGt:
      ids.lo = FirstFailing(below(true));
      ids.hi = numeric_end;
      break;
    case ValueOp::kGe:
      ids.lo = FirstFailing(below(false));
      ids.hi = numeric_end;
      break;
    default:
      break;
  }
  return ids;
}

}  // namespace blas
