#include "service/plan_cache.h"

#include <utility>

namespace blas {

std::shared_ptr<const CachedPlan> CachedQuery::ForDoc(const std::string& doc,
                                                      uint64_t epoch) const {
  MutexLock lock(mu_);
  auto it = per_doc_.find(doc);
  if (it == per_doc_.end() || it->second.epoch != epoch) {
    // Not translated for this generation. The mismatched entry (if any)
    // is left in place: a cursor still draining an older pinned epoch
    // may look it up again, and evicting here would make alternating
    // old/new readers thrash the slot with retranslations.
    return nullptr;
  }
  return it->second.plan;
}

void CachedQuery::PutDoc(const std::string& doc, uint64_t epoch,
                         std::shared_ptr<const CachedPlan> plan) const {
  MutexLock lock(mu_);
  auto [it, inserted] = per_doc_.try_emplace(doc);
  if (inserted || epoch > it->second.epoch) {
    it->second = TaggedPlan{epoch, std::move(plan)};
  }
  // Same-epoch racers: first writer wins (the plans are identical).
  // Older epochs never displace a newer tag — a straggling cursor on a
  // superseded snapshot pays its own translations instead of evicting
  // the plan every current reader uses.
}

void CachedQuery::InvalidateDocument(const std::string& doc) const {
  MutexLock lock(mu_);
  per_doc_.erase(doc);
}

std::shared_ptr<const CachedQuery> PlanCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const CachedQuery> value) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::InvalidateDocument(const std::string& doc) const {
  MutexLock lock(mu_);
  for (const Entry& entry : lru_) entry.value->InvalidateDocument(doc);
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

std::vector<std::string> PlanCache::KeysMruToLru() const {
  MutexLock lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) keys.push_back(entry.key);
  return keys;
}

}  // namespace blas
