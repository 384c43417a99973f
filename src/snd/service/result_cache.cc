#include "snd/service/result_cache.h"

#include <algorithm>

#include "snd/util/check.h"

namespace snd {

ResultCache::ResultCache(size_t capacity, CounterSinks sinks)
    : capacity_(std::max<size_t>(1, capacity)), sinks_(sinks) {
  SND_CHECK(sinks_.hits != nullptr && sinks_.misses != nullptr &&
            sinks_.evictions != nullptr);
}

std::optional<double> ResultCache::Get(const std::string& key) {
  const MutexLock lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    sinks_.misses->Add(1);
    return std::nullopt;
  }
  sinks_.hits->Add(1);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

bool ResultCache::GetAll(const std::vector<std::string>& keys,
                         std::vector<double>* values) {
  const MutexLock lock(mu_);
  std::vector<LruList::iterator> found;
  found.reserve(keys.size());
  for (const std::string& key : keys) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    found.push_back(it->second);
  }
  values->clear();
  values->reserve(found.size());
  for (const LruList::iterator entry : found) {
    lru_.splice(lru_.begin(), lru_, entry);
    values->push_back(entry->second);
  }
  sinks_.hits->Add(static_cast<int64_t>(found.size()));
  return true;
}

void ResultCache::Put(const std::string& key, double value) {
  const MutexLock lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  map_.emplace(key, lru_.begin());
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    sinks_.evictions->Add(1);
  }
}

size_t ResultCache::EraseMatchingPrefix(const std::string& prefix) {
  const MutexLock lock(mu_);
  size_t erased = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      map_.erase(it->first);
      it = lru_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

size_t ResultCache::EraseMatching(
    const std::string& prefix,
    const std::function<bool(const std::string&)>& drop) {
  const MutexLock lock(mu_);
  size_t erased = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.rfind(prefix, 0) == 0 && drop(it->first)) {
      map_.erase(it->first);
      it = lru_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

std::vector<std::string> ResultCache::KeysMatchingPrefix(
    const std::string& prefix) const {
  const MutexLock lock(mu_);
  std::vector<std::string> keys;
  for (const auto& entry : lru_) {
    if (entry.first.rfind(prefix, 0) == 0) keys.push_back(entry.first);
  }
  return keys;
}

size_t ResultCache::size() const {
  const MutexLock lock(mu_);
  return map_.size();
}

}  // namespace snd
