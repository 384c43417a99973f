// Bounded LRU cache mapping request keys to SND values — the layer that
// makes repeated and overlapping service queries (a `series` whose pairs
// are a subset of an earlier `matrix`) cost zero transport/SSSP work.
//
// Keys are opaque strings built by the dispatcher from (graph name,
// graph epoch, states epoch, options signature, state pair); epochs are
// never reused (see session.h), so a stale entry can never be returned —
// eviction exists purely to bound memory. EraseMatchingPrefix lets the
// dispatcher reclaim a reloaded or evicted graph's entries eagerly
// instead of waiting for them to age out.
//
// Thread-safe: every operation takes an internal mutex, so the shared
// service hits one cache from all connections. The lock is held only
// for the map/list manipulation — never across compute — and the cache
// is the innermost lock in the service's ordering (nothing else is
// acquired while it is held). Concurrent misses of one key may both
// compute and Put; compute is deterministic, so both Put the identical
// value and the second simply refreshes the entry.
#ifndef SND_SERVICE_RESULT_CACHE_H_
#define SND_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "snd/obs/metrics.h"
#include "snd/util/mutex.h"
#include "snd/util/thread_annotations.h"

namespace snd {

class ResultCache {
 public:
  // Counter sinks for the cache's hit/miss/eviction accounting. Every
  // sink is required: the service passes its registry-backed
  // snd.cache.result.* counters, so `info`, `stats` and the JSONL events
  // all read the one set of numbers, and the cache keeps no counts of
  // its own. Evictions count capacity evictions only, not
  // invalidations.
  struct CounterSinks {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
  };

  // Capacity in entries, clamped to >= 1. The sinks must outlive the
  // cache.
  ResultCache(size_t capacity, CounterSinks sinks);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The cached value for `key`, touching it most-recently-used; counts a
  // hit or a miss.
  std::optional<double> Get(const std::string& key) SND_EXCLUDES(mu_);

  // All-or-nothing Get over `keys`: when every key is resident, fills
  // `values` in key order and has exactly the effect of Get on each key
  // in turn (touch and hit count) and returns true. Otherwise returns
  // false and changes nothing: no touch, no hit, no miss counted.
  bool GetAll(const std::vector<std::string>& keys,
              std::vector<double>* values) SND_EXCLUDES(mu_);

  // Inserts (or refreshes) `key`, evicting least-recently-used entries
  // over capacity.
  void Put(const std::string& key, double value) SND_EXCLUDES(mu_);

  // Drops every entry whose key starts with `prefix`; returns how many.
  size_t EraseMatchingPrefix(const std::string& prefix) SND_EXCLUDES(mu_);

  // Selective variant for targeted invalidation (graph mutations):
  // drops every entry whose key starts with `prefix` AND for which
  // `drop(key)` returns true; returns how many. `drop` runs under the
  // cache mutex — it must be a pure key predicate, never touching the
  // cache or any outer lock.
  size_t EraseMatching(const std::string& prefix,
                       const std::function<bool(const std::string&)>& drop)
      SND_EXCLUDES(mu_);

  // Every resident key starting with `prefix` (a snapshot; order
  // unspecified). The mutation path lists a signature's keys, decides
  // retention per pair outside the cache lock, then erases the losers
  // via EraseMatching.
  std::vector<std::string> KeysMatchingPrefix(const std::string& prefix)
      const SND_EXCLUDES(mu_);

  size_t size() const SND_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<std::pair<std::string, double>>;

  const size_t capacity_;
  const CounterSinks sinks_;
  mutable Mutex mu_;
  LruList lru_ SND_GUARDED_BY(mu_);  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> map_
      SND_GUARDED_BY(mu_);
};

}  // namespace snd

#endif  // SND_SERVICE_RESULT_CACHE_H_
