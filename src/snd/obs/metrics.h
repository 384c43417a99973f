// Process-wide metrics registry: lock-free atomic counters and gauges
// plus fixed log-bucket latency histograms with interpolated quantile
// estimates, registered by name and snapshotted in one stable
// (lexicographic) order for the `stats` wire request.
//
// Concurrency contract: Register* calls take the registry mutex and
// return pointers that stay valid for the registry's lifetime, so the
// hot path (Counter::Add / Histogram::Record) is a single relaxed
// atomic RMW with no lock.  Snapshot() reads every atom with relaxed
// loads: each row is an un-torn, monotone (for counters) value, but
// rows are not a single consistent cut across metrics — the service
// keeps cross-metric invariants by folding per-request traces only at
// request completion (see obs/trace.h).
#ifndef SND_OBS_METRICS_H_
#define SND_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "snd/util/mutex.h"
#include "snd/util/thread_annotations.h"

namespace snd {
namespace obs {

// A monotone counter. Add with relaxed ordering: counters feed
// observability, not synchronization.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// An instantaneous value: Set publishes a sampled level (last writer
// wins), Add moves an up/down count (open connections) exactly under
// concurrent writers.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed log-2 bucket histogram for non-negative values (nanoseconds in
// practice). Bucket 0 holds exactly {0}; bucket i >= 1 holds
// [2^(i-1), 2^i - 1], so BucketIndex is one bit_width call and Record
// is two relaxed fetch_adds. Quantile(q) walks a snapshot of the
// buckets and interpolates linearly inside the target bucket — an
// estimate with relative error bounded by the bucket width (a factor
// of 2), which is plenty to tell a 2 us warm hit from a 2 ms cold one.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  void Record(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  // q in [0, 1]; returns 0 on an empty histogram.
  int64_t Quantile(double q) const;

  static int BucketIndex(int64_t value);
  static int64_t BucketLowerBound(int bucket);
  static int64_t BucketUpperBound(int bucket);

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// One row of a stable stats snapshot. All wire-visible metric values
// are integral (counts, nanoseconds), so the Stats codecs never format
// doubles.
struct MetricRow {
  std::string name;
  int64_t value = 0;
};

// The value of the row named `name` in a Snapshot() (rows are sorted,
// so this is a binary search). Aborts when the row is missing: callers
// name rows through obs/names.h constants.
int64_t SnapshotValue(const std::vector<MetricRow>& rows,
                      std::string_view name);

// Name-keyed owner of every metric in one service process. Register*
// is get-or-create and idempotent; registering the same name as two
// different metric kinds, or registering a name that is not a
// lowercase dotted identifier, aborts — both are programming errors
// the obs/names.h vocabulary makes impossible.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(std::string_view name) SND_EXCLUDES(mu_);
  Gauge* RegisterGauge(std::string_view name) SND_EXCLUDES(mu_);
  Histogram* RegisterHistogram(std::string_view name) SND_EXCLUDES(mu_);

  // Every registered metric as sorted rows; histograms flatten into
  // <name>.count, <name>.sum_ns and interpolated <name>.p50_ns /
  // .p90_ns / .p99_ns rows.
  std::vector<MetricRow> Snapshot() const SND_EXCLUDES(mu_);

  // Lowercase dotted identifier: [a-z0-9_]+(\.[a-z0-9_]+)+
  static bool IsMetricName(std::string_view name);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void CheckName(std::string_view name, Kind kind) SND_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Kind, std::less<>> kinds_ SND_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      SND_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      SND_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      SND_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace snd

#endif  // SND_OBS_METRICS_H_
