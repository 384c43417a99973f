#include "snd/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace snd {
namespace obs {

void Histogram::Record(int64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value < 0 ? 0 : value, std::memory_order_relaxed);
}

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return width < kNumBuckets ? width : kNumBuckets - 1;
}

int64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kNumBuckets - 1) {
    // The overflow bucket is open-ended; report its lower bound so the
    // estimate stays finite and monotone in q.
    return int64_t{1} << (kNumBuckets - 2);
  }
  return (int64_t{1} << bucket) - 1;
}

int64_t Histogram::Quantile(double q) const {
  // Copy the buckets once so the walk is over one self-consistent
  // array even while writers keep recording.
  int64_t local[kNumBuckets];
  int64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    total += local[i];
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (local[i] == 0) continue;
    const double next = cumulative + static_cast<double>(local[i]);
    if (next >= target) {
      // Interpolate linearly inside the bucket by rank.
      const double frac =
          local[i] == 0
              ? 0.0
              : std::clamp((target - cumulative) /
                               static_cast<double>(local[i]),
                           0.0, 1.0);
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i));
      return static_cast<int64_t>(std::llround(lo + frac * (hi - lo)));
    }
    cumulative = next;
  }
  return BucketUpperBound(kNumBuckets - 1);
}

bool MetricsRegistry::IsMetricName(std::string_view name) {
  if (name.empty()) return false;
  int dots = 0;
  bool token_char_seen = false;
  for (const char c : name) {
    if (c == '.') {
      if (!token_char_seen) return false;  // empty token
      ++dots;
      token_char_seen = false;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    token_char_seen = true;
  }
  return token_char_seen && dots >= 1;
}

void MetricsRegistry::CheckName(std::string_view name, Kind kind) {
  if (!IsMetricName(name)) {
    std::fprintf(stderr,
                 "snd::obs: metric name '%.*s' is not a lowercase dotted "
                 "identifier (register names via src/snd/obs/names.h)\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  const auto [it, inserted] = kinds_.emplace(std::string(name), kind);
  if (!inserted && it->second != kind) {
    std::fprintf(stderr,
                 "snd::obs: metric '%.*s' registered as two different "
                 "kinds\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
}

Counter* MetricsRegistry::RegisterCounter(std::string_view name) {
  MutexLock lock(mu_);
  CheckName(name, Kind::kCounter);
  auto& slot = counters_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::RegisterGauge(std::string_view name) {
  MutexLock lock(mu_);
  CheckName(name, Kind::kGauge);
  auto& slot = gauges_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::RegisterHistogram(std::string_view name) {
  MutexLock lock(mu_);
  CheckName(name, Kind::kHistogram);
  auto& slot = histograms_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricRow> MetricsRegistry::Snapshot() const {
  std::vector<MetricRow> rows;
  {
    MutexLock lock(mu_);
    rows.reserve(counters_.size() + gauges_.size() + 5 * histograms_.size());
    for (const auto& [name, counter] : counters_) {
      rows.push_back({name, counter->Value()});
    }
    for (const auto& [name, gauge] : gauges_) {
      rows.push_back({name, gauge->Value()});
    }
    for (const auto& [name, histogram] : histograms_) {
      rows.push_back({name + ".count", histogram->Count()});
      rows.push_back({name + ".p50_ns", histogram->Quantile(0.50)});
      rows.push_back({name + ".p90_ns", histogram->Quantile(0.90)});
      rows.push_back({name + ".p99_ns", histogram->Quantile(0.99)});
      rows.push_back({name + ".sum_ns", histogram->Sum()});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return rows;
}

int64_t SnapshotValue(const std::vector<MetricRow>& rows,
                      std::string_view name) {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const MetricRow& row, std::string_view key) {
        return row.name < key;
      });
  if (it == rows.end() || it->name != name) {
    std::fprintf(stderr, "snd::obs: no metric row '%.*s' in the snapshot\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  return it->value;
}

}  // namespace obs
}  // namespace snd
