#ifndef TSLRW_OBS_METRICS_H_
#define TSLRW_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tslrw {

/// \brief Monotonic event count. The write path is a single relaxed
/// fetch_add — safe to hit from every worker and request thread.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time level (queue depth, in-flight requests). Unlike a
/// Counter it may go down.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Bounded histogram over uint64 samples with power-of-two buckets.
///
/// Bucket 0 holds the value 0; bucket i >= 1 holds values in
/// [2^(i-1), 2^i - 1]. 65 buckets cover the whole uint64 range, so Observe
/// never allocates: it is three relaxed atomic adds, which keeps it safe on
/// the rewriter's verification hot path.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Observe(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Index of the bucket \p sample lands in (0 for 0, else bit width).
  static size_t BucketIndex(uint64_t sample);
  /// Inclusive [lo, hi] range of values covered by bucket \p i.
  static std::pair<uint64_t, uint64_t> BucketRange(size_t i);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// \brief One histogram's state as read at snapshot time.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Non-empty buckets only, as (bucket index, count), ascending.
  std::vector<std::pair<size_t, uint64_t>> buckets;
};

/// \brief A consistent-enough, sorted read of every registered metric.
///
/// Values are read with relaxed loads, so a snapshot taken while writers
/// are running reflects each metric at *some* recent moment (monotonicity
/// per counter still holds); a snapshot taken at quiescence is exact.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Human-readable `/statsz` style dump, one metric per line, sorted by
  /// name — deterministic for deterministic values.
  std::string ToText() const;
};

/// \brief Names metrics and owns their storage.
///
/// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and
/// is expected at setup time or on first use; the returned pointers are
/// stable for the registry's lifetime, so hot paths cache them and pay
/// only the atomic write. A null registry is always legal at call sites:
/// instrumented code guards with `if (metrics)` or caches null handles.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  /// Shorthand for Snapshot().ToText().
  std::string ToText() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Adds \p delta to the named counter iff \p metrics is non-null.
inline void CountIf(MetricRegistry* metrics, std::string_view name,
                    uint64_t delta = 1) {
  if (metrics != nullptr && delta != 0) {
    metrics->GetCounter(name)->Increment(delta);
  }
}

/// Observes \p sample in the named histogram iff \p metrics is non-null.
inline void ObserveIf(MetricRegistry* metrics, std::string_view name,
                      uint64_t sample) {
  if (metrics != nullptr) metrics->GetHistogram(name)->Observe(sample);
}

}  // namespace tslrw

#endif  // TSLRW_OBS_METRICS_H_
