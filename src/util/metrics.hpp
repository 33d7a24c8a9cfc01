// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms with a Prometheus text exposition.
//
// Design constraints (the observability no-perturbation contract,
// ARCHITECTURE.md):
//
//  * Zero heap allocation on the hot path. Call sites register once
//    (typically via a function-local static reference) and then mutate a
//    single relaxed std::atomic per event. Registration is mutex-guarded
//    and may allocate; increments never do.
//  * Out-of-band only. No instrument feeds back into engine decisions, so
//    campaign archives are byte-identical whether or not anything scrapes.
//  * Coarse update sites only. Instruments count scenarios, jobs, units,
//    HTTP requests, shared-cache lookups and fan-out calls — never single
//    evaluations, simulated events or replicates — so they stay on in
//    every build.
//
// Values are double throughout: integer counts stay exact below 2^53 and
// the same instrument type can accumulate seconds (busy time, latency
// sums) without a parallel integer variant.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wsnex::util::metrics {

namespace detail {

/// Relaxed atomic add for doubles via CAS (std::atomic<double>::fetch_add
/// is C++20 but patchy across standard libraries; the loop is equivalent).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonically increasing value. Negative increments are a logic error
/// and are silently dropped (never throws on the hot path).
class Counter {
 public:
  void inc(double delta = 1.0) {
    if (delta < 0.0) return;
    detail::atomic_add(value_, delta);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Instantaneous value that can move both ways (active jobs).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bounds are strictly increasing inclusive upper
/// edges; an implicit +Inf bucket catches the rest. Buckets are stored
/// non-cumulative (one relaxed fetch_add per observation) and accumulated
/// into Prometheus' cumulative form at exposition time.
class Histogram {
 public:
  void observe(double value) {
    std::size_t index = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        index = i;
        break;
      }
    }
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, value);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i`; i == bounds().size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Wall-clock latency edges in seconds: 100µs .. 10s, roughly 1-2.5-5 per
/// decade. Shared by the fan-out, scenario and serve histograms so
/// dashboards can overlay them.
std::vector<double> default_latency_bounds();

/// Bucket-interpolated quantile estimate over a histogram's non-cumulative
/// bucket counts (`buckets.size() == bounds.size() + 1`, the last entry being
/// the implicit +Inf bucket). `q` is clamped to [0, 1]. Linear interpolation
/// inside the bucket holding rank q*count, matching Prometheus'
/// histogram_quantile(): the first bucket interpolates from 0, and ranks
/// landing in the +Inf bucket are clamped to the highest finite edge.
/// Returns NaN when the histogram is empty.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets, double q);

/// Convenience overload reading a live histogram's buckets.
double histogram_quantile(const Histogram& histogram, double q);

/// Find-or-create registry of instruments, grouped into families by metric
/// name. `labels` is a preformatted Prometheus label body without braces
/// (e.g. `route="/v1/jobs",method="POST"`; empty for none); each distinct
/// (name, labels) pair is its own instrument with a stable address —
/// references returned here remain valid for the registry's lifetime.
/// Re-registering a name as a different type, or a histogram with
/// different bounds, throws std::logic_error (it is a programming bug, and
/// is caught at startup because registration happens eagerly).
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// The process-wide registry every built-in instrument lives in.
  static Registry& instance();

  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = std::string());
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = std::string());
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds,
                       const std::string& labels = std::string());

  /// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
  /// header per family, families in first-registration order, histogram
  /// buckets cumulative with an explicit `le="+Inf"`.
  std::string prometheus_text() const;

 private:
  struct Family;
  Family& family_of(const std::string& name, const std::string& help,
                    const char* type);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace wsnex::util::metrics
