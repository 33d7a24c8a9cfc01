// Descriptive statistics used throughout the experiment harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wsnex::util {

/// Streaming accumulator for mean / variance (Welford's algorithm).
///
/// Numerically stable for long accumulations; used by the packet simulator
/// to track per-flow latency without storing every sample.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  /// Sample standard deviation (n-1 denominator).
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided confidence interval around a sample mean.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double half_width = 0.0;  ///< t * stddev / sqrt(n)
};

/// Student-t confidence interval for the mean of `count` i.i.d. samples
/// with the given sample mean and (n-1)-denominator standard deviation.
/// `level` must be one of 0.90, 0.95 or 0.99 (throws std::invalid_argument
/// otherwise): the critical values come from a small-n table (df 1..30)
/// with the normal tail quantile beyond df 30, which is what replicated
/// Monte Carlo validation needs — not a general inverse-CDF.
/// count < 2 yields an infinite half-width (one sample carries no spread
/// information); callers should treat that as "no confidence".
ConfidenceInterval confidence_interval(std::size_t count, double mean,
                                       double stddev, double level = 0.95);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation with the n-1 denominator, exactly as used by
/// the network-balance term of Eq. 8 in the paper; 0 when size < 2.
double sample_stddev(std::span<const double> xs);

/// Population standard deviation (n denominator); 0 for an empty span.
double population_stddev(std::span<const double> xs);

/// Linearly interpolated percentile, p in [0, 100]: percentile_select()
/// on a copy of `xs`.
double percentile(std::span<const double> xs, double p);

/// percentile() of values already sorted ascending: no copy, no
/// reordering.
double percentile_sorted(std::span<const double> sorted, double p);

/// percentile() by selection in place: reorders `xs` with one
/// std::nth_element, then takes the minimum of the part above it for the
/// interpolation's upper neighbour — O(n) instead of a sort. Returns the
/// same double as percentile_sorted() of the sorted values, so several
/// percentiles of one sample may be selected from the same span in turn.
double percentile_select(std::span<double> xs, double p);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Root-mean-square of xs; 0 for an empty span.
double rms(std::span<const double> xs);

/// Mean absolute percentage error of `estimate` against `reference`,
/// in percent. Entries where the reference is 0 are skipped.
double mean_abs_percent_error(std::span<const double> reference,
                              std::span<const double> estimate);

/// Maximum absolute percentage error, in percent (same skipping rule).
double max_abs_percent_error(std::span<const double> reference,
                             std::span<const double> estimate);

/// Equal-width histogram over [lo, hi] with `bins` buckets. Values outside
/// the range are clamped into the first/last bucket.
std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins);

}  // namespace wsnex::util
