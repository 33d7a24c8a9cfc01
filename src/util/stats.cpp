#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wsnex::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double RunningStats::sum() const {
  return mean_ * static_cast<double>(count_);
}

namespace {

/// Two-sided Student-t critical values t_{df, 1 - alpha/2} for df 1..30,
/// plus the limiting normal quantile, at the three levels replicated
/// experiments actually report. Values from standard tables, 4 decimals.
struct TTable {
  double level;
  double critical[30];  ///< df = 1..30
  double normal_tail;   ///< df -> infinity
};

constexpr TTable kTTables[] = {
    {0.90,
     {6.3138, 2.9200, 2.3534, 2.1318, 2.0150, 1.9432, 1.8946, 1.8595,
      1.8331, 1.8125, 1.7959, 1.7823, 1.7709, 1.7613, 1.7531, 1.7459,
      1.7396, 1.7341, 1.7291, 1.7247, 1.7207, 1.7171, 1.7139, 1.7109,
      1.7081, 1.7056, 1.7033, 1.7011, 1.6991, 1.6973},
     1.6449},
    {0.95,
     {12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
      2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
      2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
      2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423},
     1.9600},
    {0.99,
     {63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
      3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
      2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
      2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500},
     2.5758},
};

}  // namespace

ConfidenceInterval confidence_interval(std::size_t count, double mean,
                                       double stddev, double level) {
  const TTable* table = nullptr;
  for (const TTable& t : kTTables) {
    if (std::abs(t.level - level) < 1e-9) table = &t;
  }
  if (table == nullptr) {
    throw std::invalid_argument(
        "confidence_interval: level must be 0.90, 0.95 or 0.99");
  }
  if (count < 2) {
    const double inf = std::numeric_limits<double>::infinity();
    return {-inf, inf, inf};
  }
  const std::size_t df = count - 1;
  const double t =
      df <= 30 ? table->critical[df - 1] : table->normal_tail;
  const double half =
      t * stddev / std::sqrt(static_cast<double>(count));
  return {mean - half, mean + half, half};
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double population_stddev(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

namespace {

/// Where percentile p falls among n >= 2 order statistics: between the
/// lo-th and the next one, `frac` of the way up. Shared by the sorted and
/// the selecting reader so both interpolate the same two values alike.
struct PercentileRank {
  std::size_t lo;
  double frac;
};

PercentileRank percentile_rank(std::size_t n, double p) {
  assert(p >= 0.0 && p <= 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, rank - static_cast<double>(lo)};
}

}  // namespace

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  return percentile_select(copy, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const PercentileRank r = percentile_rank(sorted.size(), p);
  const std::size_t hi = std::min(r.lo + 1, sorted.size() - 1);
  return sorted[r.lo] + r.frac * (sorted[hi] - sorted[r.lo]);
}

double percentile_select(std::span<double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs.front();
  const PercentileRank r = percentile_rank(xs.size(), p);
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(xs.begin(), nth, xs.end());
  // Everything after `nth` is now >= it, so the next order statistic is
  // the minimum of that part (or `nth` itself when it is the largest).
  const double lo = *nth;
  const double hi =
      nth + 1 == xs.end() ? lo : *std::min_element(nth + 1, xs.end());
  return lo + r.frac * (hi - lo);
}

double min_value(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double rms(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double mean_abs_percent_error(std::span<const double> reference,
                              std::span<const double> estimate) {
  assert(reference.size() == estimate.size());
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] == 0.0) continue;
    acc += std::abs((estimate[i] - reference[i]) / reference[i]);
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * acc / static_cast<double>(n);
}

double max_abs_percent_error(std::span<const double> reference,
                             std::span<const double> estimate) {
  assert(reference.size() == estimate.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] == 0.0) continue;
    worst = std::max(worst,
                     std::abs((estimate[i] - reference[i]) / reference[i]));
  }
  return 100.0 * worst;
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  assert(bins > 0 && hi > lo);
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto bin = static_cast<std::ptrdiff_t>((x - lo) / width);
    bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                     static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

}  // namespace wsnex::util
