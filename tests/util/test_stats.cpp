#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/random.hpp"

namespace wsnex::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0, -3.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), sample_stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sum(), 28.0, 1e-12);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(1);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(RunningStats, Reset) {
  RunningStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, MeanEmpty) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, SampleStddevUsesNMinus1) {
  const std::vector<double> xs{2.0, 4.0};  // mean 3, ss 2 -> var 2, sd sqrt2
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Stats, SampleStddevDegenerate) {
  EXPECT_EQ(sample_stddev({}), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_EQ(sample_stddev(one), 0.0);
}

TEST(Stats, PopulationVsSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_LT(population_stddev(xs), sample_stddev(xs));
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
}

TEST(Stats, PercentileSortedMatchesPercentile) {
  const std::vector<double> xs{0.7, 0.1, 0.9, 0.3, 0.3, 0.5, 0.2};
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 12.5, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile_sorted(sorted, p), percentile(xs, p)) << p;
  }
  EXPECT_EQ(percentile_sorted(sorted, 100.0), max_value(xs));
  EXPECT_EQ(percentile_sorted({}, 95.0), 0.0);

  // Selection must return the very bits a full sort gives: on sizes 0, 1
  // and 2 and on random samples drawn from a few values, so ties are
  // everywhere, both one p at a time (percentile) and several in turn on
  // one reordered span (percentile_select, as the validation does).
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(19);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n =
        trial < 3 ? static_cast<std::size_t>(trial)
                  : static_cast<std::size_t>(rng.uniform_int(3, 400));
    std::vector<double> sample(n);
    for (double& x : sample) {
      x = 0.125 * static_cast<double>(rng.uniform_int(-4, 12)) +
          (rng.uniform01() < 0.1 ? rng.uniform01() : 0.0);
    }
    std::vector<double> ordered = sample;
    std::sort(ordered.begin(), ordered.end());
    std::vector<double> selected = sample;
    for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      const double expected = percentile_sorted(ordered, p);
      EXPECT_EQ(bits(percentile(sample, p)), bits(expected))
          << "n=" << n << " p=" << p;
      EXPECT_EQ(bits(percentile_select(selected, p)), bits(expected))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Stats, Rms) {
  const std::vector<double> xs{3.0, 4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
  EXPECT_EQ(rms({}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_EQ(min_value(xs), -1.0);
  EXPECT_EQ(max_value(xs), 7.0);
}

TEST(Stats, PercentErrors) {
  const std::vector<double> ref{100.0, 200.0};
  const std::vector<double> est{101.0, 196.0};
  EXPECT_NEAR(mean_abs_percent_error(ref, est), 1.5, 1e-12);
  EXPECT_NEAR(max_abs_percent_error(ref, est), 2.0, 1e-12);
}

TEST(Stats, PercentErrorsSkipZeroReference) {
  const std::vector<double> ref{0.0, 100.0};
  const std::vector<double> est{5.0, 110.0};
  EXPECT_NEAR(mean_abs_percent_error(ref, est), 10.0, 1e-12);
}

TEST(Stats, HistogramBucketsAndClamping) {
  const std::vector<double> xs{-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -1 clamps into bucket 0; 0.1 in bucket 0
  EXPECT_EQ(h[1], 3u);  // 0.5, 0.9, and 2.0 clamped
}

class WelfordSweep : public ::testing::TestWithParam<int> {};

TEST_P(WelfordSweep, StableForLargeOffsets) {
  // Welford must not lose precision when values sit on a huge offset.
  const double offset = std::pow(10.0, GetParam());
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    const double x = offset + i % 5;
    s.add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(s.stddev(), sample_stddev(xs), 1e-6 * s.stddev() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Offsets, WelfordSweep, ::testing::Values(0, 3, 6, 9));

// ---------------------------------------------------------------------------
// Student-t confidence intervals (the Monte Carlo validation primitive).

TEST(ConfidenceInterval, MatchesTabulatedCriticalValues) {
  // half_width = t_{n-1, 0.975} * s / sqrt(n) against standard tables.
  const auto ci2 = confidence_interval(2, 10.0, 1.0, 0.95);
  EXPECT_NEAR(ci2.half_width, 12.7062 / std::sqrt(2.0), 1e-9);
  const auto ci10 = confidence_interval(10, 10.0, 1.0, 0.95);
  EXPECT_NEAR(ci10.half_width, 2.2622 / std::sqrt(10.0), 1e-9);
  const auto ci30 = confidence_interval(30, 10.0, 1.0, 0.95);
  EXPECT_NEAR(ci30.half_width, 2.0452 / std::sqrt(30.0), 1e-9);
  EXPECT_NEAR(ci10.lo, 10.0 - ci10.half_width, 1e-12);
  EXPECT_NEAR(ci10.hi, 10.0 + ci10.half_width, 1e-12);
}

TEST(ConfidenceInterval, SmallNEdgeCases) {
  // n = 2..30 walks the whole table: half-width (at fixed stddev) must be
  // positive, finite and strictly decreasing in n — both the t quantile
  // and the 1/sqrt(n) factor shrink.
  double previous = std::numeric_limits<double>::infinity();
  for (std::size_t n = 2; n <= 30; ++n) {
    const auto ci = confidence_interval(n, 0.0, 1.0, 0.95);
    EXPECT_GT(ci.half_width, 0.0) << n;
    EXPECT_TRUE(std::isfinite(ci.half_width)) << n;
    EXPECT_LT(ci.half_width, previous) << n;
    previous = ci.half_width;
  }
}

TEST(ConfidenceInterval, WiderLevelsGiveWiderIntervals) {
  for (std::size_t n : {2u, 5u, 17u, 30u, 100u}) {
    const double w90 = confidence_interval(n, 0.0, 1.0, 0.90).half_width;
    const double w95 = confidence_interval(n, 0.0, 1.0, 0.95).half_width;
    const double w99 = confidence_interval(n, 0.0, 1.0, 0.99).half_width;
    EXPECT_LT(w90, w95) << n;
    EXPECT_LT(w95, w99) << n;
  }
}

TEST(ConfidenceInterval, LargeNUsesNormalTail) {
  const auto ci = confidence_interval(1000, 5.0, 2.0, 0.95);
  EXPECT_NEAR(ci.half_width, 1.96 * 2.0 / std::sqrt(1000.0), 1e-9);
  // The df=30 table entry bounds the normal quantile from above, so the
  // transition at df > 30 never widens the interval.
  EXPECT_LT(confidence_interval(32, 0.0, 1.0, 0.95).half_width * std::sqrt(32.0),
            confidence_interval(31, 0.0, 1.0, 0.95).half_width *
                std::sqrt(31.0) + 1e-9);
}

TEST(ConfidenceInterval, DegenerateCounts) {
  EXPECT_TRUE(std::isinf(confidence_interval(0, 1.0, 1.0).half_width));
  EXPECT_TRUE(std::isinf(confidence_interval(1, 1.0, 1.0).half_width));
  // Zero spread collapses the interval onto the mean for any real count.
  const auto ci = confidence_interval(8, 3.5, 0.0);
  EXPECT_DOUBLE_EQ(ci.lo, 3.5);
  EXPECT_DOUBLE_EQ(ci.hi, 3.5);
}

TEST(ConfidenceInterval, RejectsUnsupportedLevels) {
  EXPECT_THROW(confidence_interval(10, 0.0, 1.0, 0.80), std::invalid_argument);
  EXPECT_THROW(confidence_interval(10, 0.0, 1.0, 0.999), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RunningStats::merge audit: split-and-merge must agree with bulk
// accumulation for every split of n = 2..30 samples, so per-replicate
// statistics can be combined without reordering artifacts (the property
// percentile-style aggregation across replicates leans on).

TEST(RunningStatsMerge, SplitMergeMatchesBulkForAllSmallN) {
  Rng rng(2024);
  for (std::size_t n = 2; n <= 30; ++n) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(rng.normal(5.0, 3.0));
    }
    RunningStats bulk;
    for (double x : samples) bulk.add(x);
    for (std::size_t split = 0; split <= n; ++split) {
      RunningStats left, right;
      for (std::size_t i = 0; i < split; ++i) left.add(samples[i]);
      for (std::size_t i = split; i < n; ++i) right.add(samples[i]);
      RunningStats merged = left;
      merged.merge(right);
      EXPECT_EQ(merged.count(), bulk.count()) << n << "/" << split;
      EXPECT_NEAR(merged.mean(), bulk.mean(), 1e-12) << n << "/" << split;
      EXPECT_NEAR(merged.variance(), bulk.variance(), 1e-10)
          << n << "/" << split;
      EXPECT_DOUBLE_EQ(merged.min(), bulk.min()) << n << "/" << split;
      EXPECT_DOUBLE_EQ(merged.max(), bulk.max()) << n << "/" << split;
    }
  }
}

TEST(RunningStatsMerge, MergeFeedsConfidenceInterval) {
  // The validation pipeline's exact composition: accumulate replicate
  // metrics in two halves, merge, then build the CI — identical to the
  // single-pass interval.
  std::vector<double> values = {1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.15, 0.85};
  RunningStats all, a, b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.add(values[i]);
    (i < 4 ? a : b).add(values[i]);
  }
  a.merge(b);
  const auto merged_ci =
      confidence_interval(a.count(), a.mean(), a.stddev(), 0.95);
  const auto bulk_ci =
      confidence_interval(all.count(), all.mean(), all.stddev(), 0.95);
  EXPECT_NEAR(merged_ci.lo, bulk_ci.lo, 1e-12);
  EXPECT_NEAR(merged_ci.hi, bulk_ci.hi, 1e-12);
}

}  // namespace
}  // namespace wsnex::util
