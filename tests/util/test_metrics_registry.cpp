// util::metrics semantics: instrument arithmetic, registration contracts
// (stable references, type/bounds mismatch as logic errors), Prometheus
// text exposition shape, and a multi-thread hammer with a concurrent
// scraper (the TSan job runs this file).
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wsnex::util::metrics {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(Counter, AccumulatesAndDropsNegativeDeltas) {
  Registry registry;
  Counter& c = registry.counter("events_total", "Events.");
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_EQ(c.value(), 3.5);
  c.inc(-1.0);  // logic error, silently dropped — counters are monotone
  EXPECT_EQ(c.value(), 3.5);
}

TEST(Gauge, MovesBothWays) {
  Registry registry;
  Gauge& g = registry.gauge("depth", "Queue depth.");
  g.set(4.0);
  g.add(-1.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(0.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(HistogramTest, ObservationsLandInInclusiveUpperEdgeBuckets) {
  Registry registry;
  Histogram& h = registry.histogram("lat", "Latency.", {0.1, 1.0, 10.0});
  h.observe(0.1);    // inclusive: lands in the 0.1 bucket
  h.observe(0.05);   // 0.1 bucket
  h.observe(0.5);    // 1.0 bucket
  h.observe(100.0);  // +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // bounds().size() == +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 100.65);
}

TEST(QuantileTest, InterpolatesInsideTheRankBucket) {
  // 10 observations in (0, 1], 10 in (1, 2]: the median sits exactly at
  // the 1.0 edge and p75 halfway through the second bucket.
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{10, 10, 0};
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.75), 1.5);
  // First bucket interpolates from 0 (no lower edge).
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 1.0), 2.0);
}

TEST(QuantileTest, InfBucketClampsToHighestFiniteEdge) {
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{1, 1, 8};  // 80% beyond 2.0
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.99), 2.0);
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 0.5), 2.0);
}

TEST(QuantileTest, EmptyHistogramIsNaNAndQIsClamped) {
  const std::vector<double> bounds{1.0};
  EXPECT_TRUE(std::isnan(bucket_quantile(bounds, {0, 0}, 0.5)));
  const std::vector<std::uint64_t> buckets{4, 0};
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, -1.0),
                   bucket_quantile(bounds, buckets, 0.0));
  EXPECT_DOUBLE_EQ(bucket_quantile(bounds, buckets, 2.0),
                   bucket_quantile(bounds, buckets, 1.0));
}

TEST(QuantileTest, LiveHistogramOverloadTracksObservations) {
  Registry registry;
  Histogram& h = registry.histogram("q_lat", "Latency.",
                                    {0.1, 0.5, 1.0, 5.0});
  EXPECT_TRUE(std::isnan(histogram_quantile(h, 0.5)));
  // 90 fast observations, 10 slow: p50 in the first bucket, p95 past 1.0.
  for (int i = 0; i < 90; ++i) h.observe(0.05);
  for (int i = 0; i < 10; ++i) h.observe(2.0);
  const double p50 = histogram_quantile(h, 0.50);
  const double p95 = histogram_quantile(h, 0.95);
  const double p99 = histogram_quantile(h, 0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.1);
  EXPECT_GT(p95, 1.0);
  EXPECT_LE(p95, 5.0);
  EXPECT_GE(p99, p95);  // quantiles are monotone in q
}

TEST(RegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("hits_total", "Hits.");
  Counter& b = registry.counter("hits_total", "Hits.");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      registry.counter("hits_total", "Hits.", "table=\"app\"");
  EXPECT_NE(&a, &labeled);
  a.inc();
  EXPECT_EQ(b.value(), 1.0);
  EXPECT_EQ(labeled.value(), 0.0);
}

TEST(RegistryTest, PrometheusTextHasHelpTypeAndSamples) {
  Registry registry;
  registry.counter("requests_total", "Requests.", "route=\"/healthz\"").inc(2);
  registry.gauge("active_jobs", "Active jobs.").set(3.0);
  Histogram& h =
      registry.histogram("request_seconds", "Latency.", {0.5, 1.0});
  h.observe(0.25);
  h.observe(2.0);

  const std::string text = registry.prometheus_text();
  EXPECT_TRUE(contains(text, "# HELP requests_total Requests.\n"));
  EXPECT_TRUE(contains(text, "# TYPE requests_total counter\n"));
  EXPECT_TRUE(contains(text, "requests_total{route=\"/healthz\"} 2\n"));
  EXPECT_TRUE(contains(text, "# TYPE active_jobs gauge\n"));
  EXPECT_TRUE(contains(text, "active_jobs 3\n"));
  EXPECT_TRUE(contains(text, "# TYPE request_seconds histogram\n"));
  // Buckets are cumulative in the exposition even though storage is not.
  EXPECT_TRUE(contains(text, "request_seconds_bucket{le=\"0.5\"} 1\n"));
  EXPECT_TRUE(contains(text, "request_seconds_bucket{le=\"1\"} 1\n"));
  EXPECT_TRUE(contains(text, "request_seconds_bucket{le=\"+Inf\"} 2\n"));
  EXPECT_TRUE(contains(text, "request_seconds_sum 2.25\n"));
  EXPECT_TRUE(contains(text, "request_seconds_count 2\n"));
}

TEST(RegistryTest, HammeredFromManyThreadsWhileScraping) {
  Registry registry;
  Counter& counter = registry.counter("hammer_total", "Hammer.");
  Gauge& gauge = registry.gauge("hammer_depth", "Depth.");
  Histogram& histogram =
      registry.histogram("hammer_seconds", "Latency.", {0.25, 0.5, 0.75});

  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = registry.prometheus_text();
      EXPECT_TRUE(contains(text, "hammer_total"));
      // New registrations racing the scrape must also be safe.
      registry.counter("late_total", "Registered mid-scrape.").inc();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.inc();
        gauge.add(t % 2 == 0 ? 1.0 : -1.0);
        histogram.observe(static_cast<double>(i % 4) / 4.0);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(counter.value(), static_cast<double>(kThreads * kIters));
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RegistryTest, TypeMismatchThrows) {
  Registry registry;
  registry.counter("shape_total", "Shape.");
  EXPECT_THROW(registry.gauge("shape_total", "Shape."), std::logic_error);
  EXPECT_THROW(registry.histogram("shape_total", "Shape.", {1.0}),
               std::logic_error);
}

TEST(RegistryTest, HistogramBoundsMismatchThrows) {
  Registry registry;
  registry.histogram("lat", "Latency.", {0.5, 1.0}, "a=\"1\"");
  EXPECT_THROW(registry.histogram("lat", "Latency.", {0.5, 2.0}, "a=\"2\""),
               std::logic_error);
  // Same bounds for a new series is fine.
  EXPECT_NO_THROW(registry.histogram("lat", "Latency.", {0.5, 1.0}, "a=\"2\""));
}

TEST(RegistryTest, NonIncreasingBoundsThrow) {
  Registry registry;
  EXPECT_THROW(registry.histogram("bad", "Bad.", {1.0, 1.0}),
               std::logic_error);
  EXPECT_THROW(registry.histogram("bad2", "Bad.", {2.0, 1.0}),
               std::logic_error);
}

TEST(DefaultLatencyBounds, AreStrictlyIncreasingSubSecondToTens) {
  const std::vector<double> bounds = default_latency_bounds();
  ASSERT_GE(bounds.size(), 8u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-3);
  EXPECT_GE(bounds.back(), 1.0);
}

TEST(RegistryTest, SingletonIsOneObject) {
  EXPECT_EQ(&Registry::instance(), &Registry::instance());
}

}  // namespace
}  // namespace wsnex::util::metrics
