#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace wsnex::sim {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
}

TEST(Engine, RunUntilAdvancesClockToEnd) {
  Engine e;
  e.run_until(5.0);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, EventsSeeCorrectNow) {
  Engine e;
  double seen = -1.0;
  e.schedule_in(1.5, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 1.5);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, EventsPastHorizonNotRun) {
  Engine e;
  int fired = 0;
  e.schedule_in(2.0, [&] { ++fired; });
  e.schedule_in(8.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  e.run_until(10.0);  // resumable
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RelativeSchedulingChains) {
  Engine e;
  std::vector<double> times;
  // Event callbacks are trivially copyable closures, so the recursive
  // std::function is captured by reference, not copied in.
  std::function<void()> tick = [&] {
    times.push_back(e.now());
    if (times.size() < 3) e.schedule_in(1.0, [&tick] { tick(); });
  };
  e.schedule_in(1.0, [&tick] { tick(); });
  e.run_until(10.0);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(Engine, CancelScheduledEvent) {
  Engine e;
  int fired = 0;
  const auto id = e.schedule_in(1.0, [&] { ++fired; });
  e.cancel(id);
  e.run_until(5.0);
  EXPECT_EQ(fired, 0);
}

TEST(Engine, AbsoluteScheduling) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(3.25, [&] { seen = e.now(); });
  e.run_until(4.0);
  EXPECT_DOUBLE_EQ(seen, 3.25);
}

TEST(Engine, EventCountAccumulates) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_in(0.1 * i, [] {});
  e.run_until(1.0);
  EXPECT_EQ(e.events_executed(), 7u);
}

}  // namespace
}  // namespace wsnex::sim
