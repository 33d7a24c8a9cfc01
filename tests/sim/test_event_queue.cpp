#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "allocation_counter.hpp"
#include "sim/packet.hpp"

namespace wsnex::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
  EXPECT_DOUBLE_EQ(q.run_next(), 2.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.cancel(id);
  q.cancel(id);
  q.cancel(9999);  // unknown id: no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAlreadyFired) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.run_next();
  q.cancel(id);  // must not corrupt the live count
  EXPECT_TRUE(q.empty());
  int fired = 0;
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule(2.0, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, TombstoneCompactionBoundsPendingEntries) {
  EventQueue q;
  // Schedule far-future events and cancel almost all of them: without
  // compaction the heap would keep every cancelled entry until popped.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.schedule(1e6 + i, [] {}));
  }
  for (int i = 0; i < 9999; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LE(q.pending_entries(), 2 * q.size() + 1);
}

TEST(EventQueue, CompactionBoundHoldsUnderChurn) {
  EventQueue q;
  std::uint64_t fired = 0;
  std::vector<std::uint64_t> ids;
  for (int round = 0; round < 300; ++round) {
    // Schedule a burst, cancel most of it, run a couple of events.
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.schedule(round * 100.0 + i, [&] { ++fired; }));
    }
    for (std::size_t k = ids.size() - 18; k < ids.size(); ++k) {
      q.cancel(ids[k]);
    }
    q.run_next();
    ASSERT_LE(q.pending_entries(), 2 * q.size() + 1);
  }
  EXPECT_GT(fired, 0u);
  // Drain: survivors must still fire in time order.
  SimTime last = 0.0;
  while (!q.empty()) {
    const SimTime t = q.run_next();
    ASSERT_GE(t, last);
    last = t;
  }
}

TEST(EventQueue, CancelledBurstThenDrainRunsSurvivorsInOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(i, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 34u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(3 * k));
  }
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, NoIssuedIdIsZero) {
  EventQueue q;
  std::vector<std::uint64_t> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) ids.push_back(q.schedule(round + i, [] {}));
    q.cancel(ids[ids.size() - 2]);
    q.run_next();
  }
  for (const std::uint64_t id : ids) EXPECT_NE(id, 0u);

  // 0 is the callers' "no event": cancelling it is a no-op even while
  // slot 0 is free.
  EventQueue fresh;
  fresh.schedule(1.0, [] {});
  fresh.run_next();
  fresh.cancel(0);
  EXPECT_TRUE(fresh.empty());
  int fired = 0;
  fresh.schedule(2.0, [&] { ++fired; });
  fresh.cancel(0);
  EXPECT_EQ(fresh.size(), 1u);
  fresh.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleIdCannotCancelReusedSlot) {
  EventQueue q;
  int fired = 0;
  // Fired: the slot is freed and handed to the next event.
  const auto ran = q.schedule(1.0, [] {});
  q.run_next();
  const auto after_run = q.schedule(2.0, [&] { ++fired; });
  ASSERT_EQ(ran & 0xFFFFFFFFu, after_run & 0xFFFFFFFFu);  // same slot
  ASSERT_NE(ran, after_run);
  q.cancel(ran);
  EXPECT_EQ(q.size(), 1u);

  // Cancelled: same story through cancel().
  const auto cancelled = q.schedule(3.0, [] {});
  q.cancel(cancelled);
  const auto after_cancel = q.schedule(4.0, [&] { ++fired; });
  ASSERT_EQ(cancelled & 0xFFFFFFFFu, after_cancel & 0xFFFFFFFFu);
  q.cancel(cancelled);
  EXPECT_EQ(q.size(), 2u);

  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbackCancelsAndGrowsTableKeepingOrder) {
  EventQueue q;
  std::vector<int> order;
  std::uint64_t self = 0;
  std::uint64_t victim = 0;
  // The callback cancels its own (already fired) id and another pending
  // event, then schedules enough events to reallocate the slot table
  // while it is still running.
  self = q.schedule(1.0, [&] {
    order.push_back(0);
    q.cancel(self);
    q.cancel(victim);
    for (int i = 0; i < 64; ++i) {
      q.schedule(2.0 + i % 4, [&order, i] { order.push_back(100 + i); });
    }
  });
  victim = q.schedule(1.5, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });  // ties after `self`
  q.schedule(3.0, [&] { order.push_back(3); });  // before the 3.0 batch
  while (!q.empty()) q.run_next();

  // (at, seq) order: time first, then scheduling order.
  std::vector<int> expected = {0, 2};
  for (int t = 0; t < 4; ++t) {
    if (t == 1) expected.push_back(3);
    for (int i = t; i < 64; i += 4) expected.push_back(100 + i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, RandomChurnMatchesOrderedModelWithinCompactionBound) {
  // Oracle: a std::map keyed by (at, seq) holds the live events; every
  // run_next() must fire the model's first entry. Times come from a
  // small grid so ties are common, and cancels hit random live events so
  // slots are reused in every state.
  EventQueue q;
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> model;
  std::map<std::uint64_t, std::pair<SimTime, std::uint64_t>> key_of;
  std::mt19937_64 rng(2024);
  std::uint64_t seq = 0;
  std::uint64_t last_fired = 0;
  SimTime now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng() % 8;
    if (op < 4 || model.empty()) {
      const SimTime at = now + static_cast<double>(rng() % 5);
      const std::uint64_t tag = seq;
      const std::uint64_t id =
          q.schedule(at, [&last_fired, tag] { last_fired = tag; });
      model.emplace(std::pair{at, seq}, id);
      key_of.emplace(id, std::pair{at, seq});
      ++seq;
    } else if (op < 6) {
      auto it = key_of.begin();
      std::advance(it, static_cast<long>(rng() % key_of.size()));
      q.cancel(it->first);
      model.erase(it->second);
      key_of.erase(it);
    } else {
      const auto first = model.begin();
      ASSERT_EQ(q.next_time(), first->first.first);
      now = q.run_next();
      ASSERT_EQ(last_fired, first->first.second) << "step " << step;
      key_of.erase(first->second);
      model.erase(first);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_LE(q.pending_entries(), 2 * q.size() + 1) << "step " << step;
  }
}

TEST(EventQueue, SteadyStateCyclesDoNotAllocate) {
  // Three schedules, one cancel and two runs per cycle keep the live
  // count flat; callbacks are stored inline in their slots, whatever
  // they capture. Once warm, the heap, slot table and free list have all
  // the room they need.
  EventQueue q;
  std::uint64_t fired = 0;
  SimTime now = 0.0;
  for (int i = 0; i < 16; ++i) q.schedule(4.0 + i, [&fired] { ++fired; });
  const auto cycle = [&] {
    q.schedule(now + 1.0, [&fired] { ++fired; });
    const auto doomed = q.schedule(now + 2.0, [&fired] { ++fired; });
    q.schedule(now + 3.0, [&fired] { ++fired; });
    q.cancel(doomed);
    now = q.run_next();
    now = q.run_next();
  };
  for (int i = 0; i < 1000; ++i) cycle();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) cycle();
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 2u * 101000u);
  EXPECT_EQ(q.size(), 16u);
}

// The closure type's compile-time rule. The simulator's largest capture,
// `[this, frame]`, fits exactly; one byte more does not compile, and
// neither does a capture that is not trivially copyable (a container or
// a type-erased function captured by value would need the heap).
class Relay {
 public:
  auto deliver_later(const Frame& frame) {
    return [this, frame] { last_seq_ = frame.seq; };
  }
  std::uint64_t last_seq() const { return last_seq_; }

 private:
  std::uint64_t last_seq_ = 0;
};
using ThisAndFrame =
    decltype(std::declval<Relay&>().deliver_later(std::declval<Frame>()));
static_assert(sizeof(ThisAndFrame) == kInlineClosureBytes);
static_assert(std::is_constructible_v<EventQueue::Callback, ThisAndFrame>);
static_assert(std::is_trivially_copyable_v<EventQueue::Callback>);

TEST(EventQueue, CallbackTakesOnlySmallTriviallyCopyableClosures) {
  const std::array<std::byte, kInlineClosureBytes> at_capacity{};
  const std::array<std::byte, kInlineClosureBytes + 1> one_byte_over{};
  const std::vector<int> values{1, 2, 3};
  const auto fits = [at_capacity] { return at_capacity.size(); };
  const auto too_big = [one_byte_over] { return one_byte_over.size(); };
  const auto owns_heap = [values] { return values.size(); };
  static_assert(std::is_constructible_v<EventQueue::Callback, decltype(fits)>);
  static_assert(
      !std::is_constructible_v<EventQueue::Callback, decltype(too_big)>);
  static_assert(
      !std::is_constructible_v<EventQueue::Callback, decltype(owns_heap)>);
  EXPECT_EQ(fits(), too_big() - 1);
  EXPECT_EQ(owns_heap(), 3u);

  // The largest capture round-trips through a slot intact.
  EventQueue q;
  Relay relay;
  Frame frame;
  frame.seq = 0x0123456789ABCDEFULL;
  frame.enqueued_at = 2.5;
  q.schedule(1.0, relay.deliver_later(frame));
  q.run_next();
  EXPECT_EQ(relay.last_seq(), frame.seq);
}

}  // namespace
}  // namespace wsnex::sim
