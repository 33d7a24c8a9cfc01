// EventRing: the bounded, mutex-guarded broadcast buffer under the
// serve-layer event streams and progress telemetry. The tests pin the
// contract the readers rely on — globally monotone sequence numbers,
// loss-with-accounting on wrap, generation events that never evict a
// lifecycle event, whole events under concurrent writers — and the JSONL
// wire schema the CLI and CI smoke checks parse.
#include "util/events.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "event_json_reference.hpp"
#include "util/json.hpp"

namespace events = wsnex::util::events;
using events::Event;
using events::EventRing;
using events::Kind;
using events::make_event;

namespace {

TEST(EventRingTest, PublishAssignsMonotoneSequenceFromOne) {
  EventRing ring(8);
  EXPECT_EQ(ring.last_seq(), 0u);
  EXPECT_EQ(ring.publish(make_event(Kind::kJobQueued, "j", "", "")), 1u);
  EXPECT_EQ(ring.publish(make_event(Kind::kJobStarted, "j", "", "")), 2u);
  EXPECT_EQ(ring.last_seq(), 2u);
}

TEST(EventRingTest, ReadSinceReturnsOnlyNewerEventsInOrder) {
  EventRing ring(16);
  for (int i = 0; i < 5; ++i) {
    ring.publish(make_event(Kind::kGeneration, "job", "scen",
                            std::string("d").append(std::to_string(i))));
  }
  std::vector<Event> out;
  std::uint64_t dropped = 99;
  const std::uint64_t next = ring.read_since(2, out, &dropped);
  EXPECT_EQ(next, 5u);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[1].seq, 4u);
  EXPECT_EQ(out[2].seq, 5u);
  EXPECT_STREQ(out[0].job, "job");
  EXPECT_STREQ(out[0].scenario, "scen");
  EXPECT_STREQ(out[0].detail, "d2");
}

TEST(EventRingTest, EmptyReadKeepsCursor) {
  EventRing ring(8);
  ring.publish(make_event(Kind::kJobQueued, "j", "", ""));
  std::vector<Event> out;
  EXPECT_EQ(ring.read_since(1, out), 1u);
  EXPECT_TRUE(out.empty());
  // A cursor beyond last_seq also stays put instead of going backwards.
  EXPECT_EQ(ring.read_since(7, out), 7u);
  EXPECT_EQ(ring.read_since(std::numeric_limits<std::uint64_t>::max(), out),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(out.empty());
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(3).capacity(), 4u);
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(9).capacity(), 16u);
  EXPECT_GE(EventRing(0).capacity(), 1u);
}

TEST(EventRingTest, OverflowDropsOldestAndAccountsForThem) {
  EventRing ring(4);  // capacity 4
  for (int i = 0; i < 10; ++i) {
    ring.publish(make_event(Kind::kUnitFinished, "j", "", ""));
  }
  std::vector<Event> out;
  std::uint64_t dropped = 0;
  const std::uint64_t next = ring.read_since(0, out, &dropped);
  EXPECT_EQ(next, 10u);
  EXPECT_EQ(dropped, 6u);  // seq 1..6 overwritten
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().seq, 7u);
  EXPECT_EQ(out.back().seq, 10u);
  // A reader whose cursor is inside the retained window loses nothing.
  out.clear();
  dropped = 99;
  ring.read_since(8, out, &dropped);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(out.size(), 2u);
}

// A ring of several segments wraps like a single-segment one: the reader
// sees the newest `capacity` events in order and counts the rest dropped.
TEST(EventRingTest, WrapAcrossSegmentsKeepsTheNewestInOrder) {
  EventRing ring(2 * EventRing::kSegmentSlots);
  const std::uint64_t capacity = ring.capacity();
  const std::uint64_t total = 2 * capacity + 7;
  for (std::uint64_t i = 1; i <= total; ++i) {
    ring.publish(make_event(Kind::kGeneration, "j", "", std::to_string(i)));
  }
  std::vector<Event> out;
  std::uint64_t dropped = 0;
  EXPECT_EQ(ring.read_since(0, out, &dropped), total);
  EXPECT_EQ(dropped, total - capacity);
  ASSERT_EQ(out.size(), capacity);
  for (std::uint64_t k = 0; k < capacity; ++k) {
    const std::uint64_t seq = total - capacity + 1 + k;
    EXPECT_EQ(out[k].seq, seq);
    EXPECT_EQ(std::string(out[k].detail), std::to_string(seq));
  }
  // A fresh ring reads its first segment without touching the others.
  EventRing fresh(1024);
  fresh.publish(make_event(Kind::kJobQueued, "j", "", ""));
  out.clear();
  EXPECT_EQ(fresh.read_since(0, out, &dropped), 1u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(fresh.wait_for(1, 0.0));
}

// Generation events wrap in a lane of their own: a flood of them drops
// the oldest snapshots and keeps every lifecycle event, and the reader
// still gets one stream in sequence order.
TEST(EventRingTest, GenerationFloodKeepsEveryLifecycleEvent) {
  EventRing ring(8);
  ring.publish(make_event(Kind::kJobQueued, "j", "", ""));
  ring.publish(make_event(Kind::kJobStarted, "j", "", ""));
  for (int i = 0; i < 30; ++i) {
    ring.publish(make_event(Kind::kGeneration, "j", "s", ""));
  }
  ring.publish(make_event(Kind::kJobFinished, "j", "", ""));
  std::vector<Event> out;
  std::uint64_t dropped = 0;
  EXPECT_EQ(ring.read_since(0, out, &dropped), 33u);
  EXPECT_EQ(dropped, 22u);  // generation seqs 3..24
  std::vector<std::uint64_t> seqs;
  for (const Event& event : out) seqs.push_back(event.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 25, 26, 27, 28, 29, 30,
                                              31, 32, 33}));
  ASSERT_EQ(out.size(), 11u);
  EXPECT_EQ(out[0].kind, Kind::kJobQueued);
  EXPECT_EQ(out[1].kind, Kind::kJobStarted);
  EXPECT_EQ(out[2].kind, Kind::kGeneration);
  EXPECT_EQ(out[10].kind, Kind::kJobFinished);
}

TEST(EventRingTest, StringFieldsTruncateNotOverflow) {
  EventRing ring(4);
  const std::string long_name(500, 'x');
  const Event event =
      make_event(Kind::kJobQueued, long_name, long_name, long_name);
  EXPECT_EQ(std::strlen(event.job), sizeof(event.job) - 1);
  EXPECT_EQ(std::strlen(event.scenario), sizeof(event.scenario) - 1);
  EXPECT_EQ(std::strlen(event.detail), sizeof(event.detail) - 1);
  ring.publish(event);
  std::vector<Event> out;
  ring.read_since(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::strlen(out[0].job), sizeof(out[0].job) - 1);
}

// Many writers hammer a deliberately tiny ring while readers poll with a
// moving cursor: every event a reader sees must be well-formed (valid kind,
// self-consistent payload) and sequences must be strictly increasing per
// read — a slot is never read half-written.
TEST(EventRingTest, ConcurrentWritersNeverSurfaceTornEvents) {
  EventRing ring(8);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &start, w] {
      while (!start.load()) {
      }
      const std::string tag = "writer" + std::to_string(w);
      for (int i = 0; i < kPerWriter; ++i) {
        Event event = make_event(Kind::kGeneration, tag, tag, tag);
        event.generation = static_cast<std::uint64_t>(w);
        event.evaluations = static_cast<std::uint64_t>(w);
        ring.publish(event);
      }
    });
  }
  std::thread reader([&ring, &start, &stop, &torn] {
    while (!start.load()) {
    }
    std::uint64_t cursor = 0;
    std::vector<Event> out;
    while (!stop.load()) {
      out.clear();
      cursor = ring.read_since(cursor, out);
      std::uint64_t prev = 0;
      for (const Event& event : out) {
        if (event.kind != Kind::kGeneration) ++torn;
        if (event.seq <= prev) ++torn;
        prev = event.seq;
        // Payload words were written together: writer index must agree
        // across fields or the slot was torn.
        const std::string job(event.job);
        if (job != "writer" + std::to_string(event.generation)) ++torn;
        if (event.generation != event.evaluations) ++torn;
      }
    }
  });
  start.store(true);
  for (auto& thread : writers) thread.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(ring.last_seq(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

// A reader that feeds each returned cursor back as `since` must receive
// every event exactly once while writers publish concurrently: a sequence
// is assigned and its event written in one critical section, so a cursor
// can never pass an event that is not readable yet. The ring holds the
// whole round, so nothing may count as dropped either. Many fresh rings
// give the writers many chances to interleave with the reader.
TEST(EventRingTest, CursorFollowerGetsEverySequenceExactlyOnce) {
  constexpr int kRounds = 64;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWriters) * kPerWriter;
  for (int round = 0; round < kRounds; ++round) {
    EventRing ring(kTotal);  // rounds up past kTotal: no wrap
    std::atomic<bool> start{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&ring, &start] {
        while (!start.load()) {
        }
        for (int i = 0; i < kPerWriter; ++i) {
          ring.publish(make_event(Kind::kGeneration, "j", "s", ""));
        }
      });
    }

    std::vector<int> deliveries(kTotal + 1, 0);
    std::uint64_t dropped_total = 0;
    std::uint64_t cursor = 0;
    std::vector<Event> out;
    start.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (cursor < kTotal && std::chrono::steady_clock::now() < deadline) {
      out.clear();
      std::uint64_t dropped = 0;
      const std::uint64_t next = ring.read_since(cursor, out, &dropped);
      dropped_total += dropped;
      EXPECT_GE(next, cursor);
      for (const Event& event : out) {
        // EXPECT, not ASSERT: the writers must still be joined below.
        if (event.seq <= cursor || event.seq > next) {
          ADD_FAILURE() << "seq " << event.seq << " outside (" << cursor
                        << ", " << next << "]";
          continue;
        }
        ++deliveries[event.seq];
      }
      if (out.empty()) ring.wait_for(next, 0.01);
      cursor = next;
    }
    for (auto& thread : writers) thread.join();

    EXPECT_EQ(cursor, kTotal) << "round " << round;
    EXPECT_EQ(dropped_total, 0u) << "round " << round;
    std::uint64_t once = 0;
    for (std::uint64_t seq = 1; seq <= kTotal; ++seq) {
      if (deliveries[seq] == 1) ++once;
    }
    EXPECT_EQ(once, kTotal) << "round " << round;
  }
}

TEST(EventRingTest, WaitForReturnsOnPublishAndOnTimeout) {
  EventRing ring(8);
  // Nothing newer: times out false (keep the timeout tiny).
  EXPECT_FALSE(ring.wait_for(0, 0.01));
  ring.publish(make_event(Kind::kJobQueued, "j", "", ""));
  // Already satisfied: returns immediately.
  EXPECT_TRUE(ring.wait_for(0, 0.0));
  // Satisfied by a publish from another thread while blocked.
  std::thread publisher([&ring] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.publish(make_event(Kind::kJobFinished, "j", "", ""));
  });
  EXPECT_TRUE(ring.wait_for(1, 5.0));
  publisher.join();
}

/// append_event_json's output for one event, parsed back.
wsnex::util::Json serialized(const Event& event) {
  std::string line;
  events::append_event_json(line, event);
  return wsnex::util::Json::parse(line);
}

TEST(EventJsonTest, LifecycleEventSchema) {
  EventRing ring(4);
  ring.publish(make_event(Kind::kUnitRetried, "job-1", "ward", "timeout"));
  std::vector<Event> out;
  ring.read_since(0, out);
  ASSERT_EQ(out.size(), 1u);
  const wsnex::util::Json json = serialized(out[0]);
  EXPECT_EQ(json.at("seq").as_int64(), 1);
  EXPECT_GE(json.at("t").as_double(), 0.0);
  EXPECT_EQ(json.at("kind").as_string(), "unit_retried");
  EXPECT_EQ(json.at("job").as_string(), "job-1");
  EXPECT_EQ(json.at("scenario").as_string(), "ward");
  EXPECT_EQ(json.at("detail").as_string(), "timeout");
  // Progress fields are generation-only — absent here.
  EXPECT_EQ(json.find("generation"), nullptr);
  EXPECT_EQ(json.find("hypervolume"), nullptr);
}

TEST(EventJsonTest, GenerationEventCarriesProgressFields) {
  Event event = make_event(Kind::kGeneration, "j", "s", "");
  event.seq = 7;
  event.generation = 3;
  event.evaluations = 64;
  event.archive_size = 12;
  event.feasible = 5;
  event.hypervolume = 123.5;
  event.evals_per_s = 1000.0;
  const wsnex::util::Json json = serialized(event);
  EXPECT_EQ(json.at("kind").as_string(), "generation");
  EXPECT_EQ(json.at("generation").as_int64(), 3);
  EXPECT_EQ(json.at("evaluations").as_int64(), 64);
  EXPECT_EQ(json.at("archive_size").as_int64(), 12);
  EXPECT_EQ(json.at("feasible").as_int64(), 5);
  EXPECT_DOUBLE_EQ(json.at("hypervolume").as_double(), 123.5);
  EXPECT_DOUBLE_EQ(json.at("evals_per_s").as_double(), 1000.0);
}

TEST(EventJsonTest, JsonlIsOneParseableObjectPerLine) {
  EventRing ring(8);
  ring.publish(make_event(Kind::kJobQueued, "j", "", ""));
  ring.publish(make_event(Kind::kScenarioStarted, "j", "s", ""));
  ring.publish(make_event(Kind::kScenarioFinished, "j", "s", "front=3"));
  std::vector<Event> out;
  ring.read_since(0, out);
  const std::string jsonl = events::events_to_jsonl(out);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  std::size_t begin = 0;
  std::set<std::int64_t> seqs;
  while (begin < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const wsnex::util::Json parsed =
        wsnex::util::Json::parse(jsonl.substr(begin, end - begin));
    seqs.insert(parsed.at("seq").as_int64());
    begin = end + 1;
  }
  EXPECT_EQ(seqs, (std::set<std::int64_t>{1, 2, 3}));
}

// append_event_json against the former DOM builder, for every kind, with
// string fields that need escaping and numbers that exercise the shortest
// round-trip formatter and the int64 view of large counters.
TEST(EventJsonTest, SerializerMatchesDomReferenceForEveryKind) {
  const std::string nasty = std::string("q\"b\\s/\x01\x1f\b\f\n\r\t") +
                            "\xc3\xa9nd\x7f";
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-300, 6.02214076e23,
                           123456789.125, 5e-324};
  for (int k = 0; k <= static_cast<int>(Kind::kCacheDegraded); ++k) {
    for (std::size_t v = 0; v < std::size(values); ++v) {
      Event event = make_event(static_cast<Kind>(k), "job-\"1\"", nasty,
                               nasty + nasty);
      event.seq = v == 3 ? std::numeric_limits<std::uint64_t>::max() : 40 + v;
      event.time_s = values[v];
      event.generation = v;
      event.evaluations = 64 * v + 1;
      event.archive_size = v == 4 ? (1ULL << 62) : 3;
      event.feasible = v;
      event.hypervolume = values[(v + 2) % std::size(values)];
      event.evals_per_s = values[(v + 5) % std::size(values)];
      std::string line = "prefix:";
      events::append_event_json(line, event);
      EXPECT_EQ(line,
                "prefix:" + wsnex::test::reference_event_to_json(event).dump())
          << "kind " << k << " value " << v;
    }
  }
}

TEST(EventJsonTest, NonFiniteNumberThrowsAndLeavesTheBufferAlone) {
  const double bad[] = {std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double x : bad) {
    Event generation = make_event(Kind::kGeneration, "j", "s", "");
    generation.hypervolume = x;
    std::string line = "kept";
    EXPECT_THROW(events::append_event_json(line, generation),
                 std::invalid_argument);
    EXPECT_EQ(line, "kept");
    EXPECT_THROW(wsnex::test::reference_event_to_json(generation).dump(),
                 std::invalid_argument);

    Event rate = make_event(Kind::kGeneration, "j", "s", "");
    rate.evals_per_s = x;
    EXPECT_THROW(events::append_event_json(line, rate), std::invalid_argument);

    Event lifecycle = make_event(Kind::kJobQueued, "j", "", "");
    lifecycle.time_s = x;
    EXPECT_THROW(events::append_event_json(line, lifecycle),
                 std::invalid_argument);
    // Progress fields are not serialized for lifecycle kinds, so their
    // values are never checked there — as with the DOM builder.
    Event quiet = make_event(Kind::kJobQueued, "j", "", "");
    quiet.hypervolume = x;
    std::string out;
    EXPECT_NO_THROW(events::append_event_json(out, quiet));
    EXPECT_EQ(out, wsnex::test::reference_event_to_json(quiet).dump());
  }
}

TEST(EventKindTest, WireNamesAreStable) {
  EXPECT_STREQ(events::kind_name(Kind::kJobQueued), "job_queued");
  EXPECT_STREQ(events::kind_name(Kind::kJobStarted), "job_started");
  EXPECT_STREQ(events::kind_name(Kind::kJobFinished), "job_finished");
  EXPECT_STREQ(events::kind_name(Kind::kUnitStarted), "unit_started");
  EXPECT_STREQ(events::kind_name(Kind::kUnitFinished), "unit_finished");
  EXPECT_STREQ(events::kind_name(Kind::kUnitRetried), "unit_retried");
  EXPECT_STREQ(events::kind_name(Kind::kScenarioStarted), "scenario_started");
  EXPECT_STREQ(events::kind_name(Kind::kScenarioFinished),
               "scenario_finished");
  EXPECT_STREQ(events::kind_name(Kind::kGeneration), "generation");
  EXPECT_STREQ(events::kind_name(Kind::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(events::kind_name(Kind::kCacheDegraded), "cache_degraded");
}

}  // namespace
