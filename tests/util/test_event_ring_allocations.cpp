// Allocation gate for util::events::EventRing: a ring allocates its slots
// one segment at a time, on the first publish that reaches a segment, so
// its memory follows the events it has carried, not its capacity. A serve
// campaign job publishes 68-73 events into a 1024-slot ring; 75 generation
// events must fill three 32-slot segments of their lane, not all 1024
// slots from construction on. Once a ring has wrapped, publishing
// allocates nothing. Segments are array allocations, which the counting
// allocator sees only where the array forms forward to the counted
// operator new (not under ASan or TSan); elsewhere the tests skip.
#include <gtest/gtest.h>

#include <cstddef>

#include "allocation_counter.hpp"
#include "util/events.hpp"

namespace wsnex::util::events {
namespace {

// A slot is one event.
constexpr std::size_t kSlotBytes = sizeof(Event);
constexpr std::size_t kSegmentBytes = EventRing::kSegmentSlots * kSlotBytes;

struct Counts {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};

Counts since(const Counts& start) {
  return {g_allocations.load() - start.allocations,
          g_allocated_bytes.load() - start.bytes};
}

Counts now() { return since({}); }

/// True iff array allocations reach the counting operator new.
bool arrays_counted() {
  const std::size_t before = g_allocations.load();
  // A direct call, unlike a new-expression, cannot be elided.
  ::operator delete[](::operator new[](16));
  return g_allocations.load() != before;
}

void publish_n(EventRing& ring, std::size_t n) {
  const Event event = make_event(Kind::kGeneration, "job", "scenario", "");
  for (std::size_t i = 0; i < n; ++i) ring.publish(event);
}

// Every count is taken before the first expectation: a failed one
// allocates its message, which would leak into later counts.
TEST(EventRingAllocations, SegmentsAreAllocatedAsPublishesReachThem) {
  if (!arrays_counted()) GTEST_SKIP() << "array allocations are not counted";
  const Counts start = now();
  EventRing ring(1024);
  const Counts built = since(start);
  publish_n(ring, 75);
  const Counts carried = since(start);
  publish_n(ring, 1024 - 75);
  const Counts full = since(start);
  publish_n(ring, 2048);
  const Counts wrapped = since(start);

  // The two lanes' segment tables only: 64 pointers.
  EXPECT_LE(built.bytes, 1024u) << "construction allocated slots";
  EXPECT_EQ(carried.allocations - built.allocations, 3u);
  EXPECT_EQ(carried.bytes - built.bytes, 3 * kSegmentBytes);
  EXPECT_EQ(full.bytes - built.bytes, 32 * kSegmentBytes);
  EXPECT_EQ(wrapped.allocations, full.allocations)
      << "a wrapped ring allocated";
}

TEST(EventRingAllocations, RingSmallerThanASegmentAllocatesItsCapacity) {
  if (!arrays_counted()) GTEST_SKIP() << "array allocations are not counted";
  EventRing ring(4);
  const Counts start = now();
  publish_n(ring, 10);
  const Counts carried = since(start);
  EXPECT_EQ(carried.allocations, 1u);
  EXPECT_EQ(carried.bytes, 4 * kSlotBytes);
}

}  // namespace
}  // namespace wsnex::util::events
