// Discrete-event simulation core: time-ordered event queue.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_function.hpp"

namespace wsnex::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Time-ordered callback queue. Events fire in (at, seq) order: by time,
/// then by a sequence number issued per schedule() call, so events at
/// equal times fire in insertion order and runs are deterministic.
///
/// The binary heap holds 24-byte, trivially copyable {at, seq, id}
/// entries. Callbacks are InlineFunctions — trivially copyable closures
/// of at most kInlineClosureBytes, stored inline — living in a table of
/// slots that a free list recycles, so a warmed-up queue schedules,
/// cancels and runs events without allocating whatever the callbacks
/// capture. An id is `generation << 32 | slot`, and generations start at
/// 1, so 0 is never issued and stays free for callers to mean "no event".
/// A heap entry is live iff its slot still holds its id: cancel() and
/// running an event free the slot at once, which turns the stale heap
/// entry and any later use of the id into no-ops. A stale id can alias a
/// newer event only after 2^32 reuses of its slot, so callers cancel only
/// events they know are pending.
///
/// A cancelled entry stays in the heap as a tombstone until it surfaces
/// at the top or a compaction pass rebuilds the heap. Compaction triggers
/// whenever tombstones outnumber live events, so the heap never holds
/// more than 2 * size() + 1 entries: cancel-heavy simulations stay
/// bounded instead of growing with the total number of cancellations.
class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  /// Schedules `fn` at absolute time `at`. Returns an id usable to cancel;
  /// never 0.
  std::uint64_t schedule(SimTime at, Callback fn);

  /// Cancels a scheduled event; a no-op if already fired or cancelled.
  void cancel(std::uint64_t id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Entries physically held (live + tombstones) — bounded by
  /// 2 * size() + 1. Exposed for diagnostics and the compaction tests.
  std::size_t pending_entries() const { return heap_.size(); }

  /// Time of the earliest pending event; only valid when !empty().
  SimTime next_time() const;

  /// Pops and runs the earliest event; returns its timestamp. Only valid
  /// when !empty().
  SimTime run_next();

  /// The simulation loop's step: drops cancelled entries from the top,
  /// then, if the earliest event is due at or before `t_end`, pops it
  /// once, stores its time in `now`, runs it and returns true. Returns
  /// false, leaving `now` as it was, when nothing is due by `t_end`.
  bool run_next_until(SimTime t_end, SimTime& now);

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint64_t id = 0;          // id of the pending event here; 0 if free
    std::uint32_t generation = 0;  // generation of the last id issued here
    Callback fn;
  };

  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id);
  }
  bool is_live(const Entry& e) const {
    return slots_[slot_of(e.id)].id == e.id;
  }
  void add_slot();
  void release(std::uint32_t slot) noexcept {
    slots_[slot].id = 0;
    free_slots_.push_back(slot);  // within the capacity add_slot() reserved
    --live_;
  }
  void drop_cancelled() const;
  void compact();

  // heap_ and tombstones_ are mutable because next_time() lazily pops
  // cancelled tops — an internal cleanup invisible to callers. Like the
  // rest of the queue, the const accessors are NOT safe to call
  // concurrently with anything else.
  mutable std::vector<Entry> heap_;  // std::push_heap/pop_heap with Later
  std::vector<Slot> slots_;
  // Free slot indices, reused last-in first-out. Its capacity never falls
  // below slots_.size(), so release() does not allocate.
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // scheduled and neither fired nor cancelled
  std::uint64_t next_seq_ = 0;
  mutable std::size_t tombstones_ = 0;  // cancelled entries still in heap_
};

// schedule() and run_next_until() run once per simulated event; they are
// defined here so the simulator's call sites inline them.

inline std::uint64_t EventQueue::schedule(SimTime at, Callback fn) {
  if (free_slots_.empty()) add_slot();
  const std::uint32_t slot = free_slots_.back();
  Slot& s = slots_[slot];
  // Generation 0 is skipped on wrap-around, so no id is ever 0.
  const std::uint32_t generation =
      s.generation == std::numeric_limits<std::uint32_t>::max()
          ? 1
          : s.generation + 1;
  const std::uint64_t id = std::uint64_t{generation} << 32 | slot;
  heap_.push_back(Entry{at, next_seq_, id});  // the last step that can throw
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  free_slots_.pop_back();
  ++next_seq_;
  s.id = id;
  s.generation = generation;
  s.fn = fn;
  ++live_;
  return id;
}

inline bool EventQueue::run_next_until(SimTime t_end, SimTime& now) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    const bool live = is_live(top);
    if (live && top.at > t_end) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (!live) {
      assert(tombstones_ > 0);
      --tombstones_;
      continue;
    }
    // Copy the callback out and free its slot before running it: the
    // callback may schedule new events (reusing this slot or growing the
    // table) or cancel its own, now stale, id.
    const std::uint32_t slot = slot_of(top.id);
    const Callback fn = slots_[slot].fn;
    release(slot);
    // Popping live entries can also leave tombstones in the majority;
    // re-check the compaction invariant so the bound holds after any
    // mutation, not just after cancel().
    if (tombstones_ > live_) compact();
    now = top.at;
    fn();
    return true;
  }
  return false;
}

}  // namespace wsnex::sim
