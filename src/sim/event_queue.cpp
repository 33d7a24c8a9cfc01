#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace wsnex::sim {

std::uint64_t EventQueue::schedule(SimTime at, Callback fn) {
  static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);
  if (free_slots_.empty()) {
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("EventQueue: more than 2^32 pending events");
    }
    slots_.emplace_back();
    free_slots_.reserve(slots_.capacity());
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
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
  s.fn = std::move(fn);
  ++live_;
  return id;
}

void EventQueue::release(std::uint32_t slot) noexcept {
  slots_[slot].id = 0;
  free_slots_.push_back(slot);  // within the capacity reserved by schedule()
  --live_;
}

void EventQueue::cancel(std::uint64_t id) {
  // Lazy deletion: free the slot and leave the heap entry as a tombstone.
  // Ids that never existed, already fired or are already cancelled no
  // longer match their slot, so this is naturally a no-op for them (a free
  // slot holds 0, which is never issued).
  const std::uint32_t slot = slot_of(id);
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
  slots_[slot].fn = nullptr;
  release(slot);
  ++tombstones_;
  if (tombstones_ > live_) compact();
}

void EventQueue::compact() {
  // Rebuild the heap from the live entries only. Heap-internal layout
  // does not affect pop order (the (at, seq) key is a total order), so
  // compaction is unobservable apart from memory use.
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  tombstones_ = 0;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && !is_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    assert(tombstones_ > 0);
    --tombstones_;
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  assert(!heap_.empty());
  return heap_.front().at;
}

SimTime EventQueue::run_next() {
  drop_cancelled();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the
  // callback may schedule new events (reusing this slot or growing the
  // table) or cancel its own, now stale, id.
  const std::uint32_t slot = slot_of(entry.id);
  const Callback fn = std::move(slots_[slot].fn);
  release(slot);
  // Popping live entries can also leave tombstones in the majority;
  // re-check the compaction invariant so the bound holds after any
  // mutation, not just after cancel().
  if (tombstones_ > live_) compact();
  fn();
  return entry.at;
}

}  // namespace wsnex::sim
