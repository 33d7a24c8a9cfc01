#include "sim/event_queue.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace wsnex::sim {

static_assert(sizeof(EventQueue::Callback) == 64 &&
              std::is_trivially_copyable_v<EventQueue::Callback>);

void EventQueue::add_slot() {
  static_assert(sizeof(Entry) == 24 && std::is_trivially_copyable_v<Entry>);
  if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("EventQueue: more than 2^32 pending events");
  }
  slots_.emplace_back();
  free_slots_.reserve(slots_.capacity());
  free_slots_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
}

void EventQueue::cancel(std::uint64_t id) {
  // Lazy deletion: free the slot and leave the heap entry as a tombstone.
  // Ids that never existed, already fired or are already cancelled no
  // longer match their slot, so this is naturally a no-op for them (a free
  // slot holds 0, which is never issued).
  const std::uint32_t slot = slot_of(id);
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
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
  assert(!empty());
  SimTime at = 0.0;
  run_next_until(std::numeric_limits<SimTime>::infinity(), at);
  return at;
}

}  // namespace wsnex::sim
