// Simulation engine: clock + event queue + run loop.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"

namespace wsnex::sim {

/// Owns the simulation clock. Components schedule callbacks relative to
/// now(); run_until() advances the clock event by event.
class Engine {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` after `delay` seconds (>= 0) of simulated time.
  std::uint64_t schedule_in(SimTime delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + delay, fn);
  }

  /// Schedules `fn` at the absolute simulated time `at` (>= now()).
  std::uint64_t schedule_at(SimTime at, EventQueue::Callback fn) {
    return queue_.schedule(at, fn);
  }

  void cancel(std::uint64_t id) { queue_.cancel(id); }

  /// Runs events until the queue drains or the next event is past `t_end`.
  /// The clock finishes at exactly `t_end` (or earlier if drained).
  void run_until(SimTime t_end) {
    while (queue_.run_next_until(t_end, now_)) ++events_executed_;
    if (now_ < t_end) now_ = t_end;
  }

  /// Total events executed so far (for performance accounting).
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace wsnex::sim
