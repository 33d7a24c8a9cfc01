#include "sim/engine.hpp"

namespace wsnex::sim {

void Engine::run_until(SimTime t_end) {
  while (!queue_.empty()) {
    const SimTime at = queue_.next_time();
    if (at > t_end) break;
    now_ = at;
    queue_.run_next();
    ++events_executed_;
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace wsnex::sim
