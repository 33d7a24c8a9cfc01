// Wall-clock timing on the monotonic steady clock, in seconds.
#pragma once

#include <chrono>

namespace wsnex::util {

/// Seconds since the steady clock's (arbitrary) epoch; only differences
/// between two readings are meaningful.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since construction.
class Stopwatch {
 public:
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace wsnex::util
