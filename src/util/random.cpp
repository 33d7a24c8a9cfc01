#include "util/random.hpp"

#include <cassert>
#include <cmath>

namespace wsnex::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& lane : state_) lane = splitmix64(s);
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * scale;
  has_spare_normal_ = true;
  return u * scale;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  // 1 - uniform01() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - uniform01()) / rate;
}

Rng Rng::split() {
  // Derive the child seed from fresh output so parent and child streams
  // do not overlap in practice.
  return Rng((*this)() ^ 0xA3EC647659359ACDULL);
}

}  // namespace wsnex::util
