// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of wsnex (workload generators, optimizers, the
// packet simulator) draw from Rng so that a fixed seed reproduces a run
// bit-for-bit across platforms. The generator is xoshiro256**, which is
// cheap, high-quality and has a guaranteed period of 2^256 - 1.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace wsnex::util {

/// Deterministic random source (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
/// be plugged into <random> distributions, although the member helpers below
/// are preferred because their results are platform-independent.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` using splitmix64, which
  /// guarantees a non-zero state for every seed value.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  // The per-draw members are defined inline below, so the optimizers'
  // variation loops (dozens of draws per child) compile them in place.

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the closed range [lo, hi] (unbiased, via rejection).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate (Marsaglia polar method; caches the spare).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponentially distributed deviate with the given rate (lambda > 0).
  double exponential(double rate);

  /// Uniformly chosen index into a container of the given size (size > 0).
  std::size_t index(std::size_t size);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

  /// A child generator with a stream decorrelated from this one. Used to
  /// hand independent sub-streams to parallel experiment arms.
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

inline Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline double Rng::uniform01() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>((*this)());
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - span) % span;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % span);
  }
}

inline bool Rng::bernoulli(double p) { return uniform01() < p; }

inline std::size_t Rng::index(std::size_t size) {
  assert(size > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size - 1)));
}

}  // namespace wsnex::util
