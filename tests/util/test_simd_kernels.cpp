// Equivalence corpus for the runtime-dispatched SIMD kernel layer.
//
// The contract under test (util/simd.hpp): every kernel produces results
// BIT-IDENTICAL to the scalar reference on every ISA the CPU supports —
// compared here with memcmp so signed zeros and NaN payloads count —
// across randomized shapes including sizes below the vector width, sizes
// not divisible by 4/8, and zero. The reductions always run the scalar
// reference, so they are exact on every ISA too.
//
// On a machine whose CPU supports only scalar these tests degenerate to
// scalar-vs-scalar and still pass; CI runs the suite both dispatched and
// under WSNEX_FORCE_SCALAR=1.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "util/random.hpp"

namespace simd = wsnex::util::simd;
using wsnex::util::Rng;

namespace {

// Sizes around and across the 2/4-lane vector widths, plus awkward tails.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,   5,   7,  8, 12,
                                         16, 17, 31, 32, 33,  47,  64, 100,
                                         256};

/// Pins the dispatch to `isa` for the duration of a scope.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) : prev_(simd::active_isa()) {
    ok_ = simd::set_active_isa(isa);
  }
  ~IsaGuard() { simd::set_active_isa(prev_); }
  bool ok() const { return ok_; }

 private:
  simd::Isa prev_;
  bool ok_ = false;
};

/// Every ISA this CPU can run (scalar always; plus the detected one).
std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() != simd::Isa::kScalar) {
    isas.push_back(simd::detected_isa());
  }
  return isas;
}

std::vector<double> random_vec(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

/// Bitwise equality — EXPECT_EQ would call +0.0 == -0.0 equal.
void expect_bits_equal(std::span<const double> got,
                       std::span<const double> want, const char* what,
                       std::size_t n) {
  ASSERT_EQ(got.size(), want.size()) << what << " n=" << n;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << what << " diverges from scalar at n=" << n;
  }
}

void expect_bits_equal(double got, double want, const char* what,
                       std::size_t n) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << " diverges from scalar at n=" << n << " (got " << got
      << ", want " << want << ")";
}

}  // namespace

TEST(SimdDispatch, ScalarAlwaysSettable) {
  IsaGuard guard(simd::Isa::kScalar);
  EXPECT_TRUE(guard.ok());
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
}

TEST(SimdDispatch, DetectedIsaSettable) {
  IsaGuard guard(simd::detected_isa());
  EXPECT_TRUE(guard.ok());
  EXPECT_EQ(simd::active_isa(), simd::detected_isa());
}

TEST(SimdDispatch, UnsupportedIsaRejected) {
#if defined(__aarch64__)
  const simd::Isa foreign = simd::Isa::kAvx2;
#else
  const simd::Isa foreign = simd::Isa::kNeon;
#endif
  const simd::Isa before = simd::active_isa();
  EXPECT_FALSE(simd::set_active_isa(foreign));
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdDispatch, ForcedScalarEnvIsHonored) {
  // The override is resolved once at startup; all this test can assert
  // in-process is consistency between the two introspection calls.
  if (simd::scalar_forced_by_env()) {
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
}

TEST(SimdKernels, GemvTransposedMatchesScalarBitwise) {
  Rng rng(11);
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}, std::size_t{8},
                                 std::size_t{70}}) {
    for (const std::size_t cols : kSizes) {
      const auto a = random_vec(rng, rows * cols);
      const auto x = random_vec(rng, rows);
      std::vector<double> want(cols, -1.0);
      {
        IsaGuard guard(simd::Isa::kScalar);
        simd::gemv_transposed(a, rows, cols, x, want);
      }
      for (const simd::Isa isa : supported_isas()) {
        IsaGuard guard(isa);
        std::vector<double> got(cols, -1.0);
        simd::gemv_transposed(a, rows, cols, x, got);
        expect_bits_equal(got, want, "gemv_transposed", cols);
      }
    }
  }
}

TEST(SimdKernels, PackedGemvMatchesUnpackedBitwise) {
  Rng rng(12);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{5},
                                 std::size_t{16}, std::size_t{70}}) {
    for (const std::size_t cols : kSizes) {
      const auto a = random_vec(rng, rows * cols);
      const auto x = random_vec(rng, rows);
      std::vector<double> want(cols, -1.0);
      {
        IsaGuard guard(simd::Isa::kScalar);
        simd::gemv_transposed(a, rows, cols, x, want);
      }
      const simd::PackedGemv packed(a, rows, cols);
      EXPECT_EQ(packed.rows(), rows);
      EXPECT_EQ(packed.cols(), cols);
      for (const simd::Isa isa : supported_isas()) {
        IsaGuard guard(isa);
        std::vector<double> got(cols, -1.0);
        packed.transposed(x, got);
        expect_bits_equal(got, want, "PackedGemv::transposed", cols);
      }
    }
  }
}

TEST(SimdKernels, GemvAccumulateMatchesScalarBitwise) {
  Rng rng(13);
  for (const bool skip_zeros : {false, true}) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{6},
                                   std::size_t{70}}) {
      for (const std::size_t cols : kSizes) {
        const auto a = random_vec(rng, rows * cols);
        auto coeffs = random_vec(rng, cols);
        // Sprinkle exact zeros so skip_zeros has columns to skip.
        for (std::size_t j = 0; j < cols; j += 3) coeffs[j] = 0.0;
        const auto y0 = random_vec(rng, rows);
        std::vector<double> want = y0;
        {
          IsaGuard guard(simd::Isa::kScalar);
          simd::gemv_accumulate(a, rows, cols, coeffs, want, skip_zeros);
        }
        for (const simd::Isa isa : supported_isas()) {
          IsaGuard guard(isa);
          std::vector<double> got = y0;
          simd::gemv_accumulate(a, rows, cols, coeffs, got, skip_zeros);
          expect_bits_equal(got, want, "gemv_accumulate", cols);
        }
      }
    }
  }
}

TEST(SimdKernels, AxpyMatchesScalarBitwise) {
  Rng rng(14);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(rng, n);
    const auto y0 = random_vec(rng, n);
    std::vector<double> want = y0;
    {
      IsaGuard guard(simd::Isa::kScalar);
      simd::axpy(0.37, x, want);
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      std::vector<double> got = y0;
      simd::axpy(0.37, x, got);
      expect_bits_equal(got, want, "axpy", n);
    }
  }
}

TEST(SimdKernels, FistaShrinkMatchesScalarBitwise) {
  Rng rng(15);
  const double step = 0.183;
  const double lambda = 0.91;
  for (const std::size_t n : kSizes) {
    auto z = random_vec(rng, n);
    auto grad = random_vec(rng, n);
    // Force some outputs to land exactly on the zero branch (|u| below
    // the threshold) and some u to be negative, covering both copysign
    // sides and the +0.0 output.
    for (std::size_t j = 0; j + 1 < n; j += 2) {
      z[j] = 0.01 * z[j];
      grad[j] = 0.01 * grad[j];
    }
    std::vector<double> want(n, -1.0);
    {
      IsaGuard guard(simd::Isa::kScalar);
      simd::fista_shrink(z, grad, step, lambda, want);
    }
    // The zero branch must produce +0.0 exactly (FISTA's support
    // detection tests `a[j] != 0.0`; -0.0 would pass it but flip signs
    // downstream in historical outputs).
    for (const double v : want) {
      if (v == 0.0) {
        EXPECT_FALSE(std::signbit(v));
      }
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      std::vector<double> got(n, -1.0);
      simd::fista_shrink(z, grad, step, lambda, got);
      expect_bits_equal(got, want, "fista_shrink", n);
    }
  }
}

TEST(SimdKernels, FistaMomentumMatchesScalarBitwise) {
  Rng rng(16);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(rng, n);
    const auto a_prev = random_vec(rng, n);
    std::vector<double> want(n, -1.0);
    {
      IsaGuard guard(simd::Isa::kScalar);
      simd::fista_momentum(a, a_prev, 0.42, want);
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      std::vector<double> got(n, -1.0);
      simd::fista_momentum(a, a_prev, 0.42, got);
      expect_bits_equal(got, want, "fista_momentum", n);
    }
  }
}

TEST(SimdKernels, MaxAbsMatchesScalarBitwise) {
  Rng rng(17);
  for (const std::size_t n : kSizes) {
    auto x = random_vec(rng, n);
    if (n > 2) x[n / 2] = -3.5;  // put the max off the vector boundary
    double want = 0.0;
    {
      IsaGuard guard(simd::Isa::kScalar);
      want = simd::max_abs(x);
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      expect_bits_equal(simd::max_abs(x), want, "max_abs", n);
    }
  }
  EXPECT_EQ(simd::max_abs({}), 0.0);
}

namespace {

// db tap sets exercise every vector specialization: 2 (scalar inner), 4
// (one NEON pair / AVX2 tail), 8 (full vector runs).
const std::vector<std::vector<double>> kTapSets = {
    {0.7071, 0.7071},
    {0.4830, 0.8365, 0.2241, -0.1294},
    {0.2304, 0.7148, 0.6309, -0.0280, -0.1870, 0.0308, 0.0329, -0.0106},
};

std::vector<double> qmf(const std::vector<double>& lp) {
  std::vector<double> hp(lp.size());
  for (std::size_t k = 0; k < lp.size(); ++k) {
    hp[k] = ((k % 2 == 0) ? 1.0 : -1.0) * lp[lp.size() - 1 - k];
  }
  return hp;
}

}  // namespace

TEST(SimdKernels, DwtAnalyzeMatchesScalarBitwise) {
  Rng rng(18);
  for (const std::vector<double>& lp : kTapSets) {
    const std::vector<double> hp = qmf(lp);
    for (const std::size_t n : {std::size_t{0}, std::size_t{2}, std::size_t{4},
                                std::size_t{6}, std::size_t{8},
                                std::size_t{10}, std::size_t{16},
                                std::size_t{34}, std::size_t{64},
                                std::size_t{100}, std::size_t{256}}) {
      const auto in = random_vec(rng, n);
      std::vector<double> want_a(n / 2, -1.0), want_d(n / 2, -1.0);
      {
        IsaGuard guard(simd::Isa::kScalar);
        simd::dwt_analyze(in, lp, hp, want_a, want_d);
      }
      for (const simd::Isa isa : supported_isas()) {
        IsaGuard guard(isa);
        std::vector<double> got_a(n / 2, -1.0), got_d(n / 2, -1.0);
        simd::dwt_analyze(in, lp, hp, got_a, got_d);
        expect_bits_equal(got_a, want_a, "dwt_analyze approx", n);
        expect_bits_equal(got_d, want_d, "dwt_analyze detail", n);
      }
    }
  }
}

TEST(SimdKernels, DwtSynthesizeMatchesScalarBitwise) {
  Rng rng(19);
  for (const std::vector<double>& lp : kTapSets) {
    const std::vector<double> hp = qmf(lp);
    for (const std::size_t half : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2}, std::size_t{3},
                                   std::size_t{5}, std::size_t{8},
                                   std::size_t{17}, std::size_t{32},
                                   std::size_t{50}, std::size_t{128}}) {
      const auto approx = random_vec(rng, half);
      const auto detail = random_vec(rng, half);
      std::vector<double> want(2 * half, -1.0);
      {
        IsaGuard guard(simd::Isa::kScalar);
        simd::dwt_synthesize(approx, detail, lp, hp, want);
      }
      for (const simd::Isa isa : supported_isas()) {
        IsaGuard guard(isa);
        std::vector<double> got(2 * half, -1.0);
        simd::dwt_synthesize(approx, detail, lp, hp, got);
        expect_bits_equal(got, want, "dwt_synthesize", 2 * half);
      }
    }
  }
}

TEST(SimdReductions, ExactWhenReassociationDisabled) {
  Rng rng(20);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(rng, n);
    const auto b = random_vec(rng, n);
    double want_dot = 0.0, want_sq = 0.0, want_sqd = 0.0;
    {
      IsaGuard guard(simd::Isa::kScalar);
      want_dot = simd::dot(a, b);
      want_sq = simd::sum_sq(a);
      want_sqd = simd::sum_sq_diff(a, b);
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      expect_bits_equal(simd::dot(a, b), want_dot, "dot", n);
      expect_bits_equal(simd::sum_sq(a), want_sq, "sum_sq", n);
      expect_bits_equal(simd::sum_sq_diff(a, b), want_sqd, "sum_sq_diff", n);
    }
  }
}

TEST(SimdReductions, SumSqNonNegativeAndZeroOnEmpty) {
  EXPECT_EQ(simd::dot({}, {}), 0.0);
  EXPECT_EQ(simd::sum_sq({}), 0.0);
  EXPECT_EQ(simd::sum_sq_diff({}, {}), 0.0);
}
