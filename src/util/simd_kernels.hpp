// Internal kernel table shared by the per-ISA translation units.
//
// Each ISA provides one Ops instance; simd.cpp resolves which one runs at
// startup (see util/simd.hpp for the public API and the bit-identity
// contract). Not installed, not part of the public surface — include
// util/simd.hpp instead.
#pragma once

#include <cstddef>

namespace wsnex::util::simd::detail {

/// Raw kernel entry points. Every kernel must reproduce the scalar
/// implementation bit-for-bit (same per-output accumulation order,
/// separate multiply and add — no FMA contraction).
struct Ops {
  /// Packed-panel transposed GEMV: `packed` holds ceil(cols/4) panels of 4
  /// element-interleaved columns (see simd::PackedGemv); out[j] = column j
  /// dotted with x, accumulated in ascending row order per output.
  void (*gemv_transposed_packed)(const double* packed, std::size_t rows,
                                 std::size_t cols, const double* x,
                                 double* out);
  /// Plain column-major transposed GEMV (the historical util::linalg
  /// layout): column j lives at a[j * rows].
  void (*gemv_transposed)(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* out);
  /// y[i] += s[0]*c0[i] + s[1]*c1[i] + s[2]*c2[i] + s[3]*c3[i] with the
  /// four contributions applied in column order per element — the flush
  /// body of util::gemv_accumulate.
  void (*accumulate4)(const double* c0, const double* c1, const double* c2,
                      const double* c3, const double s[4], double* y,
                      std::size_t n);
  /// y += alpha * x.
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// FISTA proximal step: a[j] = soft-threshold(z[j] - step*grad[j]) with
  /// threshold step*lambda (copysign semantics of the scalar loop).
  void (*fista_shrink)(const double* z, const double* grad, double step,
                       double lambda, double* a, std::size_t n);
  /// FISTA extrapolation: z[j] = a[j] + momentum * (a[j] - a_prev[j]).
  void (*fista_momentum)(const double* a, const double* a_prev,
                         double momentum, double* z, std::size_t n);
  /// max_j |x[j]| (0.0 for n == 0). max is associative over the
  /// non-negative magnitudes, so lane-parallel evaluation is exact for
  /// NaN-free input; NaN inputs are unspecified (util/simd.hpp contract).
  double (*max_abs)(const double* x, std::size_t n);
  /// One periodized analysis step: approx[i]/detail[i] accumulate
  /// lp[k]*in[(2i+k) % n] / hp[k]*... in ascending k order per output.
  void (*dwt_analyze)(const double* in, std::size_t n, const double* lp,
                      const double* hp, std::size_t taps, double* approx,
                      double* detail);
  /// One periodized synthesis step: out (length 2*half) is zero-filled,
  /// then out[(2i+k) % n] += lp[k]*approx[i] + hp[k]*detail[i] in
  /// ascending (i, k) order per output position.
  void (*dwt_synthesize)(const double* approx, const double* detail,
                         std::size_t half, const double* lp, const double* hp,
                         std::size_t taps, double* out);
};

/// Reference implementation — also the arithmetic specification every
/// other table is tested against (tests/util/test_simd_kernels.cpp).
const Ops& scalar_ops();

/// AVX2 table, or nullptr when the TU was not compiled with AVX2 support
/// (non-x86 target or compiler without -mavx2).
const Ops* avx2_ops();

/// NEON table, or nullptr off aarch64.
const Ops* neon_ops();

}  // namespace wsnex::util::simd::detail
