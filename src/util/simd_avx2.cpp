// AVX2 kernel table. Compiled with -mavx2 (see src/util/CMakeLists.txt)
// but only ever executed after the runtime CPUID check in simd.cpp, so the
// binary stays loadable on any x86-64.
//
// Bit-identity discipline (matches the scalar reference in simd.cpp):
//   * per-output accumulation order is preserved — lanes map to distinct
//     outputs (packed GEMV, DWT analyze) or to distinct elements with the
//     scalar's per-element operation order (accumulate4, axpy, the FISTA
//     steps, DWT synthesize);
//   * multiply and add stay separate instructions — no _mm256_fmadd_pd,
//     whose single rounding would diverge from the scalar mul-then-add.
#include "util/simd_kernels.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace wsnex::util::simd::detail {
namespace {

constexpr std::size_t kW = 4;  // panel width == doubles per __m256d

void avx2_gemv_transposed_packed(const double* packed, std::size_t rows,
                                 std::size_t cols, const double* x,
                                 double* out) {
  const std::size_t full = cols / kW;
  std::size_t p = 0;
  // Four panels (16 columns) per pass: four independent add chains hide
  // the addpd latency that serializes a single accumulator.
  for (; p + 4 <= full; p += 4) {
    const double* b0 = packed + (p + 0) * rows * kW;
    const double* b1 = packed + (p + 1) * rows * kW;
    const double* b2 = packed + (p + 2) * rows * kW;
    const double* b3 = packed + (p + 3) * rows * kW;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_load_pd(b0 + kW * i), xi));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_load_pd(b1 + kW * i), xi));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_load_pd(b2 + kW * i), xi));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_load_pd(b3 + kW * i), xi));
    }
    _mm256_storeu_pd(out + (p + 0) * kW, a0);
    _mm256_storeu_pd(out + (p + 1) * kW, a1);
    _mm256_storeu_pd(out + (p + 2) * kW, a2);
    _mm256_storeu_pd(out + (p + 3) * kW, a3);
  }
  for (; p < full; ++p) {
    const double* b = packed + p * rows * kW;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x + i);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_load_pd(b + kW * i), xi));
    }
    _mm256_storeu_pd(out + p * kW, acc);
  }
  if (const std::size_t tail = cols % kW) {
    const double* b = packed + full * rows * kW;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x + i);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_load_pd(b + kW * i), xi));
    }
    alignas(32) double lanes[kW];
    _mm256_store_pd(lanes, acc);
    for (std::size_t l = 0; l < tail; ++l) out[full * kW + l] = lanes[l];
  }
}

void avx2_gemv_transposed(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* out) {
  std::size_t j = 0;
  // Two 4-column blocks per pass over the unpacked layout; the per-i
  // element gather (set_pd of four strided loads) keeps lane l on column
  // j+l, so each output still accumulates in ascending row order.
  for (; j + 8 <= cols; j += 8) {
    const double* c0 = a + (j + 0) * rows;
    const double* c1 = a + (j + 1) * rows;
    const double* c2 = a + (j + 2) * rows;
    const double* c3 = a + (j + 3) * rows;
    const double* c4 = a + (j + 4) * rows;
    const double* c5 = a + (j + 5) * rows;
    const double* c6 = a + (j + 6) * rows;
    const double* c7 = a + (j + 7) * rows;
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x + i);
      const __m256d v0 = _mm256_set_pd(c3[i], c2[i], c1[i], c0[i]);
      const __m256d v1 = _mm256_set_pd(c7[i], c6[i], c5[i], c4[i]);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(v0, xi));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(v1, xi));
    }
    _mm256_storeu_pd(out + j, s0);
    _mm256_storeu_pd(out + j + 4, s1);
  }
  for (; j + 4 <= cols; j += 4) {
    const double* c0 = a + (j + 0) * rows;
    const double* c1 = a + (j + 1) * rows;
    const double* c2 = a + (j + 2) * rows;
    const double* c3 = a + (j + 3) * rows;
    __m256d s0 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < rows; ++i) {
      const __m256d xi = _mm256_broadcast_sd(x + i);
      const __m256d v0 = _mm256_set_pd(c3[i], c2[i], c1[i], c0[i]);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(v0, xi));
    }
    _mm256_storeu_pd(out + j, s0);
  }
  for (; j < cols; ++j) {
    const double* c = a + j * rows;
    double acc = 0.0;
    for (std::size_t i = 0; i < rows; ++i) acc += c[i] * x[i];
    out[j] = acc;
  }
}

void avx2_accumulate4(const double* c0, const double* c1, const double* c2,
                      const double* c3, const double s[4], double* y,
                      std::size_t n) {
  const __m256d s0 = _mm256_broadcast_sd(s + 0);
  const __m256d s1 = _mm256_broadcast_sd(s + 1);
  const __m256d s2 = _mm256_broadcast_sd(s + 2);
  const __m256d s3 = _mm256_broadcast_sd(s + 3);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(y + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(s0, _mm256_loadu_pd(c0 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(s1, _mm256_loadu_pd(c1 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(s2, _mm256_loadu_pd(c2 + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(s3, _mm256_loadu_pd(c3 + i)));
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < n; ++i) {
    double acc = y[i];
    acc += s[0] * c0[i];
    acc += s[1] * c1[i];
    acc += s[2] * c2[i];
    acc += s[3] * c3[i];
    y[i] = acc;
  }
}

void avx2_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void avx2_fista_shrink(const double* z, const double* grad, double step,
                       double lambda, double* a, std::size_t n) {
  const __m256d vstep = _mm256_set1_pd(step);
  const __m256d vthr = _mm256_set1_pd(step * lambda);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d u = _mm256_sub_pd(
        _mm256_loadu_pd(z + j),
        _mm256_mul_pd(vstep, _mm256_loadu_pd(grad + j)));
    const __m256d mag =
        _mm256_sub_pd(_mm256_andnot_pd(sign_mask, u), vthr);  // |u| - thr
    const __m256d keep = _mm256_cmp_pd(mag, zero, _CMP_GT_OQ);
    const __m256d signed_mag = _mm256_or_pd(mag, _mm256_and_pd(u, sign_mask));
    _mm256_storeu_pd(a + j, _mm256_and_pd(signed_mag, keep));
  }
  for (; j < n; ++j) {
    const double u = z[j] - step * grad[j];
    const double shrink = std::abs(u) - step * lambda;
    a[j] = shrink > 0.0 ? std::copysign(shrink, u) : 0.0;
  }
}

void avx2_fista_momentum(const double* a, const double* a_prev,
                         double momentum, double* z, std::size_t n) {
  const __m256d vm = _mm256_set1_pd(momentum);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d va = _mm256_loadu_pd(a + j);
    const __m256d diff = _mm256_sub_pd(va, _mm256_loadu_pd(a_prev + j));
    _mm256_storeu_pd(z + j, _mm256_add_pd(va, _mm256_mul_pd(vm, diff)));
  }
  for (; j < n; ++j) z[j] = a[j] + momentum * (a[j] - a_prev[j]);
}

double avx2_max_abs(const double* x, std::size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vm = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vm = _mm256_max_pd(vm, _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x + i)));
  }
  const __m128d lo = _mm256_castpd256_pd128(vm);
  const __m128d hi = _mm256_extractf128_pd(vm, 1);
  const __m128d m2 = _mm_max_pd(lo, hi);
  double m = _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void avx2_dwt_analyze(const double* in, std::size_t n, const double* lp,
                      const double* hp, std::size_t taps, double* approx,
                      double* detail) {
  const std::size_t half = n / 2;
  std::size_t i = 0;
  // Four outputs per pass: lane l handles output i+l, reading the even
  // elements of the 8-wide window at in[2i+k]. Each lane accumulates taps
  // in ascending k order — the scalar order. The 8-double loads reach
  // index 2i+k+7, so the vector body stops before the periodic wrap.
  for (; i + 4 <= half && 2 * i + taps + 7 <= n; i += 4) {
    __m256d va = _mm256_setzero_pd();
    __m256d vd = _mm256_setzero_pd();
    const double* win = in + 2 * i;
    for (std::size_t k = 0; k < taps; ++k) {
      const __m256d lo = _mm256_loadu_pd(win + k);       // b0 b1 b2 b3
      const __m256d hi = _mm256_loadu_pd(win + k + 4);   // b4 b5 b6 b7
      __m256d ev = _mm256_unpacklo_pd(lo, hi);           // b0 b4 b2 b6
      ev = _mm256_permute4x64_pd(ev, 0xD8);              // b0 b2 b4 b6
      va = _mm256_add_pd(va, _mm256_mul_pd(_mm256_broadcast_sd(lp + k), ev));
      vd = _mm256_add_pd(vd, _mm256_mul_pd(_mm256_broadcast_sd(hp + k), ev));
    }
    _mm256_storeu_pd(approx + i, va);
    _mm256_storeu_pd(detail + i, vd);
  }
  for (; i < half; ++i) {
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < taps; ++k) {
      const double xv = in[(2 * i + k) % n];
      a += lp[k] * xv;
      d += hp[k] * xv;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

void avx2_dwt_synthesize(const double* approx, const double* detail,
                         std::size_t half, const double* lp, const double* hp,
                         std::size_t taps, double* out) {
  const std::size_t n = 2 * half;
  std::memset(out, 0, n * sizeof(double));
  std::size_t i = 0;
  // The i-th input pair touches the contiguous run out[2i .. 2i+taps);
  // keeping i outer (serial) preserves the ascending-i accumulation order
  // per output position, and the inner tap run vectorizes four wide.
  for (; i < half && 2 * i + taps <= n; ++i) {
    const __m256d va = _mm256_broadcast_sd(approx + i);
    const __m256d vd = _mm256_broadcast_sd(detail + i);
    double* o = out + 2 * i;
    std::size_t k = 0;
    for (; k + 4 <= taps; k += 4) {
      const __m256d contrib =
          _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(lp + k), va),
                        _mm256_mul_pd(_mm256_loadu_pd(hp + k), vd));
      _mm256_storeu_pd(o + k, _mm256_add_pd(_mm256_loadu_pd(o + k), contrib));
    }
    for (; k < taps; ++k) o[k] += lp[k] * approx[i] + hp[k] * detail[i];
  }
  for (; i < half; ++i) {
    for (std::size_t k = 0; k < taps; ++k) {
      const std::size_t pos = (2 * i + k) % n;
      out[pos] += lp[k] * approx[i] + hp[k] * detail[i];
    }
  }
}

}  // namespace

const Ops* avx2_ops() {
  static constexpr Ops ops = {
      &avx2_gemv_transposed_packed,
      &avx2_gemv_transposed,
      &avx2_accumulate4,
      &avx2_axpy,
      &avx2_fista_shrink,
      &avx2_fista_momentum,
      &avx2_max_abs,
      &avx2_dwt_analyze,
      &avx2_dwt_synthesize,
  };
  return &ops;
}

}  // namespace wsnex::util::simd::detail

#else  // !__AVX2__

namespace wsnex::util::simd::detail {

const Ops* avx2_ops() { return nullptr; }

}  // namespace wsnex::util::simd::detail

#endif
