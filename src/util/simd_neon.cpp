// NEON (aarch64 Advanced SIMD) kernel table. aarch64 mandates Advanced
// SIMD, so no -m flag or runtime probe is needed — the table is simply
// absent off aarch64.
//
// Same bit-identity discipline as the AVX2 table (see simd_avx2.cpp):
// lanes map to distinct outputs or preserve the scalar per-element
// operation order, and multiplies and adds stay separate (vmulq + vaddq,
// never vfmaq).
#include "util/simd_kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace wsnex::util::simd::detail {
namespace {

constexpr std::size_t kW = 4;  // panel width (two float64x2_t per panel row)

void neon_gemv_transposed_packed(const double* packed, std::size_t rows,
                                 std::size_t cols, const double* x,
                                 double* out) {
  const std::size_t full = cols / kW;
  std::size_t p = 0;
  // Two panels (8 columns) per pass -> four independent add chains.
  for (; p + 2 <= full; p += 2) {
    const double* b0 = packed + (p + 0) * rows * kW;
    const double* b1 = packed + (p + 1) * rows * kW;
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const float64x2_t xi = vdupq_n_f64(x[i]);
      a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(b0 + kW * i), xi));
      a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(b0 + kW * i + 2), xi));
      a2 = vaddq_f64(a2, vmulq_f64(vld1q_f64(b1 + kW * i), xi));
      a3 = vaddq_f64(a3, vmulq_f64(vld1q_f64(b1 + kW * i + 2), xi));
    }
    vst1q_f64(out + (p + 0) * kW, a0);
    vst1q_f64(out + (p + 0) * kW + 2, a1);
    vst1q_f64(out + (p + 1) * kW, a2);
    vst1q_f64(out + (p + 1) * kW + 2, a3);
  }
  for (; p < full; ++p) {
    const double* b = packed + p * rows * kW;
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const float64x2_t xi = vdupq_n_f64(x[i]);
      a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(b + kW * i), xi));
      a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(b + kW * i + 2), xi));
    }
    vst1q_f64(out + p * kW, a0);
    vst1q_f64(out + p * kW + 2, a1);
  }
  if (const std::size_t tail = cols % kW) {
    const double* b = packed + full * rows * kW;
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const float64x2_t xi = vdupq_n_f64(x[i]);
      a0 = vaddq_f64(a0, vmulq_f64(vld1q_f64(b + kW * i), xi));
      a1 = vaddq_f64(a1, vmulq_f64(vld1q_f64(b + kW * i + 2), xi));
    }
    double lanes[kW];
    vst1q_f64(lanes, a0);
    vst1q_f64(lanes + 2, a1);
    for (std::size_t l = 0; l < tail; ++l) out[full * kW + l] = lanes[l];
  }
}

void neon_gemv_transposed(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const double* c0 = a + (j + 0) * rows;
    const double* c1 = a + (j + 1) * rows;
    const double* c2 = a + (j + 2) * rows;
    const double* c3 = a + (j + 3) * rows;
    float64x2_t s01 = vdupq_n_f64(0.0);
    float64x2_t s23 = vdupq_n_f64(0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const float64x2_t xi = vdupq_n_f64(x[i]);
      const float64x2_t v01 = {c0[i], c1[i]};
      const float64x2_t v23 = {c2[i], c3[i]};
      s01 = vaddq_f64(s01, vmulq_f64(v01, xi));
      s23 = vaddq_f64(s23, vmulq_f64(v23, xi));
    }
    vst1q_f64(out + j, s01);
    vst1q_f64(out + j + 2, s23);
  }
  for (; j < cols; ++j) {
    const double* c = a + j * rows;
    double acc = 0.0;
    for (std::size_t i = 0; i < rows; ++i) acc += c[i] * x[i];
    out[j] = acc;
  }
}

void neon_accumulate4(const double* c0, const double* c1, const double* c2,
                      const double* c3, const double s[4], double* y,
                      std::size_t n) {
  const float64x2_t s0 = vdupq_n_f64(s[0]);
  const float64x2_t s1 = vdupq_n_f64(s[1]);
  const float64x2_t s2 = vdupq_n_f64(s[2]);
  const float64x2_t s3 = vdupq_n_f64(s[3]);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t acc = vld1q_f64(y + i);
    acc = vaddq_f64(acc, vmulq_f64(s0, vld1q_f64(c0 + i)));
    acc = vaddq_f64(acc, vmulq_f64(s1, vld1q_f64(c1 + i)));
    acc = vaddq_f64(acc, vmulq_f64(s2, vld1q_f64(c2 + i)));
    acc = vaddq_f64(acc, vmulq_f64(s3, vld1q_f64(c3 + i)));
    vst1q_f64(y + i, acc);
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

void neon_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t prod = vmulq_f64(va, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void neon_fista_shrink(const double* z, const double* grad, double step,
                       double lambda, double* a, std::size_t n) {
  const float64x2_t vstep = vdupq_n_f64(step);
  const float64x2_t vthr = vdupq_n_f64(step * lambda);
  const uint64x2_t sign_mask = vdupq_n_u64(0x8000000000000000ULL);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t u =
        vsubq_f64(vld1q_f64(z + j), vmulq_f64(vstep, vld1q_f64(grad + j)));
    const float64x2_t mag = vsubq_f64(vabsq_f64(u), vthr);  // |u| - thr
    const uint64x2_t keep = vcgtq_f64(mag, vdupq_n_f64(0.0));
    const uint64x2_t sign =
        vandq_u64(vreinterpretq_u64_f64(u), sign_mask);
    const uint64x2_t signed_mag =
        vorrq_u64(vreinterpretq_u64_f64(mag), sign);
    vst1q_f64(a + j,
              vreinterpretq_f64_u64(vandq_u64(signed_mag, keep)));
  }
  for (; j < n; ++j) {
    const double u = z[j] - step * grad[j];
    const double shrink = std::abs(u) - step * lambda;
    a[j] = shrink > 0.0 ? std::copysign(shrink, u) : 0.0;
  }
}

void neon_fista_momentum(const double* a, const double* a_prev,
                         double momentum, double* z, std::size_t n) {
  const float64x2_t vm = vdupq_n_f64(momentum);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float64x2_t va = vld1q_f64(a + j);
    const float64x2_t diff = vsubq_f64(va, vld1q_f64(a_prev + j));
    vst1q_f64(z + j, vaddq_f64(va, vmulq_f64(vm, diff)));
  }
  for (; j < n; ++j) z[j] = a[j] + momentum * (a[j] - a_prev[j]);
}

double neon_max_abs(const double* x, std::size_t n) {
  float64x2_t vm = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vm = vmaxq_f64(vm, vabsq_f64(vld1q_f64(x + i)));
  }
  double m = vmaxvq_f64(vm);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void neon_dwt_analyze(const double* in, std::size_t n, const double* lp,
                      const double* hp, std::size_t taps, double* approx,
                      double* detail) {
  const std::size_t half = n / 2;
  std::size_t i = 0;
  // Two outputs per pass: vld2q_f64 deinterleaves win[k..k+3] into
  // even/odd pairs; the even pair is {in[2i+k], in[2i+k+2]} — lanes for
  // outputs i and i+1, accumulated in ascending k order. The 4-double load
  // reaches index 2i+k+3, so the vector body stops before the wrap.
  for (; i + 2 <= half && 2 * i + taps + 3 <= n; i += 2) {
    float64x2_t va = vdupq_n_f64(0.0);
    float64x2_t vd = vdupq_n_f64(0.0);
    const double* win = in + 2 * i;
    for (std::size_t k = 0; k < taps; ++k) {
      const float64x2x2_t pairs = vld2q_f64(win + k);
      const float64x2_t ev = pairs.val[0];
      va = vaddq_f64(va, vmulq_f64(vdupq_n_f64(lp[k]), ev));
      vd = vaddq_f64(vd, vmulq_f64(vdupq_n_f64(hp[k]), ev));
    }
    vst1q_f64(approx + i, va);
    vst1q_f64(detail + i, vd);
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

void neon_dwt_synthesize(const double* approx, const double* detail,
                         std::size_t half, const double* lp, const double* hp,
                         std::size_t taps, double* out) {
  const std::size_t n = 2 * half;
  std::memset(out, 0, n * sizeof(double));
  std::size_t i = 0;
  // i stays outer (serial) so each output position accumulates its
  // contributions in ascending i order, exactly like the scalar loop.
  for (; i < half && 2 * i + taps <= n; ++i) {
    const float64x2_t va = vdupq_n_f64(approx[i]);
    const float64x2_t vd = vdupq_n_f64(detail[i]);
    double* o = out + 2 * i;
    std::size_t k = 0;
    for (; k + 2 <= taps; k += 2) {
      const float64x2_t contrib = vaddq_f64(
          vmulq_f64(vld1q_f64(lp + k), va), vmulq_f64(vld1q_f64(hp + k), vd));
      vst1q_f64(o + k, vaddq_f64(vld1q_f64(o + k), contrib));
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

const Ops* neon_ops() {
  static constexpr Ops ops = {
      &neon_gemv_transposed_packed,
      &neon_gemv_transposed,
      &neon_accumulate4,
      &neon_axpy,
      &neon_fista_shrink,
      &neon_fista_momentum,
      &neon_max_abs,
      &neon_dwt_analyze,
      &neon_dwt_synthesize,
  };
  return &ops;
}

}  // namespace wsnex::util::simd::detail

#else  // !__aarch64__

namespace wsnex::util::simd::detail {

const Ops* neon_ops() { return nullptr; }

}  // namespace wsnex::util::simd::detail

#endif
