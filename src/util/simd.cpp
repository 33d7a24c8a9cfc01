#include "util/simd.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/simd_kernels.hpp"

namespace wsnex::util::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the arithmetic specification: every
// other ISA's table must match them bit-for-bit. The blocked shapes are
// the earlier util::linalg kernels moved here verbatim.
//
// This TU (and the per-ISA TUs) is compiled with -ffp-contract=off — see
// src/util/CMakeLists.txt. Without it, compilers that contract by default
// on FMA-baseline targets (GCC/Clang on aarch64) would fuse the
// `acc += a[i] * b[i]` loops below into single-rounded fmadd, while the
// NEON kernels deliberately use separate vmulq/vaddq — breaking the very
// scalar-vs-SIMD bit identity these functions specify.
// ---------------------------------------------------------------------------

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void scalar_gemv_transposed_packed(const double* packed, std::size_t rows,
                                   std::size_t cols, const double* x,
                                   double* out) {
  const std::size_t panels = (cols + kPanelWidth - 1) / kPanelWidth;
  for (std::size_t p = 0; p < panels; ++p) {
    const double* base = packed + p * rows * kPanelWidth;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double xi = x[i];
      const double* row = base + i * kPanelWidth;
      s0 += row[0] * xi;
      s1 += row[1] * xi;
      s2 += row[2] * xi;
      s3 += row[3] * xi;
    }
    const double lanes[kPanelWidth] = {s0, s1, s2, s3};
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t width = cols - j0 < kPanelWidth ? cols - j0 : kPanelWidth;
    for (std::size_t l = 0; l < width; ++l) out[j0 + l] = lanes[l];
  }
}

void scalar_gemv_transposed(const double* a, std::size_t rows,
                            std::size_t cols, const double* x, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const double* c0 = a + j * rows;
    const double* c1 = c0 + rows;
    const double* c2 = c1 + rows;
    const double* c3 = c2 + rows;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double xi = x[i];
      s0 += c0[i] * xi;
      s1 += c1[i] * xi;
      s2 += c2[i] * xi;
      s3 += c3[i] * xi;
    }
    out[j] = s0;
    out[j + 1] = s1;
    out[j + 2] = s2;
    out[j + 3] = s3;
  }
  for (; j < cols; ++j) out[j] = scalar_dot(a + j * rows, x, rows);
}

void scalar_accumulate4(const double* c0, const double* c1, const double* c2,
                        const double* c3, const double s[4], double* y,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    acc += s[0] * c0[i];
    acc += s[1] * c1[i];
    acc += s[2] * c2[i];
    acc += s[3] * c3[i];
    y[i] = acc;
  }
}

void scalar_axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_fista_shrink(const double* z, const double* grad, double step,
                         double lambda, double* a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double u = z[j] - step * grad[j];
    const double shrink = std::abs(u) - step * lambda;
    a[j] = shrink > 0.0 ? std::copysign(shrink, u) : 0.0;
  }
}

void scalar_fista_momentum(const double* a, const double* a_prev,
                           double momentum, double* z, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    z[j] = a[j] + momentum * (a[j] - a_prev[j]);
  }
}

double scalar_max_abs(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void scalar_dwt_analyze(const double* in, std::size_t n, const double* lp,
                        const double* hp, std::size_t taps, double* approx,
                        double* detail) {
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < half; ++i) {
    double a = 0.0;
    double d = 0.0;
    for (std::size_t k = 0; k < taps; ++k) {
      const double x = in[(2 * i + k) % n];  // periodic extension
      a += lp[k] * x;
      d += hp[k] * x;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

void scalar_dwt_synthesize(const double* approx, const double* detail,
                           std::size_t half, const double* lp,
                           const double* hp, std::size_t taps, double* out) {
  const std::size_t n = 2 * half;
  std::memset(out, 0, n * sizeof(double));
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t k = 0; k < taps; ++k) {
      const std::size_t pos = (2 * i + k) % n;
      out[pos] += lp[k] * approx[i] + hp[k] * detail[i];
    }
  }
}

}  // namespace

namespace detail {

const Ops& scalar_ops() {
  static constexpr Ops ops = {
      &scalar_gemv_transposed_packed,
      &scalar_gemv_transposed,
      &scalar_accumulate4,
      &scalar_axpy,
      &scalar_fista_shrink,
      &scalar_fista_momentum,
      &scalar_max_abs,
      &scalar_dwt_analyze,
      &scalar_dwt_synthesize,
  };
  return ops;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch: resolved once on first use, overridable for tests/profiling.
// ---------------------------------------------------------------------------

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

const detail::Ops* ops_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &detail::scalar_ops();
    case Isa::kAvx2:
      return detail::avx2_ops();
    case Isa::kNeon:
      return detail::neon_ops();
  }
  return nullptr;
}

struct Dispatch {
  std::atomic<const detail::Ops*> ops;
  std::atomic<Isa> isa;
  bool forced_scalar_env = false;

  Dispatch() {
    Isa selected = detected_isa();
    forced_scalar_env = env_flag("WSNEX_FORCE_SCALAR");
    if (forced_scalar_env) selected = Isa::kScalar;
    isa.store(selected, std::memory_order_relaxed);
    ops.store(ops_for(selected), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const detail::Ops& ops() {
  return *dispatch().ops.load(std::memory_order_relaxed);
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa detected_isa() {
  if (detail::neon_ops() != nullptr) return Isa::kNeon;
#if defined(__x86_64__) || defined(__i386__)
  if (detail::avx2_ops() != nullptr && __builtin_cpu_supports("avx2")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

Isa active_isa() { return dispatch().isa.load(std::memory_order_relaxed); }

bool scalar_forced_by_env() { return dispatch().forced_scalar_env; }

bool set_active_isa(Isa isa) {
  const detail::Ops* table = ops_for(isa);
  if (table == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
  if (isa == Isa::kAvx2 && !__builtin_cpu_supports("avx2")) return false;
#endif
  dispatch().isa.store(isa, std::memory_order_relaxed);
  dispatch().ops.store(table, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// PackedGemv
// ---------------------------------------------------------------------------

PackedGemv::PackedGemv(std::span<const double> a, std::size_t rows,
                       std::size_t cols)
    : rows_(rows), cols_(cols) {
  assert(a.size() >= rows * cols);
  const std::size_t panels = (cols + kPanelWidth - 1) / kPanelWidth;
  packed_.assign(panels * rows * kPanelWidth, 0.0);
  for (std::size_t j = 0; j < cols; ++j) {
    const double* col = a.data() + j * rows;
    double* dst =
        packed_.data() + (j / kPanelWidth) * rows * kPanelWidth +
        j % kPanelWidth;
    for (std::size_t i = 0; i < rows; ++i) dst[i * kPanelWidth] = col[i];
  }
}

void PackedGemv::transposed(std::span<const double> x,
                            std::span<double> out) const {
  assert(x.size() >= rows_);
  assert(out.size() >= cols_);
  if (cols_ == 0) return;
  ops().gemv_transposed_packed(packed_.data(), rows_, cols_, x.data(),
                               out.data());
}

// ---------------------------------------------------------------------------
// Public wrappers
// ---------------------------------------------------------------------------

void gemv_transposed(std::span<const double> a, std::size_t rows,
                     std::size_t cols, std::span<const double> x,
                     std::span<double> out) {
  assert(a.size() >= rows * cols);
  assert(x.size() >= rows);
  assert(out.size() >= cols);
  if (cols == 0) return;
  ops().gemv_transposed(a.data(), rows, cols, x.data(), out.data());
}

void gemv_accumulate(std::span<const double> a, std::size_t rows,
                     std::size_t cols, std::span<const double> coeffs,
                     std::span<double> y, bool skip_zeros) {
  assert(a.size() >= rows * cols);
  assert(coeffs.size() >= cols);
  assert(y.size() >= rows);
  const detail::Ops& k = ops();
  const double* base = a.data();
  double* ys = y.data();
  // Gather up to four consecutive (nonzero, when skip_zeros) columns, then
  // apply their contributions element-wise in column order — matching the
  // rounding of one axpy per column — with y touched once per block. The
  // zero skip is part of the reproduced arithmetic (it can flip a signed
  // zero), not just an optimization.
  const double* col[4];
  double scale[4];
  std::size_t filled = 0;
  const auto flush = [&] {
    if (filled == 4) {
      k.accumulate4(col[0], col[1], col[2], col[3], scale, ys, rows);
    } else {
      for (std::size_t i = 0; i < filled; ++i) {
        k.axpy(scale[i], col[i], ys, rows);
      }
    }
    filled = 0;
  };
  for (std::size_t j = 0; j < cols; ++j) {
    if (skip_zeros && coeffs[j] == 0.0) continue;
    col[filled] = base + j * rows;
    scale[filled] = coeffs[j];
    if (++filled == 4) flush();
  }
  flush();
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  ops().axpy(alpha, x.data(), y.data(), x.size());
}

void fista_shrink(std::span<const double> z, std::span<const double> grad,
                  double step, double lambda, std::span<double> a) {
  assert(z.size() == grad.size() && z.size() == a.size());
  ops().fista_shrink(z.data(), grad.data(), step, lambda, a.data(), a.size());
}

void fista_momentum(std::span<const double> a, std::span<const double> a_prev,
                    double momentum, std::span<double> z) {
  assert(a.size() == a_prev.size() && a.size() == z.size());
  ops().fista_momentum(a.data(), a_prev.data(), momentum, z.data(), z.size());
}

double max_abs(std::span<const double> x) {
  return ops().max_abs(x.data(), x.size());
}

void dwt_analyze(std::span<const double> in, std::span<const double> lowpass,
                 std::span<const double> highpass, std::span<double> approx,
                 std::span<double> detail) {
  assert(in.size() % 2 == 0);
  assert(approx.size() == in.size() / 2 && detail.size() == in.size() / 2);
  assert(lowpass.size() == highpass.size());
  if (in.empty()) return;
  ops().dwt_analyze(in.data(), in.size(), lowpass.data(), highpass.data(),
                    lowpass.size(), approx.data(), detail.data());
}

void dwt_synthesize(std::span<const double> approx,
                    std::span<const double> detail,
                    std::span<const double> lowpass,
                    std::span<const double> highpass, std::span<double> out) {
  assert(out.size() == 2 * approx.size());
  assert(detail.size() == approx.size());
  assert(lowpass.size() == highpass.size());
  if (approx.empty()) return;
  ops().dwt_synthesize(approx.data(), detail.data(), approx.size(),
                       lowpass.data(), highpass.data(), lowpass.size(),
                       out.data());
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return scalar_dot(a.data(), b.data(), a.size());
}

double sum_sq(std::span<const double> x) {
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return acc;
}

double sum_sq_diff(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace wsnex::util::simd
