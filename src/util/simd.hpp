// Arch-tuned SIMD kernels for the DSP cold path, with runtime dispatch.
//
// One binary carries scalar, AVX2 and NEON implementations of the hot
// kernels (transposed GEMV, column accumulation, the FISTA element steps,
// OMP correlation scoring via the GEMV, DWT filter-bank passes and the
// PRD/RMSE reductions). The fastest ISA the CPU supports is selected once
// on first use — CPUID on x86, unconditional on aarch64 — so the same
// build serves every deployment; `WSNEX_FORCE_SCALAR=1` pins the scalar
// reference path and `wsnex version` reports what was picked.
//
// Bit-identity contract: every kernel here reproduces the scalar
// implementation bit-for-bit on every ISA — per-output accumulation order
// is preserved and multiplies/adds stay separate (no FMA contraction), so
// campaign archives, calibration caches and checkpoint/resume comparisons
// are byte-identical regardless of the dispatched ISA. The reductions
// (dot, sum of squares) cannot be vectorized without reassociating the
// sum, so they always run the scalar reference.
//
// NaN contract: kernel inputs must be NaN-free; results for NaN inputs
// are unspecified and the bit-identity guarantee is void for them. The
// vector instructions propagate NaN differently from the scalar
// reference — x86 max_pd returns its second operand when a lane compares
// unordered (so a NaN lane can poison avx2_max_abs where scalar std::max
// would ignore it), and the ordered non-signaling compares in the
// fista_shrink blends treat NaN as "not greater" where the scalar
// copysign path would pass it through. The DSP pipeline never produces
// NaN (synthesized ECG in, finite filters/dictionaries), so this is a
// contract on callers, not a runtime check.
#pragma once

#include <cstddef>
#include <span>

#include "util/aligned.hpp"

namespace wsnex::util::simd {

/// Instruction sets the kernel layer can dispatch to.
enum class Isa {
  kScalar,  ///< reference implementation, always available
  kAvx2,    ///< x86-64 AVX2 (256-bit lanes)
  kNeon,    ///< aarch64 Advanced SIMD (128-bit lanes)
};

/// Display name: "scalar", "avx2", "neon".
const char* isa_name(Isa isa);

/// Best ISA this CPU supports, ignoring any override.
Isa detected_isa();

/// The ISA the dispatched kernels currently run on. Resolved once on
/// first use: detected_isa(), unless WSNEX_FORCE_SCALAR is set to a
/// non-empty value other than "0".
Isa active_isa();

/// True when the WSNEX_FORCE_SCALAR environment override pinned the
/// scalar path at resolution time.
bool scalar_forced_by_env();

/// Re-points the dispatch (tests and the profiling harness compare ISAs
/// in one process). Returns false — and changes nothing — if this CPU
/// does not support `isa`. Thread-safe; affects subsequent kernel calls.
bool set_active_isa(Isa isa);

/// Always false: reductions never reassociate. Kept only because the
/// wsnbench provenance output prints it; remove it with wsnbench's next
/// revision.
constexpr bool reassociation_enabled() { return false; }

// ---------------------------------------------------------------------------
// Dispatched kernels — bit-identical across ISAs.
// ---------------------------------------------------------------------------

/// Columns per packed panel. Fixed across ISAs so a matrix packed once is
/// valid whatever the dispatch later selects (AVX2 consumes a panel as one
/// 4-lane vector, NEON as two 2-lane vectors, scalar as four chains).
inline constexpr std::size_t kPanelWidth = 4;

/// A column-major matrix repacked into panels of kPanelWidth interleaved
/// columns: panel p stores columns 4p..4p+3 element-interleaved
/// (packed[p*rows*4 + i*4 + lane] = a[(4p+lane)*rows + i]), padded with
/// zero columns past `cols`. Row i of a panel is one aligned 32-byte
/// vector, which turns the transposed GEMV's strided column gather into a
/// single load — pack once (the CS decoder packs per cached dictionary),
/// run transposed() hundreds of times per decode.
class PackedGemv {
 public:
  PackedGemv() = default;
  /// Packs the column-major `a` (column j at a[j * rows], a.size() >=
  /// rows * cols).
  PackedGemv(std::span<const double> a, std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return cols_ == 0; }

  /// out[j] = dot(column j, x) for j in [0, cols) — bit-identical to
  /// util::gemv_transposed on the unpacked matrix (per-output accumulation
  /// in ascending row order). x.size() >= rows, out.size() >= cols.
  void transposed(std::span<const double> x, std::span<double> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector<double> packed_;
};

/// Plain column-major transposed GEMV (see util::gemv_transposed, which
/// forwards here).
void gemv_transposed(std::span<const double> a, std::size_t rows,
                     std::size_t cols, std::span<const double> x,
                     std::span<double> out);

/// Blocked column accumulation (see util::gemv_accumulate, which forwards
/// here): y += sum_j coeffs[j] * column j in ascending column order per
/// element, optionally skipping exact-zero coefficients.
void gemv_accumulate(std::span<const double> a, std::size_t rows,
                     std::size_t cols, std::span<const double> coeffs,
                     std::span<double> y, bool skip_zeros);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// FISTA proximal (soft-threshold) step over the extrapolated point:
/// a[j] = sgn(u) * max(|u| - step*lambda, 0) with u = z[j] - step*grad[j],
/// reproducing the scalar loop's copysign semantics exactly for NaN-free
/// inputs (a NaN u takes the "not greater" branch in the vector compare,
/// unspecified per the header contract).
void fista_shrink(std::span<const double> z, std::span<const double> grad,
                  double step, double lambda, std::span<double> a);

/// FISTA momentum extrapolation: z[j] = a[j] + momentum*(a[j] - a_prev[j]).
void fista_momentum(std::span<const double> a, std::span<const double> a_prev,
                    double momentum, std::span<double> z);

/// max_j |x[j]| (0.0 when empty). Exact on every ISA for NaN-free input:
/// max over the non-negative magnitudes is order-independent. A NaN
/// element yields an unspecified result (see the header contract — the
/// vector max does not mirror std::max's NaN handling).
double max_abs(std::span<const double> x);

/// One periodized DWT analysis step (in.size() even, halves to
/// approx/detail): per output, taps accumulate in ascending k order.
void dwt_analyze(std::span<const double> in, std::span<const double> lowpass,
                 std::span<const double> highpass, std::span<double> approx,
                 std::span<double> detail);

/// One periodized DWT synthesis step (out.size() == 2 * approx.size());
/// out is zero-filled, then contributions land in ascending (i, k) order
/// per output position.
void dwt_synthesize(std::span<const double> approx,
                    std::span<const double> detail,
                    std::span<const double> lowpass,
                    std::span<const double> highpass, std::span<double> out);

// ---------------------------------------------------------------------------
// Reductions — scalar left-to-right accumulation on every ISA.
// ---------------------------------------------------------------------------

/// Inner product.
double dot(std::span<const double> a, std::span<const double> b);

/// sum_i x[i]^2.
double sum_sq(std::span<const double> x);

/// sum_i (a[i] - b[i])^2.
double sum_sq_diff(std::span<const double> a, std::span<const double> b);

}  // namespace wsnex::util::simd
