// Per-ISA DSP profile: times the real coordinator workloads (PRD
// calibration, CS round trips, DWT round trips) and the individual SIMD
// kernels under every instruction set this CPU can dispatch, so a single
// run shows what the runtime dispatch actually buys on this machine.
//
//   ./bench/profile_dsp [--json[=PATH]] [--quick]
//
// Each workload runs once per ISA via util::simd::set_active_isa() —
// scalar first (the reference), then the detected vector ISA when there
// is one. The bit-identity kernel contract means every ISA produces
// byte-identical results, so the numbers differ while the outputs do not.
// JSON rows carry seconds (best of N) plus the
// speedup-vs-scalar ratio per ISA; the committed BENCH_*.json files at
// the repo root embed numbers measured by this driver.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsp/cs_codec.hpp"
#include "dsp/ecg.hpp"
#include "dsp/prd_calibration.hpp"
#include "dsp/wavelet.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"

namespace {

using namespace wsnex;
namespace simd = util::simd;

/// Zero-mean ECG windows, the calibration corpus shape.
std::vector<std::vector<double>> make_windows(std::size_t count,
                                              std::size_t window) {
  dsp::EcgConfig config;
  config.seed = 42;
  dsp::EcgSynthesizer ecg(config);
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> w = ecg.generate_mv(window);
    const double mu = util::mean(w);
    for (double& s : w) s -= mu;
    out.push_back(std::move(w));
  }
  return out;
}

struct Timed {
  std::string name;
  std::string note;
  std::function<void()> body;
};

/// Times `body` once per ISA (scalar always first). Returns seconds per
/// ISA, parallel to `isas`.
std::vector<double> time_per_isa(const std::vector<simd::Isa>& isas, int reps,
                                 const std::function<void()>& body) {
  std::vector<double> seconds;
  seconds.reserve(isas.size());
  for (const simd::Isa isa : isas) {
    simd::set_active_isa(isa);
    body();  // warm caches and any lazy state under this ISA, untimed
    seconds.push_back(bench::best_of(reps, body));
  }
  simd::set_active_isa(simd::detected_isa());
  return seconds;
}

util::Json row_json(const Timed& t, const std::vector<simd::Isa>& isas,
                    const std::vector<double>& seconds) {
  util::Json row = util::Json::object();
  row.set("name", t.name);
  row.set("note", t.note);
  util::Json per_isa = util::Json::object();
  util::Json speedup = util::Json::object();
  for (std::size_t i = 0; i < isas.size(); ++i) {
    per_isa.set(simd::isa_name(isas[i]), seconds[i]);
    if (i > 0 && seconds[i] > 0.0) {
      speedup.set(simd::isa_name(isas[i]), seconds[0] / seconds[i]);
    }
  }
  row.set("seconds_per_isa", std::move(per_isa));
  row.set("speedup_vs_scalar", std::move(speedup));
  return row;
}

void report(const Timed& t, const std::vector<simd::Isa>& isas,
            const std::vector<double>& seconds) {
  std::fprintf(stderr, "%-28s", t.name.c_str());
  for (std::size_t i = 0; i < isas.size(); ++i) {
    std::fprintf(stderr, "  %s %.4f s", simd::isa_name(isas[i]), seconds[i]);
    if (i > 0 && seconds[i] > 0.0) {
      std::fprintf(stderr, " (%.2fx)", seconds[0] / seconds[i]);
    }
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  if (!bench::parse_args(argc, argv, args)) return 2;
  const bool quick = args.quick;
  const int reps = quick ? 1 : 3;

  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() != simd::Isa::kScalar) {
    isas.push_back(simd::detected_isa());
  }

  // --- Real workloads. --------------------------------------------------
  // Calibration configs: quick mode shrinks the grid, full mode is the
  // production default (what every cold process start pays).
  dsp::PrdCalibrationConfig calib;
  if (quick) {
    calib.cr_grid = {0.23, 0.32};
    calib.windows_per_point = 3;
  }
  const std::size_t rt_windows = quick ? 4 : 12;
  const auto windows = make_windows(rt_windows, dsp::CsCodecConfig{}.window);
  const double rt_cr = 0.29;

  std::vector<Timed> workloads;
  workloads.push_back(
      {"calibration_cs", "calibrate_cs (fresh codec per rep)", [&] {
         dsp::CsCodecConfig cs;
         (void)dsp::calibrate_cs(cs, calib);
       }});
  workloads.push_back(
      {"calibration_dwt", "calibrate_dwt (fresh codec per rep)", [&] {
         dsp::DwtCodecConfig dwt;
         (void)dsp::calibrate_dwt(dwt, calib);
       }});
  // Round trips reuse one codec so its dictionary cache is paid once in
  // the untimed warm-up pass and the timed region is pure decode.
  dsp::CsCodecConfig fista_cfg;
  fista_cfg.decoder = dsp::CsDecoder::kFista;
  const dsp::CsCodec fista_codec(fista_cfg);
  workloads.push_back({"cs_round_trip_fista",
                       "encode+FISTA decode, " + std::to_string(rt_windows) +
                           " windows at CR 0.29",
                       [&] { (void)fista_codec.round_trip_windows(windows, rt_cr); }});
  dsp::CsCodecConfig omp_cfg;
  omp_cfg.decoder = dsp::CsDecoder::kOmp;
  const dsp::CsCodec omp_codec(omp_cfg);
  workloads.push_back({"cs_round_trip_omp",
                       "encode+OMP decode, " + std::to_string(rt_windows) +
                           " windows at CR 0.29",
                       [&] { (void)omp_codec.round_trip_windows(windows, rt_cr); }});
  const dsp::WaveletTransform dwt_transform(dsp::WaveletKind::kDb4, 5);
  const std::size_t dwt_iters = quick ? 200 : 2000;
  workloads.push_back({"dwt_round_trip",
                       "db4/5-level forward+inverse x" +
                           std::to_string(dwt_iters),
                       [&] {
                         for (std::size_t i = 0; i < dwt_iters; ++i) {
                           (void)dwt_transform.inverse(
                               dwt_transform.forward(windows[i % windows.size()]));
                         }
                       }});

  // --- Kernel microbenchmarks (CS-decode-shaped operands). --------------
  const std::size_t km = 70;    // measurements at CR 0.29
  const std::size_t kn = 256;   // window / dictionary columns
  util::Rng rng(7);
  util::AlignedVector<double> mat(km * kn);
  for (double& v : mat) v = rng.uniform(-1.0, 1.0);
  util::AlignedVector<double> xm(km), xn(kn), yn(kn), zn(kn), out_n(kn);
  for (double& v : xm) v = rng.uniform(-1.0, 1.0);
  for (double& v : xn) v = rng.uniform(-1.0, 1.0);
  for (double& v : yn) v = rng.uniform(-1.0, 1.0);
  for (double& v : zn) v = rng.uniform(-1.0, 1.0);
  const simd::PackedGemv packed(mat, km, kn);
  util::AlignedVector<double> acc_m(km, 0.0);
  const std::size_t kiters = quick ? 2000 : 20000;

  std::vector<Timed> kernels;
  kernels.push_back({"gemv_transposed_packed",
                     "70x256 packed panels x" + std::to_string(kiters),
                     [&] {
                       for (std::size_t i = 0; i < kiters; ++i) {
                         packed.transposed(xm, out_n);
                       }
                     }});
  kernels.push_back({"gemv_accumulate",
                     "70x256 column accumulation x" + std::to_string(kiters),
                     [&] {
                       for (std::size_t i = 0; i < kiters; ++i) {
                         simd::gemv_accumulate(mat, km, kn, xn, acc_m,
                                               /*skip_zeros=*/false);
                       }
                     }});
  kernels.push_back({"fista_shrink+momentum", "n=256 element steps x" +
                                                  std::to_string(kiters),
                     [&] {
                       for (std::size_t i = 0; i < kiters; ++i) {
                         simd::fista_shrink(zn, xn, 0.25, 0.1, out_n);
                         simd::fista_momentum(out_n, yn, 0.4, zn);
                       }
                     }});
  const dsp::WaveletTransform db4(dsp::WaveletKind::kDb4, 1);
  std::vector<double> half_a(kn / 2), half_d(kn / 2), synth(kn);
  const std::vector<double> lp = {0.23037781330885523, 0.7148465705525415,
                                  0.6308807679295904, -0.02798376941698385,
                                  -0.18703481171888114, 0.030841381835986965,
                                  0.032883011666982945, -0.010597401784997278};
  std::vector<double> hp(lp.size());
  for (std::size_t k = 0; k < lp.size(); ++k) {
    hp[k] = ((k % 2 == 0) ? 1.0 : -1.0) * lp[lp.size() - 1 - k];
  }
  kernels.push_back({"dwt_analyze", "n=256 db4 analysis x" +
                                        std::to_string(kiters),
                     [&] {
                       for (std::size_t i = 0; i < kiters; ++i) {
                         simd::dwt_analyze(xn, lp, hp, half_a, half_d);
                       }
                     }});
  kernels.push_back({"dwt_synthesize", "n=256 db4 synthesis x" +
                                           std::to_string(kiters),
                     [&] {
                       for (std::size_t i = 0; i < kiters; ++i) {
                         simd::dwt_synthesize(half_a, half_d, lp, hp, synth);
                       }
                     }});

  // --- Run + emit. ------------------------------------------------------
  util::Json out = util::Json::object();
  out.set("bench", "profile_dsp");
  out.set("unit", "seconds of wall clock, best of " + std::to_string(reps));
  out.set("quick", quick);
  out.set("provenance", bench::provenance());
  out.set("detected_isa", simd::isa_name(simd::detected_isa()));
  out.set("forced_scalar_env", simd::scalar_forced_by_env());
  util::Json isa_list = util::Json::array();
  for (const simd::Isa isa : isas) isa_list.push_back(simd::isa_name(isa));
  out.set("isas", std::move(isa_list));

  util::Json workload_rows = util::Json::array();
  std::fprintf(stderr, "--- workloads ---\n");
  for (const Timed& t : workloads) {
    const std::vector<double> seconds = time_per_isa(isas, reps, t.body);
    report(t, isas, seconds);
    workload_rows.push_back(row_json(t, isas, seconds));
  }
  out.set("workloads", std::move(workload_rows));

  util::Json kernel_rows = util::Json::array();
  std::fprintf(stderr, "--- kernels ---\n");
  for (const Timed& t : kernels) {
    const std::vector<double> seconds = time_per_isa(isas, reps, t.body);
    report(t, isas, seconds);
    kernel_rows.push_back(row_json(t, isas, seconds));
  }
  out.set("kernels", std::move(kernel_rows));

  if (args.json && !bench::emit_json(out, args.json_path)) return 2;
  return 0;
}
