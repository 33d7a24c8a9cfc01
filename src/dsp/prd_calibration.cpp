#include "dsp/prd_calibration.hpp"

#include <cassert>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "dsp/quality.hpp"
#include "util/failpoint.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace wsnex::dsp {
namespace {

util::metrics::Counter& prd_cache_event(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_prd_cache_events_total",
      "PRD calibration disk-cache lookups by outcome", labels);
}

/// Counts cache *failures* that degraded to in-memory recompute — a cache
/// that exists but cannot be read, or a write that did not stick. Plain
/// misses and deliberate key mismatches are not degradation.
util::metrics::Counter& cache_degraded(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_cache_degraded_total",
      "Disk-cache failures degraded to in-memory recompute", labels);
}

/// Generates `count` zero-mean ECG windows of `window` samples.
std::vector<std::vector<double>> make_windows(std::size_t count,
                                              std::size_t window,
                                              std::uint64_t seed) {
  EcgConfig config;
  config.seed = seed;
  EcgSynthesizer ecg(config);
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

/// `round_trip_batch(windows, cr)` reconstructs every window at one CR —
/// codecs with a batch path amortize the per-CR dictionary and decoder
/// scratch across all windows of the grid point.
template <typename RoundTripBatch>
PrdCurve calibrate_impl(std::size_t window, const PrdCalibrationConfig& calib,
                        RoundTripBatch&& round_trip_batch) {
  assert(!calib.cr_grid.empty());
  assert(calib.windows_per_point > 0);
  const auto windows =
      make_windows(calib.windows_per_point, window, calib.ecg_seed);

  PrdCurve curve;
  std::vector<double> xs;
  std::vector<double> ys;
  for (double cr : calib.cr_grid) {
    util::RunningStats stats;
    const std::vector<std::vector<double>> recovered =
        round_trip_batch(windows, cr);
    assert(recovered.size() == windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      stats.add(prd_percent(windows[w], recovered[w]));
    }
    PrdMeasurement point;
    point.cr = cr;
    point.prd_percent = stats.mean();
    point.prd_stddev = stats.stddev();
    curve.measurements.push_back(point);
    xs.push_back(cr);
    ys.push_back(point.prd_percent);
  }
  const unsigned degree =
      std::min<std::size_t>(calib.fit_degree, xs.size() - 1);
  curve.fitted = util::fit_polynomial(xs, ys, degree);
  curve.fit_r_squared = util::r_squared(curve.fitted, xs, ys);
  return curve;
}

}  // namespace

PrdCurve calibrate_dwt(const DwtCodecConfig& codec,
                       const PrdCalibrationConfig& calib) {
  const DwtCodec dwt(codec);
  return calibrate_impl(
      codec.window, calib,
      [&](const std::vector<std::vector<double>>& windows, double cr) {
        std::vector<std::vector<double>> out;
        out.reserve(windows.size());
        for (const auto& w : windows) out.push_back(dwt.round_trip(w, cr));
        return out;
      });
}

PrdCurve calibrate_cs(const CsCodecConfig& codec,
                      const PrdCalibrationConfig& calib) {
  const CsCodec cs(codec);
  return calibrate_impl(
      codec.window, calib,
      [&](const std::vector<std::vector<double>>& windows, double cr) {
        return cs.round_trip_windows(windows, cr);
      });
}

namespace {

constexpr int kPrdCacheFormatVersion = 1;
constexpr const char* kPrdCacheFile = "prd_calibration.json";

/// The cache key: every knob that influences the calibration output. Two
/// processes whose key JSON differs must never share a cache entry —
/// correctness is by key construction, not by trust in the file.
util::Json cache_key() {
  const DwtCodecConfig dwt;
  const CsCodecConfig cs;
  const PrdCalibrationConfig calib;
  util::Json dwt_json = util::Json::object();
  dwt_json.set("wavelet", static_cast<std::int64_t>(dwt.wavelet));
  dwt_json.set("levels", dwt.levels);
  dwt_json.set("window", dwt.window);
  dwt_json.set("sample_bits", static_cast<std::int64_t>(dwt.sample_bits));
  dwt_json.set("value_bits", static_cast<std::int64_t>(dwt.value_bits));
  dwt_json.set("header_bits", static_cast<std::int64_t>(dwt.header_bits));
  util::Json cs_json = util::Json::object();
  cs_json.set("wavelet", static_cast<std::int64_t>(cs.wavelet));
  cs_json.set("levels", cs.levels);
  cs_json.set("window", cs.window);
  cs_json.set("ones_per_column", cs.ones_per_column);
  cs_json.set("sample_bits", static_cast<std::int64_t>(cs.sample_bits));
  cs_json.set("value_bits", static_cast<std::int64_t>(cs.value_bits));
  cs_json.set("header_bits", static_cast<std::int64_t>(cs.header_bits));
  cs_json.set("matrix_seed", static_cast<std::int64_t>(cs.matrix_seed));
  cs_json.set("decoder", static_cast<std::int64_t>(cs.decoder));
  cs_json.set("omp_max_atoms", cs.omp_max_atoms);
  cs_json.set("omp_residual_tol", cs.omp_residual_tol);
  util::Json stages = util::Json::array();
  for (const double s : cs.fista_lambda_stages) stages.push_back(s);
  cs_json.set("fista_lambda_stages", std::move(stages));
  cs_json.set("fista_iters_per_stage", cs.fista_iters_per_stage);
  util::Json calib_json = util::Json::object();
  util::Json crs = util::Json::array();
  for (const double cr : calib.cr_grid) crs.push_back(cr);
  calib_json.set("cr_grid", std::move(crs));
  calib_json.set("windows_per_point", calib.windows_per_point);
  calib_json.set("ecg_seed", static_cast<std::int64_t>(calib.ecg_seed));
  calib_json.set("fit_degree", static_cast<std::int64_t>(calib.fit_degree));
  util::Json key = util::Json::object();
  key.set("dwt_codec", std::move(dwt_json));
  key.set("cs_codec", std::move(cs_json));
  key.set("calibration", std::move(calib_json));
  // The dispatched ISA is deliberately NOT in the key: the SIMD kernels
  // are bit-identical to the scalar reference, so curves are
  // ISA-independent.
  return key;
}

util::Json curve_to_json(const PrdCurve& curve) {
  util::Json json = util::Json::object();
  util::Json measurements = util::Json::array();
  for (const PrdMeasurement& m : curve.measurements) {
    util::Json point = util::Json::object();
    point.set("cr", m.cr);
    point.set("prd_percent", m.prd_percent);
    point.set("prd_stddev", m.prd_stddev);
    measurements.push_back(std::move(point));
  }
  json.set("measurements", std::move(measurements));
  util::Json coeffs = util::Json::array();
  for (const double c : curve.fitted.coefficients()) coeffs.push_back(c);
  json.set("coefficients", std::move(coeffs));
  json.set("fit_r_squared", curve.fit_r_squared);
  return json;
}

PrdCurve curve_from_json(const util::Json& json) {
  PrdCurve curve;
  for (const util::Json& point : json.at("measurements").as_array()) {
    PrdMeasurement m;
    m.cr = point.at("cr").as_double();
    m.prd_percent = point.at("prd_percent").as_double();
    m.prd_stddev = point.at("prd_stddev").as_double();
    curve.measurements.push_back(m);
  }
  std::vector<double> coeffs;
  for (const util::Json& c : json.at("coefficients").as_array()) {
    coeffs.push_back(c.as_double());
  }
  curve.fitted = util::Polynomial(std::move(coeffs));
  curve.fit_r_squared = json.at("fit_r_squared").as_double();
  return curve;
}

std::optional<DefaultPrdCurves> try_load_cache(const std::string& path) {
  if (const auto fault = util::failpoint::evaluate("prd_cache.read")) {
    WSNEX_WARN() << path << ": calibration cache read failed (injected), "
                 << "recalibrating in memory";
    static auto& degraded = cache_degraded("op=\"read\"");
    degraded.inc();
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    const util::Json json = util::Json::parse(ss.str());
    if (json.at("format_version").as_int64() != kPrdCacheFormatVersion ||
        !(json.at("key") == cache_key())) {
      WSNEX_WARN() << path
                   << ": calibration cache key mismatch, recalibrating";
      return std::nullopt;
    }
    DefaultPrdCurves curves;
    curves.dwt = curve_from_json(json.at("dwt"));
    curves.cs = curve_from_json(json.at("cs"));
    return curves;
  } catch (const std::exception& e) {
    WSNEX_WARN() << path << ": unusable calibration cache (" << e.what()
                 << "), recalibrating";
    // The file exists but cannot serve: torn write, corruption, or a
    // read error — degradation, unlike a plain miss or key mismatch.
    static auto& degraded = cache_degraded("op=\"read\"");
    degraded.inc();
    return std::nullopt;
  }
}

void try_save_cache(const std::string& dir, const std::string& path,
                    const DefaultPrdCurves& curves) {
  util::Json json = util::Json::object();
  json.set("format_version", kPrdCacheFormatVersion);
  json.set("key", cache_key());
  json.set("dwt", curve_to_json(curves.dwt));
  json.set("cs", curve_to_json(curves.cs));
  try {
    std::filesystem::create_directories(dir);
    util::write_file_atomic(path, json.dump(2), "prd_cache.write");
  } catch (const std::exception& e) {
    // The cache is an accelerator, never a correctness dependency: a
    // failed write degrades to recomputing the calibration next process.
    WSNEX_WARN() << "calibration cache write failed: " << e.what();
    static auto& degraded = cache_degraded("op=\"write\"");
    degraded.inc();
  }
}

std::mutex g_default_curves_mutex;
std::string g_default_cache_dir;                    // guarded by the mutex
std::optional<DefaultPrdCurves> g_default_curves;   // guarded by the mutex

}  // namespace

DefaultPrdCurves load_or_calibrate_default_prd_curves(const std::string& dir) {
  if (dir.empty()) {
    util::trace::Span span("prd:calibrate");
    DefaultPrdCurves curves;
    curves.dwt = calibrate_dwt();
    curves.cs = calibrate_cs();
    return curves;
  }
  const std::string path =
      (std::filesystem::path(dir) / kPrdCacheFile).string();
  if (std::optional<DefaultPrdCurves> cached = try_load_cache(path)) {
    static auto& hits = prd_cache_event("outcome=\"hit\"");
    hits.inc();
    return *std::move(cached);
  }
  static auto& misses = prd_cache_event("outcome=\"miss\"");
  misses.inc();
  util::trace::Span span("prd:calibrate");
  DefaultPrdCurves curves;
  curves.dwt = calibrate_dwt();
  curves.cs = calibrate_cs();
  try_save_cache(dir, path, curves);
  return curves;
}

bool set_default_prd_cache_dir(const std::string& dir) {
  const std::lock_guard<std::mutex> lock(g_default_curves_mutex);
  if (g_default_curves.has_value()) return false;
  g_default_cache_dir = dir;
  return true;
}

const DefaultPrdCurves& default_prd_curves() {
  const std::lock_guard<std::mutex> lock(g_default_curves_mutex);
  if (!g_default_curves.has_value()) {
    g_default_curves = load_or_calibrate_default_prd_curves(
        g_default_cache_dir);
  }
  return *g_default_curves;
}

}  // namespace wsnex::dsp
