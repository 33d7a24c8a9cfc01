#include "dsp/quality.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "util/simd.hpp"
#include "util/stats.hpp"

namespace wsnex::dsp {
namespace {

double sum_sq(std::span<const double> xs) { return util::simd::sum_sq(xs); }

double sum_sq_diff(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  return util::simd::sum_sq_diff(a, b);
}

}  // namespace

double prd_percent(std::span<const double> original,
                   std::span<const double> reconstructed) {
  const double denom = sum_sq(original);
  if (denom == 0.0) return 0.0;
  return 100.0 * std::sqrt(sum_sq_diff(original, reconstructed) / denom);
}

double prdn_percent(std::span<const double> original,
                    std::span<const double> reconstructed) {
  const double mu = util::mean(original);
  std::vector<double> centered(original.begin(), original.end());
  for (double& x : centered) x -= mu;
  std::vector<double> centered_hat(reconstructed.begin(), reconstructed.end());
  for (double& x : centered_hat) x -= mu;
  return prd_percent(centered, centered_hat);
}

double rmse(std::span<const double> original,
            std::span<const double> reconstructed) {
  if (original.empty()) return 0.0;
  return std::sqrt(sum_sq_diff(original, reconstructed) /
                   static_cast<double>(original.size()));
}

double snr_db(std::span<const double> original,
              std::span<const double> reconstructed) {
  const double err = sum_sq_diff(original, reconstructed);
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  const double sig = sum_sq(original);
  if (sig == 0.0) return -std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(sig / err);
}

}  // namespace wsnex::dsp
