// `validate` workload: the paper's model-vs-simulation check as
// `wsnex validate -o DIR` performs it — run_validation + persist_validation
// per preset, jobs 1 — on the three presets whose access modes and channels
// differ most in simulated event count: TDMA on an ideal channel, TDMA
// under Gilbert-Elliott bursts, and slotted CSMA/CA.
//
// The traced pass times the same two product calls, then makes side calls
// that rebuild the validation from outside: reference_design + lower, and
// every replicate of the plan replayed through sim::run_network with
// ReplicationPlan::replicate_seed. Aggregation is the residual.
#include <filesystem>

#include "common.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"
#include "validate/validation.hpp"

namespace wsnbench {

namespace {

namespace fs = std::filesystem;
using wsnex::scenario::ScenarioSpec;
using wsnex::validate::ValidationOptions;

// Replicates x simulated seconds per preset: sized so one pass (three
// presets) takes a few hundred milliseconds, i.e. dozens of passes per run.
constexpr std::size_t kReplicates = 48;
constexpr double kDurationS = 120.0;

const char* const kPresets[] = {"hospital_ward_6", "bursty_channel_6",
                                "contended_csma_6"};

ValidationOptions validation_options(std::uint64_t base_seed) {
  ValidationOptions options;
  options.plan.replicates = kReplicates;
  options.plan.jobs = 1;
  options.plan.duration_s = kDurationS;
  options.plan.base_seed = base_seed;
  return options;
}

std::string report_digest(const wsnex::scenario::ResultStore& store,
                          const std::string& name) {
  Digest d;
  d.add_file(store.validation_json_path(name));
  d.add_file(store.validation_csv_path(name));
  return d.hex();
}

struct Pass {
  double calls_s = 0.0;  ///< in run_validation + persist_validation
  std::size_t replicates = 0;
  std::vector<std::string> digests;
};

Pass run_pass(const std::vector<ScenarioSpec>& specs,
              const std::vector<std::uint64_t>& seeds, const std::string& dir,
              Result& result) {
  Pass pass;
  const wsnex::scenario::ResultStore store(dir);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ++result.attempted;
    pass.digests.emplace_back();  // stays empty when the validation throws
    try {
      const double t0 = now_s();
      const auto report =
          wsnex::validate::run_validation(specs[i], validation_options(seeds[i]));
      wsnex::validate::persist_validation(store, report);
      pass.calls_s += now_s() - t0;
      pass.replicates += report.replicates;
      pass.digests.back() = report_digest(store, specs[i].name);
    } catch (const std::exception& e) {
      result.fail("validation threw");
      result.notes.push_back(specs[i].name + ": " + e.what());
    }
  }
  return pass;
}

/// Counts validations whose outputs differ from the reference pass (a
/// validation that threw is already counted).
void compare_digests(const Pass& pass, const Pass& reference, Result& result,
                     const char* cause) {
  for (std::size_t i = 0; i < pass.digests.size(); ++i) {
    if (!pass.digests[i].empty() && pass.digests[i] != reference.digests[i]) {
      result.fail(cause);
    }
  }
}

void traced_pass(const std::vector<ScenarioSpec>& specs,
                 const std::vector<std::uint64_t>& seeds,
                 const Options& options, double untraced_pass_s,
                 const Pass& reference, Result& result) {
  const std::string dir = options.work_dir + "/traced";
  const wsnex::scenario::ResultStore store(dir);
  double product_s = 0.0, calls_s = 0.0, run_s = 0.0, persist_s = 0.0;
  double lower_s = 0.0, sim_s = 0.0;
  double events = 0.0;
  Pass traced;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ++result.attempted;
    const ValidationOptions vopts = validation_options(seeds[i]);
    const double seg = now_s();
    double t0 = now_s();
    const auto report = wsnex::validate::run_validation(specs[i], vopts);
    double t1 = now_s();
    wsnex::validate::persist_validation(store, report);
    const double t2 = now_s();
    product_s += t2 - seg;
    calls_s += t2 - t0;
    run_s += t1 - t0;
    persist_s += t2 - t1;

    // Side calls (not product path).
    t0 = now_s();
    const auto evaluator = wsnex::model::NetworkModelEvaluator::make_default(
        specs[i].evaluator_options());
    const auto low = wsnex::validate::lower(
        specs[i], evaluator,
        wsnex::validate::reference_design(specs[i], evaluator));
    lower_s += now_s() - t0;
    for (std::size_t r = 0; r < vopts.plan.replicates; ++r) {
      wsnex::sim::NetworkScenario sc = low.sim;
      sc.duration_s = vopts.plan.duration_s;
      sc.seed = wsnex::validate::ReplicationPlan::replicate_seed(
          vopts.plan.base_seed, r);
      t0 = now_s();
      const wsnex::sim::NetworkResult sim = wsnex::sim::run_network(sc);
      sim_s += now_s() - t0;
      events += static_cast<double>(sim.events_executed);
    }
  }
  for (const ScenarioSpec& spec : specs) {
    traced.digests.push_back(report_digest(store, spec.name));
  }
  compare_digests(traced, reference, result, "traced digest differs");

  result.check_exact("sim.events", events);
  auto& m = result.metrics;
  m["validate.lower_s"] = lower_s;
  m["sim.ns_per_event"] = events > 0.0 ? sim_s * 1e9 / events : 0.0;
  m["validate.aggregate_s"] = run_s - lower_s - sim_s;
  m["validate.persist_s"] = persist_s;
  m["unattributed_s"] = product_s - calls_s;
  m["trace_overhead"] = product_s / untraced_pass_s - 1.0;
}

}  // namespace

Result run_validate(const Options& options) {
  Result result;
  std::vector<ScenarioSpec> specs;
  std::vector<std::uint64_t> seeds;
  for (const char* name : kPresets) {
    specs.push_back(wsnex::scenario::preset(name));
    seeds.push_back(derive_seed(options.seed, seeds.size()));
  }
  std::size_t pass_index = 0;
  const auto one_pass = [&] {
    const std::string dir =
        options.work_dir + "/pass-" + std::to_string(pass_index++);
    Pass pass = run_pass(specs, seeds, dir, result);
    fs::remove_all(dir);
    return pass;
  };

  const Pass reference = one_pass();  // warm-up
  // Latency is one pass's time in the validation calls (all three presets),
  // throughput its replicates over that time, both from the median pass
  // scaled to reference speed.
  std::vector<double> calls_s, scaled;
  double replicates = 0, measured_s = 0;
  const double start = now_s();
  while (calls_s.empty() || now_s() - start < options.seconds) {
    const double scale =
        kReferenceS / reference_kernel_s(options.work_dir + "/reference.tmp");
    const Pass pass = one_pass();
    compare_digests(pass, reference, result, "digest differs");
    calls_s.push_back(pass.calls_s);
    scaled.push_back(pass.calls_s * scale);
    measured_s += pass.calls_s;
    replicates += static_cast<double>(pass.replicates);
  }
  const double passes = static_cast<double>(calls_s.size());

  result.samples["calls_s"] = calls_s;
  result.samples["calls_scaled_s"] = scaled;
  const double pass_s = median(scaled);
  auto& m = result.metrics;
  m["throughput_per_s"] = replicates / passes / pass_s;
  m["latency_p50_ms"] = pass_s * 1e3;
  result.notes.push_back("validate pass of " + std::to_string(specs.size()) +
                         " presets x " + std::to_string(kReplicates) +
                         " replicates: " + timing_note(calls_s) +
                         " passes as run; " + timing_note(scaled) +
                         " at reference speed");

  if (options.trace) {
    traced_pass(specs, seeds, options, measured_s / passes, reference, result);
  }

  Digest digest;
  for (const std::string& d : reference.digests) digest.add(d);
  result.digest = digest.hex();
  return result;
}

}  // namespace wsnbench
