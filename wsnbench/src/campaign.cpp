// `campaign` workload: the paper's DSE experiment as `wsnex run` performs
// it — the 13 built-in presets, each explored once by NSGA-II and once by
// MOSA at full budget, in one serial run_campaign (threads 1, jobs 1) with
// progress telemetry on.
//
// The traced pass replays the serial campaign loop through public calls
// (ResultStore::initialize, then execute_scenario + record_complete per
// scenario) and, per scenario, makes two side calls on a scratch store:
// execute_scenario with progress off, and the engine run rebuilt from
// make_memoized_full_model_objective + run_nsga2/run_mosa around a timing
// wrapper. Only the replay counts as product path.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "dse/eval_cache.hpp"
#include "dse/objectives.hpp"
#include "dse/optimizers.hpp"
#include "dse/pareto.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"

namespace wsnbench {

namespace {

namespace fs = std::filesystem;
using wsnex::scenario::OptimizerKind;
using wsnex::scenario::ScenarioSpec;

std::vector<ScenarioSpec> campaign_specs(std::uint64_t seed) {
  std::vector<ScenarioSpec> specs;
  std::uint64_t index = 0;
  for (const ScenarioSpec& preset : wsnex::scenario::all_presets()) {
    for (const OptimizerKind kind : {OptimizerKind::kNsga2, OptimizerKind::kMosa}) {
      ScenarioSpec spec = preset;
      spec.name = preset.name +
                  (kind == OptimizerKind::kNsga2 ? "-nsga2" : "-mosa");
      spec.optimizer.kind = kind;
      spec.optimizer.seed = derive_seed(seed, index++);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Hypervolume of a persisted pareto.csv w.r.t. hv_reference_point(spec),
/// as a share of the reference box [0, ref].
double normalized_hypervolume(const std::string& pareto_csv,
                              const ScenarioSpec& spec) {
  std::ifstream in(pareto_csv);
  std::string line;
  std::getline(in, line);  // header
  std::vector<double> flat;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string cell;
    for (int k = 0; k < 3 && std::getline(row, cell, ','); ++k) {
      flat.push_back(std::stod(cell));
    }
  }
  const wsnex::dse::Objectives ref = wsnex::scenario::hv_reference_point(spec);
  wsnex::dse::Hypervolume3Scratch scratch;
  const double hv = wsnex::dse::hypervolume3_flat(flat.data(), flat.size() / 3,
                                                  3, ref.data(), scratch);
  return hv / (ref[0] * ref[1] * ref[2]);
}

/// One `wsnex run` pass and the outputs it left on disk.
struct Pass {
  double wall_s = 0.0;
  double nsga2_evals = 0.0, nsga2_s = 0.0;
  double mosa_evals = 0.0, mosa_s = 0.0;
  std::size_t completed = 0;
  std::vector<std::string> scenario_digests;
};

/// Per-pass exact counts and output digest, read back from the store.
void record_outputs(const std::vector<ScenarioSpec>& specs,
                    const std::vector<wsnex::scenario::ScenarioStatus>& statuses,
                    const std::string& dir, Result& result, Pass& pass) {
  const wsnex::scenario::ResultStore store(dir);
  double evaluations = 0, infeasible = 0, front = 0, hv = 0;
  std::size_t progress_lines = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& name = specs[i].name;
    Digest d;
    d.add_file(store.pareto_csv_path(name));
    d.add_file(store.feasible_csv_path(name));
    pass.scenario_digests.push_back(d.hex());
    progress_lines += count_lines(store.progress_jsonl_path(name));
    hv += normalized_hypervolume(store.pareto_csv_path(name), specs[i]);
  }
  for (const auto& status : statuses) {
    evaluations += static_cast<double>(status.evaluations);
    infeasible += static_cast<double>(status.infeasible);
    front += static_cast<double>(status.front_size);
  }
  result.check_exact("dse.evaluations", evaluations);
  result.check_exact("dse.front_size", front);
  result.check_exact("dse.feasible_ratio", 1.0 - infeasible / evaluations);
  result.check_exact("dse.hypervolume", hv / static_cast<double>(specs.size()));
  result.check_exact("scenario.progress_lines",
                     static_cast<double>(progress_lines));
}

Pass run_pass(const std::vector<ScenarioSpec>& specs, const std::string& dir,
              Result& result) {
  Pass pass;
  wsnex::scenario::CampaignOptions options;
  options.out_dir = dir;
  options.threads = 1;
  options.jobs = 1;
  options.progress = true;
  std::vector<wsnex::scenario::ScenarioStatus> statuses;
  const double start = now_s();
  double mark = start;
  try {
    wsnex::scenario::run_campaign(
        specs, options, [&](const wsnex::scenario::CampaignOutcome& outcome) {
          const double t = now_s();
          const bool nsga2 =
              specs[statuses.size()].optimizer.kind == OptimizerKind::kNsga2;
          (nsga2 ? pass.nsga2_s : pass.mosa_s) += t - mark;
          (nsga2 ? pass.nsga2_evals : pass.mosa_evals) +=
              static_cast<double>(outcome.status.evaluations);
          statuses.push_back(outcome.status);
          mark = t;
        });
  } catch (const std::exception& e) {
    result.notes.push_back(std::string("campaign pass threw: ") + e.what());
  }
  pass.wall_s = now_s() - start;
  pass.completed = statuses.size();
  if (pass.completed < specs.size()) {
    result.fail("scenario threw", specs.size() - pass.completed);
  } else {
    record_outputs(specs, statuses, dir, result, pass);
  }
  return pass;
}

/// Counts scenario digests that differ from the reference pass.
void compare_digests(const Pass& pass, const Pass& reference, Result& result,
                     const char* cause) {
  for (std::size_t i = 0; i < pass.scenario_digests.size() &&
                          i < reference.scenario_digests.size();
       ++i) {
    if (pass.scenario_digests[i] != reference.scenario_digests[i]) {
      result.fail(cause);
    }
  }
}

/// Forwarding objective that times every evaluate() call.
class TimedObjective final : public wsnex::dse::BatchObjectiveFunction {
 public:
  explicit TimedObjective(const wsnex::dse::BatchObjectiveFunction& inner)
      : inner_(inner) {}
  std::size_t arity() const override { return inner_.arity(); }
  std::size_t worker_slots() const override { return inner_.worker_slots(); }
  std::size_t evaluate(const wsnex::dse::Genome& genome, std::span<double> out,
                       std::size_t worker) const override {
    const double t0 = now_s();
    const std::size_t n = inner_.evaluate(genome, out, worker);
    inside_s_ += now_s() - t0;
    ++calls_;
    return n;
  }
  double inside_s() const { return inside_s_; }
  std::size_t calls() const { return calls_; }

 private:
  const wsnex::dse::BatchObjectiveFunction& inner_;
  mutable double inside_s_ = 0.0;  // single worker slot: no concurrent calls
  mutable std::size_t calls_ = 0;
};

/// The engine run of one scenario as run_scenario builds it (threads 1, no
/// pool, shared evaluation cache, no progress sink).
struct EngineRun {
  double memo_s = 0.0;
  double wall_s = 0.0;
  double model_s = 0.0;
  std::size_t calls = 0;
  wsnex::dse::DseResult result;
};

EngineRun rerun_engine(const ScenarioSpec& spec) {
  EngineRun run;
  const auto evaluator = wsnex::model::NetworkModelEvaluator::make_default(
      spec.evaluator_options());
  const wsnex::dse::DesignSpace space(spec.design_space_config());
  double t = now_s();
  const auto memo = wsnex::dse::make_memoized_full_model_objective(
      evaluator, space, 1, &wsnex::dse::SharedEvalCache::instance());
  run.memo_s = now_s() - t;
  const TimedObjective timed(*memo);
  const auto& opt = spec.optimizer;
  t = now_s();
  if (opt.kind == OptimizerKind::kNsga2) {
    wsnex::dse::Nsga2Options o;
    o.population = opt.population;
    o.generations = opt.generations;
    o.crossover_rate = opt.crossover_rate;
    if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
    o.seed = opt.seed;
    o.threads = 1;
    run.result = wsnex::dse::run_nsga2(space, timed, o);
  } else {
    wsnex::dse::MosaOptions o;
    o.iterations = opt.iterations;
    o.initial_temperature = opt.initial_temperature;
    o.cooling = opt.cooling;
    if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
    o.seed = opt.seed;
    o.threads = 1;
    run.result = wsnex::dse::run_mosa(space, timed, o);
  }
  run.wall_s = now_s() - t;
  // Two clock reads bracket each call: about one lands inside the measured
  // interval, one outside it.
  run.calls = timed.calls();
  const double read = clock_read_s() * static_cast<double>(run.calls);
  run.model_s = timed.inside_s() - read;
  run.wall_s -= 2.0 * read;
  return run;
}

/// Traced-pass totals of one engine's scenarios.
struct EngineTotals {
  double exec_on_s = 0.0;   ///< execute_scenario, progress on (product)
  double exec_off_s = 0.0;  ///< execute_scenario, progress off (side)
  double memo_s = 0.0, wall_s = 0.0, model_s = 0.0;  ///< engine rerun (side)
  std::size_t evals = 0;

  double ns_per_eval(double seconds) const {
    return evals == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(evals);
  }
  /// Where one evaluation's product-path time goes.
  std::string breakdown(const char* engine) const {
    const auto ns = [&](double s) { return std::to_string(ns_per_eval(s)); };
    return std::string(engine) + " per evaluation: " + ns(exec_on_s) +
           " ns in execute_scenario = progress " + ns(exec_on_s - exec_off_s) +
           " + memo build " + ns(memo_s) + " + engine self " +
           ns(wall_s - model_s) + " + model " + ns(model_s) + " + post " +
           ns(exec_off_s - memo_s - wall_s) + " (engine alone: " +
           std::to_string(evals == 0 ? 0.0 : static_cast<double>(evals) / wall_s) +
           " evals/s)";
  }
};

void traced_pass(const std::vector<ScenarioSpec>& specs, const Options& options,
                 double untraced_wall_s, const Pass& reference, Result& result) {
  const std::string product_dir = options.work_dir + "/traced";
  const std::string scratch_dir = options.work_dir + "/traced-scratch";
  wsnex::scenario::ResultStore store(product_dir);
  wsnex::scenario::ResultStore scratch(scratch_dir);
  wsnex::scenario::CampaignOptions on;
  on.out_dir = product_dir;
  on.threads = 1;
  on.progress = true;
  wsnex::scenario::CampaignOptions off = on;
  off.out_dir = scratch_dir;
  off.progress = false;
  auto* cache = &wsnex::dse::SharedEvalCache::instance();

  double product_s = 0.0, calls_s = 0.0, manifest_s = 0.0;
  EngineTotals nsga2, mosa;
  std::vector<wsnex::scenario::ScenarioStatus> statuses;

  double t0 = now_s();
  store.initialize(specs, false);
  const double store_init_s = now_s() - t0;
  product_s += store_init_s;
  calls_s += store_init_s;
  for (const ScenarioSpec& spec : specs) {
    EngineTotals& totals =
        spec.optimizer.kind == OptimizerKind::kNsga2 ? nsga2 : mosa;
    const double seg = now_s();
    t0 = now_s();
    const auto status = wsnex::scenario::execute_scenario(spec, on, store,
                                                          nullptr, cache);
    const double t1 = now_s();
    store.record_complete(status);
    const double t2 = now_s();
    product_s += t2 - seg;
    calls_s += t2 - t0;
    totals.exec_on_s += t1 - t0;
    manifest_s += t2 - t1;
    statuses.push_back(status);

    // Side calls (not product path).
    t0 = now_s();
    wsnex::scenario::execute_scenario(spec, off, scratch, nullptr, cache);
    totals.exec_off_s += now_s() - t0;
    const EngineRun run = rerun_engine(spec);
    if (run.result.evaluations != status.evaluations ||
        run.result.archive.size() != status.front_size) {
      result.problem("engine rerun of " + spec.name +
                     " differs from execute_scenario (evaluations " +
                     std::to_string(run.result.evaluations) + " vs " +
                     std::to_string(status.evaluations) + ")");
    }
    totals.memo_s += run.memo_s;
    totals.wall_s += run.wall_s;
    totals.model_s += run.model_s;
    totals.evals += run.calls;
  }

  Pass traced;
  result.attempted += specs.size();
  record_outputs(specs, statuses, product_dir, result, traced);
  compare_digests(traced, reference, result, "traced digest differs");

  const double exec_on = nsga2.exec_on_s + mosa.exec_on_s;
  const double exec_off = nsga2.exec_off_s + mosa.exec_off_s;
  const double memo = nsga2.memo_s + mosa.memo_s;
  auto& m = result.metrics;
  m["scenario.store_init_s"] = store_init_s;
  m["scenario.manifest_s"] = manifest_s;
  m["scenario.progress_s"] = exec_on - exec_off;
  m["scenario.post_s"] = exec_off - memo - nsga2.wall_s - mosa.wall_s;
  m["dse.memo_build_s"] = memo;
  m["dse.nsga2_self_ns_per_eval"] = nsga2.ns_per_eval(nsga2.wall_s - nsga2.model_s);
  m["dse.mosa_self_ns_per_eval"] = mosa.ns_per_eval(mosa.wall_s - mosa.model_s);
  m["model.ns_per_eval"] = (nsga2.model_s + mosa.model_s) * 1e9 /
                           static_cast<double>(nsga2.evals + mosa.evals);
  m["unattributed_s"] = product_s - calls_s;
  m["trace_overhead"] = product_s / untraced_wall_s - 1.0;
  result.notes.push_back("traced campaign product path: " +
                         std::to_string(product_s) + " s");
  result.notes.push_back(nsga2.breakdown("NSGA-II"));
  result.notes.push_back(mosa.breakdown("MOSA"));
}

}  // namespace

Result run_campaign(const Options& options) {
  Result result;
  const std::vector<ScenarioSpec> specs = campaign_specs(options.seed);
  std::size_t pass_index = 0;
  const auto one_pass = [&] {
    const std::string dir =
        options.work_dir + "/pass-" + std::to_string(pass_index++);
    result.attempted += specs.size();
    Pass pass = run_pass(specs, dir, result);
    fs::remove_all(dir);
    return pass;
  };

  // Warm-up: fills the shared evaluation cache; its outputs are the
  // reference every later pass must reproduce.
  const Pass reference = one_pass();

  // Latency is one whole campaign pass, throughput its evaluations over
  // that time, both from the median pass scaled to reference speed.
  std::vector<double> walls, scaled;
  double evals = 0, nsga2_evals = 0, nsga2_s = 0, mosa_evals = 0, mosa_s = 0;
  const double start = now_s();
  for (std::size_t passes = 0; passes == 0 || now_s() - start < options.seconds;
       ++passes) {
    const double scale =
        kReferenceS / reference_kernel_s(options.work_dir + "/reference.tmp");
    const Pass pass = one_pass();
    compare_digests(pass, reference, result, "digest differs");
    if (pass.completed < specs.size()) continue;
    walls.push_back(pass.wall_s);
    scaled.push_back(pass.wall_s * scale);
    evals += pass.nsga2_evals + pass.mosa_evals;
    nsga2_evals += pass.nsga2_evals;
    nsga2_s += pass.nsga2_s;
    mosa_evals += pass.mosa_evals;
    mosa_s += pass.mosa_s;
  }
  if (walls.empty()) {
    result.problem("no measured campaign pass completed");
    return result;
  }
  double measured_s = 0;
  for (const double w : walls) measured_s += w;

  result.samples["pass_wall_s"] = walls;
  result.samples["pass_scaled_s"] = scaled;
  const double pass_s = median(scaled);
  auto& m = result.metrics;
  m["throughput_per_s"] = evals / static_cast<double>(walls.size()) / pass_s;
  m["latency_p50_ms"] = pass_s * 1e3;
  m["dse.nsga2_evals_per_s"] = nsga2_evals / nsga2_s;
  m["dse.mosa_evals_per_s"] = mosa_evals / mosa_s;
  result.notes.push_back("campaign pass of " + std::to_string(specs.size()) +
                         " scenarios: " + timing_note(walls) +
                         " passes as run; " + timing_note(scaled) +
                         " at reference speed");

  if (options.trace) {
    traced_pass(specs, options, measured_s / static_cast<double>(walls.size()),
                reference, result);
  }

  Digest digest;
  for (const std::string& d : reference.scenario_digests) digest.add(d);
  result.digest = digest.hex();
  return result;
}

}  // namespace wsnbench
