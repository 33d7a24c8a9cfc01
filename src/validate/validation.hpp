// Monte Carlo model validation — the paper's Section 5 experiment as a
// first-class, campaign-integrated subsystem.
//
// A validation run replays one scenario's design point in the packet
// simulator N independent times (a ReplicationPlan with counter-derived
// per-replicate seeds, split into contiguous chunks that
// util::run_parallel runs on plan.jobs threads), aggregates every
// metric across replicates with Student-t confidence intervals, and
// scores the analytical model's predictions against the simulated ground
// truth: MAPE + CI-overlap verdicts for point predictions (per-node
// energy, E_net, goodput, drop/retry rates) and bound-holds verdicts for
// the worst-case delay model (Eq. 9).
//
// Determinism contract: replicate r always runs with seed
// ReplicationPlan::replicate_seed(base_seed, r) — a pure counter
// derivation — and replicate results are placed and aggregated by index,
// so a report (and its serialized validation.json/validation.csv) is
// byte-identical regardless of the --jobs worker count. Wall-clock time
// is deliberately kept out of the serialized report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/result_store.hpp"
#include "scenario/scenario_spec.hpp"
#include "validate/lowering.hpp"

namespace wsnex::validate {

/// How many replicates to run, how long each simulates, and how their
/// seeds derive from the base seed.
struct ReplicationPlan {
  std::size_t replicates = 16;
  /// Concurrent replicates (0 = hardware concurrency). Never changes the
  /// report — only wall-clock.
  std::size_t jobs = 0;
  double duration_s = 120.0;  ///< simulated seconds per replicate
  std::uint64_t base_seed = 1;

  /// Counter-derived per-replicate seed (splitmix64 over base + index):
  /// independent of scheduling, so replicate r is the same experiment no
  /// matter which worker runs it or how many workers exist.
  static std::uint64_t replicate_seed(std::uint64_t base_seed,
                                      std::size_t replicate);
};

/// How a metric's analytic prediction is judged against the simulation.
enum class VerdictKind {
  kMape,        ///< point prediction: MAPE <= tolerance, or CI overlap
  kUpperBound,  ///< worst-case bound: max over replicates must not exceed it
  kInfo,        ///< no analytic counterpart; reported with CI only
};

enum class Verdict { kPass, kFail, kInfo };

const char* to_string(VerdictKind kind);
const char* to_string(Verdict verdict);

/// One metric aggregated across replicates, with its analytic score.
struct MetricSummary {
  std::string name;
  std::string unit;
  std::size_t count = 0;     ///< replicates contributing
  double sim_mean = 0.0;
  double sim_stddev = 0.0;
  double ci_lo = 0.0;        ///< Student-t CI bounds (ci_level)
  double ci_hi = 0.0;
  double sim_min = 0.0;
  double sim_max = 0.0;
  bool has_analytic = false;
  double analytic = 0.0;
  VerdictKind kind = VerdictKind::kInfo;
  /// |analytic - sim_mean| / |sim_mean| in percent (kMape with a nonzero
  /// simulated mean; 0 when both sides are zero).
  double mape_percent = 0.0;
  bool ci_overlap = false;   ///< analytic value inside [ci_lo, ci_hi]
  Verdict verdict = Verdict::kInfo;
};

struct ValidationOptions {
  ReplicationPlan plan;
  /// MAPE ceiling for kMape metrics, percent. The documented tolerance of
  /// the analytical model (Section 5 reports low-single-digit energy
  /// error; 10 % leaves headroom for stochastic channels).
  double tolerance_percent = 10.0;
  double ci_level = 0.95;  ///< 0.90, 0.95 or 0.99
  /// Design point to validate; defaults to reference_design(spec). A
  /// campaign passes the best feasible archive entry here.
  std::optional<model::NetworkDesign> design;
};

/// The full outcome of one validation run.
struct ValidationReport {
  std::string scenario;
  std::string config;  ///< human-readable design point
  scenario::ChannelAccess access = scenario::ChannelAccess::kTdma;
  std::size_t replicates = 0;
  double duration_s = 0.0;
  double tolerance_percent = 0.0;
  double ci_level = 0.95;
  std::uint64_t base_seed = 1;
  double analytic_fer = 0.0;  ///< Bernoulli rate the model consumed
  double sim_fer = 0.0;       ///< uniform / long-run rate the sim enforced
  std::size_t unstable_replicates = 0;  ///< NetworkResult::stable() == false
  std::vector<MetricSummary> metrics;
  /// True when every judged metric passed (kInfo rows never fail a run)
  /// and instability was not systematic (<= 10 % of replicates — an
  /// occasional transient end-of-horizon backlog under a burst fade does
  /// not indict the configuration).
  bool passed = false;
  /// Host seconds spent (whole run). NOT serialized — reports must be
  /// byte-identical across machines and job counts.
  double wallclock_s = 0.0;

  const MetricSummary* find_metric(const std::string& name) const;

  /// Deterministic serialization (no wallclock, shortest-round-trip
  /// numbers, fixed ordering).
  util::Json to_json() const;
  /// One row per metric, same determinism contract as to_json().
  void write_csv(const std::string& path) const;
};

/// Runs the replicated validation experiment for one scenario. Throws
/// ValidationError when the spec has no feasible design point to validate
/// and ScenarioError when the spec itself is invalid.
ValidationReport run_validation(const scenario::ScenarioSpec& spec,
                                const ValidationOptions& options = {});

/// Persists report as validation.json + validation.csv under the store's
/// results/<scenario>/ directory.
void persist_validation(const scenario::ResultStore& store,
                        const ValidationReport& report);

/// Campaign-integration knobs for `wsnex run --validate`: smaller than a
/// standalone `wsnex validate` run because every scenario of a campaign
/// pays the cost.
struct CampaignValidation {
  std::size_t replicates = 8;
  double duration_s = 60.0;
  double tolerance_percent = 10.0;
};

/// Builds a scenario::CampaignOptions::post_scenario hook that validates
/// each completed scenario at its best feasible archive design (falling
/// back to the reference design when nothing is feasible) and persists
/// validation.json/validation.csv next to its archives. Replicate seeds
/// derive from the spec's optimizer seed, and the replicates run one after
/// another on the scenario's lane (the campaign's parallel level is its
/// scenarios), so the files are deterministic for a fixed campaign
/// regardless of --jobs.
scenario::PostScenarioHook make_campaign_validation_hook(
    const CampaignValidation& options = {});

}  // namespace wsnex::validate
