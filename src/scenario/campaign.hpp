// Batch campaigns: fan a list of declarative scenarios through the
// batched DSE engine and persist every result to a ResultStore, with
// checkpoint/resume, a cap on concurrent scenarios (`jobs`) and a shared
// cross-scenario evaluation cache.
//
// Reproducibility: each scenario runs the memoized batch objective with
// the spec's seed on one thread; archives are bit-identical across
// campaign job counts (per-scenario runs are independent and shared-cache
// artifacts are immutable key-matched inputs), and the archive rows are
// written in a canonical sort order. So a resumed campaign's result files
// are byte-identical to an uninterrupted run, and a `jobs=N` campaign's
// to a serial one (the CI smoke test and tests/scenario/test_campaign.cpp
// both assert this). Only the summary's wallclock fields differ between
// runs; campaign.json is a header written once, so it is byte-identical.
//
// Scheduling: scenarios are the unit of parallelism and the campaign's
// only parallel level. util::run_parallel runs min(jobs, scenarios to
// run) lanes, each claiming the next scenario in spec order, so at most
// `jobs` scenarios are in flight. Inside `scenario:<name>` the lane runs
// only the optimizer with its progress sink (span `evaluate`) and the
// post-scenario hook. It then posts the scenario to its one long-lived
// commit worker and computes the next scenario meanwhile. On the worker,
// inside `commit:<name>`, run the lifetime recompute (span
// `lifetime`), the rest of progress.jsonl, pareto.csv and feasible.csv
// (span `persist`), then summary.json, which completes the scenario, and
// the `progress` report. The lane waits for its worker before its next
// post, before it reports a skipped scenario and before it exits, so it
// has at most one commit in flight. At jobs 1 the scenarios run in spec
// order on the calling thread, and commits and reports follow in spec
// order.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dse/eval_cache.hpp"
#include "dse/optimizers.hpp"
#include "scenario/result_store.hpp"
#include "scenario/scenario_spec.hpp"

namespace wsnex::util {
namespace events {
class EventRing;
}
namespace metrics {
class Histogram;
}
}  // namespace wsnex::util

namespace wsnex::scenario {

/// Output of one scenario exploration (the library-level unit the CLI and
/// the hospital_ward example both build on).
struct ScenarioRun {
  dse::DesignSpace space;
  dse::DseResult result;
  double frame_error_rate = 0.0;  ///< effective FER the evaluator used
};

/// Runs one scenario through the memoized batch engine on the calling
/// thread. `quick` shrinks the optimizer budget to a smoke-test size
/// (deterministically — quick runs are reproducible too). `cache` shares
/// the app-layer table and MAC models across scenarios without changing
/// results. `progress`, when set, is attached to the optimizer as its
/// convergence observer (dse::ProgressSink). Strictly read-only: results
/// are byte-identical with or without it. The spec's optimizer.threads is
/// not consulted.
ScenarioRun run_scenario(const ScenarioSpec& spec, bool quick = false,
                         dse::SharedEvalCache* cache = nullptr,
                         const dse::ProgressSink& progress = {});

/// The spec with its optimizer budget shrunk to smoke-test size (NSGA-II
/// 16x8, MOSA/random 256 evaluations). Used by `wsnex run --quick` and CI.
ScenarioSpec quick_variant(ScenarioSpec spec);

/// Indices into archive.entries() of the designs meeting the clinical
/// constraints (objective layout [E_net, PRD_net, D_net]), sorted by
/// ascending energy — the "which configuration do I actually deploy"
/// ranking of the hospital_ward example.
std::vector<std::size_t> feasible_entries(const dse::ParetoArchive& archive,
                                          const ClinicalConstraints& constraints);

/// Hypervolume reference point derived purely from the spec's service
/// ceilings, objective layout [E_net mJ/s, PRD_net %, D_net s]: the PRD and
/// delay coordinates are the clinical constraint ceilings; the energy
/// coordinate is the per-node drain rate that would exhaust the spec's
/// battery in one day (a design that costs more is clinically worthless).
/// A pure function of the spec, so progress.jsonl trajectories from
/// different runs of the same scenario are directly comparable.
dse::Objectives hv_reference_point(const ScenarioSpec& spec);

/// The process-wide "wsnex_scenario_seconds" histogram (wall-clock of one
/// executed scenario, evaluation through persist). Exposed so the serve
/// layer's job-status quantiles read the exact registration the campaign
/// layer feeds — the metrics registry rejects a re-registration whose help
/// text or bucket bounds differ.
util::metrics::Histogram& scenario_seconds_histogram();

/// Called on the scenario's lane right after its optimizer, *before* the
/// archives and the summary that completes the scenario — a crash
/// mid-hook leaves the scenario pending, so resume re-runs scenario +
/// hook and reproduces both. The hook must create what it writes itself
/// (ResultStore::write_validation creates results/<name>/). The validate
/// subsystem installs its Monte Carlo validator here (`wsnex run
/// --validate`); the scenario layer itself stays independent of the
/// modules above it. The hook never runs
/// beside the lane's next optimizer, but may run beside the commit of the
/// lane's previous scenario.
using PostScenarioHook = std::function<void(
    const ScenarioSpec& spec, const ScenarioRun& run, ResultStore& store)>;

/// Campaign execution options.
struct CampaignOptions {
  std::string out_dir;  ///< result-store root (created if absent)
  bool quick = false;   ///< shrink every scenario's budget (recorded in the
                        ///< campaign.json header; resume inherits it)
  /// Unset, 0 or 1: each scenario's optimizer runs on its lane's thread.
  /// Any larger value throws std::invalid_argument naming `jobs`, the
  /// knob that spreads a campaign over threads. The specs'
  /// optimizer.threads are not consulted.
  std::optional<std::size_t> threads;
  /// Testing hook: stop (as if killed) after this many scenarios have been
  /// *executed* in this invocation; the rest stay pending (no summary) so
  /// a resume can pick them up. 0 = no limit.
  std::size_t abort_after = 0;
  /// Maximum scenarios in flight (`wsnex run --jobs N`); 0 and 1 run them
  /// in spec order on the calling thread. The campaign runs
  /// min(jobs, scenarios to run) lanes. Never changes result files — only
  /// wall-clock and the order progress is reported in.
  std::size_t jobs = 1;
  /// On-disk warm-cache directory (`wsnex run --cache-dir DIR`): the
  /// first campaign writes the PRD codec calibration (the dominant
  /// process cold-start cost) there; later invocations load it instead of
  /// re-running the codecs. Bit-identical results either way. Empty =
  /// no disk cache.
  std::string cache_dir;
  /// Convergence telemetry (`wsnex run`, default on; `--no-progress`
  /// disables): on the optimizer's snapshot cadence (dse::ProgressSink: at
  /// most ~66 per run) each executed scenario appends one util::events
  /// `generation` event — evaluations, archive size, feasible count,
  /// hypervolume w.r.t. hv_reference_point() — to
  /// results/<name>/progress.jsonl as util::events::append_event_json, one
  /// object per line. Records wait in memory until 250 ms of optimizer
  /// time have passed since its start or the last write (then the lane
  /// writes them, creating the file on the first write); the scenario's
  /// commit writes the rest. `wsnex watch DIR` polls at the same 250 ms.
  /// There `seq` numbers the file's records from 1 and `t` is the
  /// optimizer's elapsed seconds; otherwise each record equals the event
  /// published into `events`. Strictly observational:
  /// pareto.csv/feasible.csv stay byte-identical either way (CI cmps this).
  bool progress = true;
  /// Optional event ring: scenario lifecycle events and the same
  /// `generation` events progress.jsonl records are published here (the
  /// serve scheduler passes each job's ring). Not owned; must outlive the
  /// campaign. Null = no events.
  util::events::EventRing* events = nullptr;
  /// Job id stamped into published events (serve mode; empty otherwise).
  std::string event_job_id;
  /// Optional per-scenario post-processing (see PostScenarioHook).
  PostScenarioHook post_scenario;
};

/// Runs one scenario and persists its result files (the post_scenario
/// hook's artifacts, the rest of progress.jsonl, pareto.csv,
/// feasible.csv, then summary.json) into `store`; it returns with the
/// scenario complete in the store, and the status its summary records.
/// The `wsnex serve` job scheduler runs many of these concurrently, each
/// on its own slot's thread; the campaign driver runs the same two parts,
/// the lane's and the commit, but the commit on its lane's commit worker.
/// Here both run on the calling thread, with the same spans, and are done
/// when it returns. The fourth parameter carries nothing: it keeps the
/// call shape of callers that passed a pool there; pass nullptr.
ScenarioStatus execute_scenario(const ScenarioSpec& spec,
                                const CampaignOptions& options,
                                ResultStore& store, std::nullptr_t,
                                dse::SharedEvalCache* cache);

/// What happened to one scenario during a campaign invocation.
struct CampaignOutcome {
  std::string name;
  bool skipped = false;  ///< already complete in the store (resume path)
  ScenarioStatus status;
};

struct CampaignReport {
  std::vector<CampaignOutcome> outcomes;
  std::size_t executed = 0;
  std::size_t skipped = 0;
  /// True when every scenario of the campaign is complete (false when
  /// abort_after stopped the run early).
  bool complete = false;
};

/// Runs a campaign: initializes (or re-attaches to) the result store at
/// options.out_dir, then runs every scenario not already complete, writing
/// pareto.csv / feasible.csv and last summary.json, its completion record,
/// per scenario. campaign.json is not rewritten.
///
/// `progress`, when set, is called after each scenario (executed or
/// skipped) — the CLI uses it for live per-scenario reporting. For an
/// executed scenario it is called from the lane's commit worker once its
/// summary.json records the scenario complete; calls never overlap, and at
/// jobs 1 they come in spec order. An exception it throws fails that
/// commit: the campaign stops as after a failed scenario.
CampaignReport run_campaign(
    const std::vector<ScenarioSpec>& specs, const CampaignOptions& options,
    const std::function<void(const CampaignOutcome&)>& progress = {});

/// Execution overrides a resume accepts (the campaign's identity — specs
/// and the quick flag — always comes from the store; these knobs never
/// change results).
struct ResumeOverrides {
  std::size_t abort_after = 0;
  std::size_t jobs = 1;
  std::string cache_dir;
  /// Convergence telemetry for the re-executed scenarios (see
  /// CampaignOptions::progress; never changes result files).
  bool progress = true;
  /// Re-installed on resume (hooks are code, not store state; a resume
  /// that wants `--validate` behavior passes the hook again).
  PostScenarioHook post_scenario;
};

/// Resumes the campaign stored at `out_dir`: loads the frozen specs and
/// the quick flag from the store, skips completed scenarios (those with a
/// summary.json), runs the rest. A format-1 campaign.json is left as it
/// is.
CampaignReport resume_campaign(
    const std::string& out_dir, const ResumeOverrides& overrides = {},
    const std::function<void(const CampaignOutcome&)>& progress = {});

}  // namespace wsnex::scenario
