// wsnex — the scenario & campaign CLI over the analytical DSE engine.
//
// Subcommands:
//   wsnex version [--json]                  build + SIMD dispatch report
//   wsnex list [--json]                     built-in scenario presets
//   wsnex check <spec.json|preset>...       parse + validate specs
//   wsnex run <spec.json|preset>... -o DIR  run a campaign into DIR
//   wsnex resume DIR                        finish an interrupted campaign
//   wsnex report DIR                        summarize a campaign's results
//   wsnex watch <DIR|--port N ID>           live convergence/event stream
//   wsnex export <preset>... -o DIR         write presets as spec JSON
//   wsnex simulate <spec.json|preset>       one packet-level replay
//   wsnex validate <spec.json|preset>...    Monte Carlo model validation
//   wsnex serve --data DIR                  campaign-as-a-service daemon
//   wsnex submit --port N <spec|preset>...  submit a job to the daemon
//   wsnex status --port N [ID]              job progress (all jobs or one)
//   wsnex results --port N ID               per-scenario results JSON
//   wsnex cancel --port N ID                cancel a queued/running job
//
// `validate` is the Section 5 experiment (replicated simulation scored
// against the analytical model); plain spec syntax/semantics checking is
// `check`.
//
// Arguments naming a readable file are parsed as spec JSON; anything else
// is looked up in the built-in registry, so `wsnex run hospital_ward_6`
// and `wsnex run examples/scenarios/hospital_ward_6.json` are equivalent.
//
// Campaigns are deterministic: a fixed spec (seed included) reproduces
// bit-identical archives regardless of --jobs, `wsnex resume` after a
// kill completes a campaign to the same bytes an uninterrupted run
// produces, and `wsnex validate` emits byte-identical
// validation.json/validation.csv regardless of --jobs (counter-derived
// replicate seeds).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/prd_calibration.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/result_store.hpp"
#include "sim/network.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "validate/validation.hpp"

#include "flags.hpp"
#include "serve_commands.hpp"

namespace {

using namespace wsnex;
using cli::CommonFlags;
using cli::load_spec_arg;
using cli::parse_flags;

int usage(std::FILE* to) {
  std::fprintf(to,
               "wsnex — declarative scenario campaigns for the DAC'12 WSN "
               "design-space explorer\n"
               "\n"
               "usage:\n"
               "  wsnex version [--json]\n"
               "  wsnex list [--json]\n"
               "  wsnex check <spec.json|preset>...\n"
               "  wsnex run <spec.json|preset>... -o DIR [--quick] "
               "[--jobs N] [--cache-dir DIR] "
               "[--abort-after N] [--validate] [--no-progress] "
               "[--trace PATH]\n"
               "  wsnex resume DIR [--jobs N] "
               "[--cache-dir DIR] [--abort-after N] [--validate] "
               "[--no-progress] [--trace PATH]\n"
               "  wsnex report DIR [--metrics | --convergence]\n"
               "  wsnex watch DIR | wsnex watch --port N JOB_ID\n"
               "  wsnex export <preset>... -o DIR\n"
               "  wsnex simulate <spec.json|preset> [--duration S] "
               "[--seed N] [--cache-dir DIR]\n"
               "  wsnex validate <spec.json|preset>... [-o DIR] "
               "[--replicates N] [--jobs J]\n"
               "                 [--tolerance PCT] [--duration S] [--seed N] "
               "[--cache-dir DIR]\n"
               "  wsnex serve --data DIR [--port N] [--slots N] "
               "[--max-queued N]\n"
               "              [--cache-dir DIR] [--port-file PATH] "
               "[--access-log]\n"
               "  wsnex submit --port N <spec.json|preset>... [--id ID] "
               "[--kind campaign|validation]\n"
               "               [--priority N] [--quick] [--replicates N] "
               "[--duration S]\n"
               "               [--tolerance PCT] [--seed N] [--deadline S] "
               "[--wait]\n"
               "  wsnex status --port N [ID] [--json]\n"
               "  wsnex results --port N ID\n"
               "  wsnex cancel --port N ID\n"
               "\n"
               "options:\n"
               "  -o, --out DIR     output directory (run: campaign store; "
               "validate: result\n"
               "                    store for validation.json/csv; export: "
               "spec files)\n"
               "      --quick       smoke-test budgets (16x8 NSGA-II / 256 "
               "evaluations)\n"
               "      --jobs N      scenarios (run/resume; default: hardware "
               "concurrency) or\n"
               "                    validation replicates (validate; default "
               "1) run at once,\n"
               "                    each on one thread (0 = hardware "
               "concurrency; never\n"
               "                    changes result files)\n"
               "      --slots N     serve: job units run at once, each on "
               "one thread (0 =\n"
               "                    hardware concurrency)\n"
               "      --cache-dir DIR  on-disk warm cache: skips the codec "
               "calibration cold\n"
               "                    start on repeated runs (bit-identical "
               "results)\n"
               "      --abort-after N  stop after N scenarios as if killed "
               "(checkpoint/resume testing)\n"
               "      --validate    Monte Carlo-validate each completed "
               "scenario's best feasible\n"
               "                    design (writes validation.json/csv next "
               "to its archives)\n"
               "      --replicates N   Monte Carlo replicates (validate: "
               "default 16; run\n"
               "                    --validate: default 8 per scenario)\n"
               "      --tolerance PCT  MAPE ceiling for point predictions "
               "(validate; default 10)\n"
               "      --duration S  simulated seconds per replicate "
               "(simulate/validate: default\n"
               "                    120; run --validate: default 60)\n"
               "      --seed N      base seed; replicate seeds are "
               "counter-derived from it\n"
               "      --trace PATH  write a Chrome trace_event JSON timeline "
               "of the campaign\n"
               "                    (chrome://tracing / Perfetto; WSNEX_TRACE="
               "PATH traces any command)\n"
               "      --metrics     report: per-scenario wall-clock breakdown "
               "from the summary\n"
               "                    perf sections (evaluate/lifetime/persist, "
               "evals/s)\n"
               "      --convergence report: hypervolume trajectory from each "
               "scenario's\n"
               "                    progress.jsonl (final HV, time to "
               "50/90/99%% of it)\n"
               "      --no-progress run/resume: skip the convergence "
               "progress.jsonl\n"
               "                    telemetry (archives are byte-identical "
               "either way)\n"
               "      --deadline S  submit: wall-clock budget for the job; "
               "past it the daemon's\n"
               "                    watchdog fails the job (0/absent = no "
               "deadline)\n"
               "      --access-log  serve: one structured log line per HTTP "
               "request\n"
               "      --json        machine-readable `list` output\n"
               "\n"
               "Specs: JSON files (see examples/scenarios/) or built-in "
               "preset names (`wsnex list`).\n"
               "`wsnex validate` replays a scenario's reference design in "
               "the packet simulator\n"
               "N independent times and scores the analytical model "
               "(Student-t CIs, MAPE and\n"
               "delay-bound verdicts); exit 0 means every judged metric "
               "passed.\n"
               "`wsnex serve` runs campaigns and validations as a local "
               "HTTP/JSON service:\n"
               "concurrent jobs share --slots worker threads with "
               "priority-weighted fairness,\n"
               "SIGTERM drains and checkpoints, and a restarted daemon "
               "resumes interrupted jobs.\n");
  return to == stdout ? 0 : 2;
}

std::string apps_summary(const scenario::ScenarioSpec& spec) {
  const auto apps = spec.apps.empty()
                        ? dse::DesignSpaceConfig::case_study(spec.node_count).apps
                        : spec.apps;
  std::size_t dwt = 0;
  for (const model::AppKind kind : apps) {
    if (kind == model::AppKind::kDwt) ++dwt;
  }
  return std::to_string(dwt) + " DWT / " + std::to_string(apps.size() - dwt) +
         " CS";
}

#ifndef WSNEX_VERSION
#define WSNEX_VERSION "unknown"
#endif

/// Build + SIMD dispatch report: which ISA the kernel layer detected and
/// which it actually runs on (they differ under WSNEX_FORCE_SCALAR).
int cmd_version(const std::vector<std::string>& args) {
  namespace simd = util::simd;
  const CommonFlags flags = parse_flags(args, "version", {"--json"});
  if (!flags.ok) return 2;
  if (flags.as_json) {
    util::Json out = util::Json::object();
    out.set("version", WSNEX_VERSION);
    util::Json dispatch = util::Json::object();
    dispatch.set("detected_isa", simd::isa_name(simd::detected_isa()));
    dispatch.set("active_isa", simd::isa_name(simd::active_isa()));
    dispatch.set("forced_scalar_env", simd::scalar_forced_by_env());
    out.set("simd", std::move(dispatch));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  std::printf("wsnex %s\n", WSNEX_VERSION);
  std::printf("simd: %s dispatched (detected %s%s)\n",
              simd::isa_name(simd::active_isa()),
              simd::isa_name(simd::detected_isa()),
              simd::scalar_forced_by_env() ? ", WSNEX_FORCE_SCALAR set" : "");
  return 0;
}

int cmd_list(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "list", {"--json"});
  if (!flags.ok) return 2;
  const auto presets = scenario::all_presets();
  if (flags.as_json) {
    util::Json out = util::Json::array();
    for (const auto& spec : presets) out.push_back(spec.to_json());
    std::printf("%s", out.dump(2).c_str());
    return 0;
  }
  util::Table table({"preset", "nodes", "apps", "channel", "optimizer",
                     "description"});
  for (const auto& spec : presets) {
    const double fer = spec.effective_frame_error_rate();
    table.add_row({spec.name, std::to_string(spec.node_count),
                   apps_summary(spec),
                   fer == 0.0 ? "ideal"
                              : "FER " + util::Table::num(fer * 100.0, 1) + "%",
                   scenario::to_string(spec.optimizer.kind),
                   spec.description.substr(0, 60)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("run one with: wsnex run <preset> -o out/\n");
  return 0;
}

int cmd_check(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "check", {});
  if (!flags.ok) return 2;
  if (flags.positional.empty()) {
    std::fprintf(stderr, "check: no specs given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& arg : flags.positional) {
    try {
      const scenario::ScenarioSpec spec = load_spec_arg(arg);
      const dse::DesignSpace space(spec.design_space_config());
      std::printf("OK       %s (scenario \"%s\", %.3g designs)\n", arg.c_str(),
                  spec.name.c_str(), space.cardinality());
    } catch (const std::exception& e) {
      std::printf("INVALID  %s\n  %s\n", arg.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

/// run/resume: --replicates/--duration/--tolerance configure the
/// --validate hook and mean nothing without it.
bool hook_knobs_need_validate(const CommonFlags& flags, const char* command) {
  if (flags.validate || (!flags.replicates && !flags.duration_s &&
                         !flags.tolerance_percent)) {
    return true;
  }
  std::fprintf(stderr,
               "%s: --replicates/--duration/--tolerance require --validate\n",
               command);
  return false;
}

/// Points the PRD calibration at the `--cache-dir` warm cache, as
/// drive_campaign does for `run`; call before the first model is built.
void use_prd_cache_dir(const CommonFlags& flags) {
  if (!flags.cache_dir.empty() &&
      !dsp::set_default_prd_cache_dir(flags.cache_dir)) {
    std::fprintf(stderr,
                 "--cache-dir ignored: the PRD calibration was already "
                 "computed\n");
  }
}

/// Scopes a --trace capture to one campaign run; the file is written even
/// when the campaign throws (the trace of a failed run is the one you
/// want). Inactive (and free) when no path was given — WSNEX_TRACE
/// handled by init_from_env() still applies.
class TraceGuard {
 public:
  explicit TraceGuard(const std::string& path) {
    if (!path.empty()) {
      active_ = util::trace::start(path);
      if (!active_) {
        std::fprintf(stderr,
                     "--trace ignored: a trace capture is already active\n");
      }
    }
  }
  ~TraceGuard() {
    if (active_) util::trace::stop();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  bool active_ = false;
};

void print_outcome(const scenario::CampaignOutcome& outcome) {
  if (outcome.skipped) {
    std::printf("  [skip] %-28s already complete\n", outcome.name.c_str());
  } else {
    std::printf(
        "  [done] %-28s %zu evaluations, front %zu, feasible %zu (%.2f s)\n",
        outcome.name.c_str(), outcome.status.evaluations,
        outcome.status.front_size, outcome.status.feasible_size,
        outcome.status.wallclock_s);
  }
  std::fflush(stdout);
}

int report_outcome_summary(const scenario::CampaignReport& report,
                           const std::string& out_dir) {
  if (!report.complete) {
    std::printf("campaign interrupted (%zu run, %zu skipped) — finish with: "
                "wsnex resume %s\n",
                report.executed, report.skipped, out_dir.c_str());
    return 3;
  }
  std::printf("campaign complete: %zu scenario(s) run, %zu skipped, results "
              "in %s\n",
              report.executed, report.skipped, out_dir.c_str());
  std::printf("inspect with: wsnex report %s\n", out_dir.c_str());
  return 0;
}

/// Campaign-hook knobs from the command line. Campaign validation keeps
/// its own smaller defaults (every scenario pays the cost) unless the
/// user passed explicit values.
validate::CampaignValidation campaign_validation(const CommonFlags& flags) {
  validate::CampaignValidation options;
  options.replicates = flags.replicates.value_or(options.replicates);
  options.duration_s = flags.duration_s.value_or(options.duration_s);
  options.tolerance_percent =
      flags.tolerance_percent.value_or(options.tolerance_percent);
  return options;
}

int cmd_run(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "run",
      {"-o", "--quick", "--jobs", "--cache-dir", "--abort-after", "--validate",
       "--no-progress", "--trace", "--replicates", "--duration",
       "--tolerance"});
  if (!flags.ok || !hook_knobs_need_validate(flags, "run")) return 2;
  if (flags.positional.empty()) {
    std::fprintf(stderr, "run: no scenarios given (try `wsnex list`)\n");
    return 2;
  }
  if (flags.out_dir.empty()) {
    std::fprintf(stderr, "run: -o/--out DIR is required\n");
    return 2;
  }
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& arg : flags.positional) {
    specs.push_back(load_spec_arg(arg));
  }
  scenario::CampaignOptions options;
  options.out_dir = flags.out_dir;
  options.quick = flags.quick;
  options.abort_after = flags.abort_after;
  options.jobs = flags.jobs.value_or(util::resolve_threads(0));
  options.cache_dir = flags.cache_dir;
  options.progress = !flags.no_progress;
  if (flags.validate) {
    options.post_scenario =
        validate::make_campaign_validation_hook(campaign_validation(flags));
  }
  std::printf("campaign: %zu scenario(s) -> %s%s%s\n", specs.size(),
              options.out_dir.c_str(), options.quick ? " (quick)" : "",
              flags.validate ? " (+validation)" : "");
  const TraceGuard trace(flags.trace_path);
  const auto report = scenario::run_campaign(specs, options, print_outcome);
  return report_outcome_summary(report, options.out_dir);
}

int cmd_resume(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "resume",
      {"--jobs", "--cache-dir", "--abort-after", "--validate", "--no-progress",
       "--trace", "--replicates", "--duration", "--tolerance"});
  if (!flags.ok || !hook_knobs_need_validate(flags, "resume")) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "resume: exactly one campaign directory expected\n");
    return 2;
  }
  const std::string& out_dir = flags.positional.front();
  scenario::ResumeOverrides overrides;
  overrides.abort_after = flags.abort_after;
  overrides.jobs = flags.jobs.value_or(util::resolve_threads(0));
  overrides.cache_dir = flags.cache_dir;
  overrides.progress = !flags.no_progress;
  if (flags.validate) {
    overrides.post_scenario =
        validate::make_campaign_validation_hook(campaign_validation(flags));
  }
  const TraceGuard trace(flags.trace_path);
  const auto report =
      scenario::resume_campaign(out_dir, overrides, print_outcome);
  return report_outcome_summary(report, out_dir);
}

/// One packet-level replay of a scenario's reference design, with the
/// per-node model-vs-simulation comparison the Section 5.1 experiment
/// prints.
int cmd_simulate(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "simulate", {"--duration", "--seed", "--cache-dir"});
  if (!flags.ok) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "simulate: exactly one spec expected\n");
    return 2;
  }
  use_prd_cache_dir(flags);
  const scenario::ScenarioSpec spec = load_spec_arg(flags.positional.front());
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const validate::Lowering low = validate::lower(
      spec, evaluator, validate::reference_design(spec, evaluator));
  sim::NetworkScenario sc = low.sim;
  sc.duration_s = flags.duration_s.value_or(120.0);
  sc.seed = flags.seed.value_or(1);
  const sim::NetworkResult result = sim::run_network(sc);

  const bool csma = spec.access == scenario::ChannelAccess::kCsma;
  std::printf("scenario %s (%s): %s\n", spec.name.c_str(),
              scenario::to_string(spec.access),
              csma ? "contention in the CAP, no Eq. 9 bound"
                   : "GTS slots from the analytical assignment");
  std::printf("simulated %.0f s (seed %llu), beacon interval %.1f ms\n\n",
              sc.duration_s, static_cast<unsigned long long>(sc.seed),
              result.beacon_interval_s * 1e3);
  util::Table table({"node", "app", "GTS", "frames", "mean [ms]", "p99 [ms]",
                     "max [ms]", "Eq.9 bound [ms]", "retries", "drops"});
  for (std::size_t n = 0; n < result.nodes.size(); ++n) {
    const sim::NodeResult& nr = result.nodes[n];
    std::vector<double> lat;
    for (const sim::FrameDelivery& d : result.deliveries) {
      if (d.node == n + 1) lat.push_back(d.latency_s * 1e3);
    }
    table.add_row(
        {std::to_string(n), model::to_string(low.design.nodes[n].app),
         std::to_string(csma ? 0 : low.eval.nodes[n].gts_slots),
         std::to_string(nr.frame_latency.count()),
         util::Table::num(nr.frame_latency.mean() * 1e3, 1),
         util::Table::num(util::percentile(lat, 99.0), 1),
         util::Table::num(nr.frame_latency.max() * 1e3, 1),
         csma ? "-" : util::Table::num(low.eval.nodes[n].delay_bound_s * 1e3, 1),
         std::to_string(nr.counters.retries),
         std::to_string(nr.counters.frames_dropped)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "goodput %.1f B/s (model %.1f), collisions %llu, channel drops %llu, "
      "bad-state frames %llu, stable: %s\n",
      static_cast<double>(result.payload_bytes_received) / sc.duration_s,
      [&] {
        double phi = 0.0;
        for (const auto& node : low.eval.nodes) phi += node.phi_out_bytes_per_s;
        return phi;
      }(),
      static_cast<unsigned long long>(result.channel_collisions),
      static_cast<unsigned long long>(result.channel_drops),
      static_cast<unsigned long long>(result.bad_state_frames),
      result.stable() ? "yes" : "NO");
  return 0;
}

void print_validation_report(const validate::ValidationReport& report) {
  std::printf("scenario %s (%s): %zu replicates x %.0f s, seed %llu\n",
              report.scenario.c_str(), scenario::to_string(report.access),
              report.replicates, report.duration_s,
              static_cast<unsigned long long>(report.base_seed));
  std::printf("design: %s\n", report.config.c_str());
  std::printf("channel: model FER %.4g, sim FER %.4g\n\n",
              report.analytic_fer, report.sim_fer);
  util::Table table({"metric", "unit", "sim mean", "95% CI", "analytic",
                     "MAPE [%]", "verdict"});
  for (const validate::MetricSummary& m : report.metrics) {
    std::string ci = "-";
    if (std::isfinite(m.ci_lo)) {
      ci = "[";
      ci += util::Table::num(m.ci_lo, 4);
      ci += ", ";
      ci += util::Table::num(m.ci_hi, 4);
      ci += "]";
    }
    table.add_row(
        {m.name, m.unit, util::Table::num(m.sim_mean, 4), ci,
         m.has_analytic ? util::Table::num(m.analytic, 4) : "-",
         m.kind == validate::VerdictKind::kMape
             ? util::Table::num(m.mape_percent, 2)
             : "-",
         validate::to_string(m.verdict)});
  }
  std::printf("%s\n", table.render().c_str());
  if (report.unstable_replicates > 0) {
    std::printf("WARNING: %zu replicate(s) unstable (offered load not "
                "sustained)\n",
                report.unstable_replicates);
  }
  std::printf("validation %s (tolerance %.3g%%, %.4g s wall)\n\n",
              report.passed ? "PASS" : "FAIL", report.tolerance_percent,
              report.wallclock_s);
}

/// Monte Carlo model validation (the Section 5 experiment, replicated).
int cmd_validate(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "validate",
      {"-o", "--replicates", "--jobs", "--tolerance", "--duration", "--seed",
       "--cache-dir"});
  if (!flags.ok) return 2;
  if (flags.positional.empty()) {
    std::fprintf(stderr, "validate: no scenarios given (try `wsnex list`)\n");
    return 2;
  }
  use_prd_cache_dir(flags);
  std::optional<scenario::ResultStore> store;
  if (!flags.out_dir.empty()) store.emplace(flags.out_dir);
  int failures = 0;
  for (const std::string& arg : flags.positional) {
    const scenario::ScenarioSpec spec = load_spec_arg(arg);
    validate::ValidationOptions options;
    options.plan.replicates = flags.replicates.value_or(16);
    options.plan.jobs = flags.jobs.value_or(1);
    options.plan.duration_s = flags.duration_s.value_or(120.0);
    options.plan.base_seed = flags.seed.value_or(1);
    options.tolerance_percent =
        flags.tolerance_percent.value_or(options.tolerance_percent);
    const validate::ValidationReport report =
        validate::run_validation(spec, options);
    print_validation_report(report);
    if (store.has_value()) {
      validate::persist_validation(*store, report);
      std::printf("wrote %s\n",
                  store->validation_json_path(report.scenario).c_str());
    }
    if (!report.passed) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// One `generation` record of a scenario's progress.jsonl, reduced to the
/// fields the convergence report needs.
struct ProgressPoint {
  long long generation = 0;
  double hypervolume = 0.0;
  double t = 0.0;  ///< optimizer seconds at the snapshot
};

/// Reads a scenario's progress.jsonl into points, skipping records that
/// are not `generation` events. Returns an empty vector when the file is
/// missing (campaign ran with --no-progress) or holds no usable records
/// (a store written before progress.jsonl held events).
std::vector<ProgressPoint> load_progress(const scenario::ResultStore& store,
                                         const std::string& name) {
  std::vector<ProgressPoint> points;
  std::ifstream in(store.progress_jsonl_path(name), std::ios::binary);
  if (!in) return points;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    util::Json record;
    try {
      record = util::Json::parse(line);
    } catch (const util::JsonParseError&) {
      continue;  // torn trailing line from an interrupted run
    }
    const util::Json* kind = record.find("kind");
    if (kind == nullptr || *kind != util::Json("generation")) continue;
    points.push_back({record.at("generation").as_int64(),
                      record.at("hypervolume").as_double(),
                      record.at("t").as_double()});
  }
  return points;
}

/// `report --convergence`: per-scenario hypervolume trajectory summary
/// from progress.jsonl — final HV and the elapsed time at which the run
/// first reached 50/90/99% of it. Scenarios without telemetry (run with
/// --no-progress, or pre-telemetry campaigns) render "-" columns.
int report_convergence(const scenario::ResultStore& store,
                       const scenario::CampaignManifest& manifest) {
  util::Table table({"scenario", "gens", "final HV", "t50% [s]", "t90% [s]",
                     "t99% [s]", "wall [s]"});
  std::size_t with_telemetry = 0;
  for (const auto& status : manifest.scenarios) {
    if (!status.complete) {
      table.add_row({status.name, "-", "-", "-", "-", "-", "pending"});
      continue;
    }
    const std::vector<ProgressPoint> points = load_progress(store, status.name);
    if (points.empty()) {
      table.add_row({status.name, "-", "-", "-", "-", "-",
                     util::Table::num(status.wallclock_s, 2)});
      continue;
    }
    ++with_telemetry;
    const double final_hv = points.back().hypervolume;
    // Time-to-fraction: first generation whose HV reaches frac * final.
    // HV is monotone non-decreasing over generations, so the first hit is
    // the answer.
    const auto time_to = [&](double frac) -> std::string {
      if (final_hv <= 0.0) return "-";
      for (const ProgressPoint& point : points) {
        if (point.hypervolume >= frac * final_hv) {
          return util::Table::num(point.t, 2);
        }
      }
      return "-";
    };
    table.add_row({status.name, std::to_string(points.back().generation),
                   util::Table::num(final_hv, 4), time_to(0.50),
                   time_to(0.90), time_to(0.99),
                   util::Table::num(status.wallclock_s, 2)});
  }
  std::printf(
      "campaign convergence at %s (%zu/%zu scenario(s) with telemetry)\n\n"
      "%s\n",
      store.root().c_str(), with_telemetry, manifest.scenarios.size(),
      table.render().c_str());
  if (with_telemetry == 0) {
    std::printf(
        "no progress.jsonl telemetry found — re-run without --no-progress "
        "to record it\n");
  }
  return 0;
}

/// `report --metrics`: aggregates the per-scenario `perf` sections into a
/// campaign-wide wall-clock breakdown (where did the time go, and at what
/// evaluation throughput). Campaigns from before the perf block render
/// "-" columns instead of failing.
int report_metrics(const scenario::ResultStore& store,
                   const scenario::CampaignManifest& manifest) {
  util::Table table({"scenario", "wallclock [s]", "evaluate [s]",
                     "lifetime [s]", "persist [s]", "evals/s"});
  double total_wall = 0.0, total_evaluate = 0.0, total_lifetime = 0.0;
  double total_persist = 0.0;
  std::size_t total_evals = 0, complete = 0;
  for (const auto& status : manifest.scenarios) {
    if (!status.complete) {
      table.add_row({status.name, "-", "-", "-", "-", "-"});
      continue;
    }
    ++complete;
    total_wall += status.wallclock_s;
    total_evals += status.evaluations;
    const util::Json summary = store.load_summary(status.name);
    std::string evaluate = "-", lifetime = "-", persist = "-";
    if (const util::Json* perf = summary.find("perf")) {
      const double evaluate_s = perf->at("evaluate_s").as_double();
      const double lifetime_s = perf->at("lifetime_s").as_double();
      const double persist_s = perf->at("persist_s").as_double();
      total_evaluate += evaluate_s;
      total_lifetime += lifetime_s;
      total_persist += persist_s;
      evaluate = util::Table::num(evaluate_s, 3);
      lifetime = util::Table::num(lifetime_s, 3);
      persist = util::Table::num(persist_s, 3);
    }
    const double rate = status.wallclock_s > 0.0
                            ? static_cast<double>(status.evaluations) /
                                  status.wallclock_s
                            : 0.0;
    table.add_row({status.name, util::Table::num(status.wallclock_s, 3),
                   evaluate, lifetime, persist, util::Table::num(rate, 0)});
  }
  table.add_row({"TOTAL", util::Table::num(total_wall, 3),
                 util::Table::num(total_evaluate, 3),
                 util::Table::num(total_lifetime, 3),
                 util::Table::num(total_persist, 3),
                 total_wall > 0.0
                     ? util::Table::num(
                           static_cast<double>(total_evals) / total_wall, 0)
                     : "-"});
  std::printf("campaign perf at %s (%zu/%zu scenario(s) complete)\n\n%s\n",
              store.root().c_str(), complete, manifest.scenarios.size(),
              table.render().c_str());
  if (complete > 0) {
    // Bucket-interpolated scenario-duration quantiles, binned into the
    // same latency edges the live wsnex_scenario_seconds histogram uses so
    // offline reports and /metrics scrapes agree on methodology.
    const std::vector<double> bounds = util::metrics::default_latency_bounds();
    std::vector<std::uint64_t> buckets(bounds.size() + 1, 0);
    for (const auto& status : manifest.scenarios) {
      if (!status.complete) continue;
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), status.wallclock_s) -
          bounds.begin());
      ++buckets[i];
    }
    std::printf("scenario wallclock quantiles: p50 %s s, p95 %s s, p99 %s s\n",
                util::Table::num(
                    util::metrics::bucket_quantile(bounds, buckets, 0.50), 3)
                    .c_str(),
                util::Table::num(
                    util::metrics::bucket_quantile(bounds, buckets, 0.95), 3)
                    .c_str(),
                util::Table::num(
                    util::metrics::bucket_quantile(bounds, buckets, 0.99), 3)
                    .c_str());
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  const CommonFlags flags =
      parse_flags(args, "report", {"--metrics", "--convergence"});
  if (!flags.ok) return 2;
  if (flags.metrics && flags.convergence) {
    std::fprintf(stderr, "report: --metrics and --convergence are separate "
                         "reports; pass one\n");
    return 2;
  }
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "report: exactly one campaign directory expected\n");
    return 2;
  }
  scenario::ResultStore store(flags.positional.front());
  if (!scenario::ResultStore::exists(store.root())) {
    std::fprintf(stderr, "%s: no campaign manifest (campaign.json)\n",
                 store.root().c_str());
    return 1;
  }
  const auto manifest = store.load_manifest();
  if (flags.metrics) return report_metrics(store, manifest);
  if (flags.convergence) return report_convergence(store, manifest);
  util::Table table({"scenario", "status", "evals", "front", "feasible",
                     "best E_net [mJ/s]", "lifetime [days]", "validated",
                     "best config"});
  for (const auto& status : manifest.scenarios) {
    if (!status.complete) {
      table.add_row({status.name, "pending", "-", "-", "-", "-", "-", "-",
                     "-"});
      continue;
    }
    std::string best_energy = "-", best_lifetime = "-", best_config = "-";
    const util::Json summary = store.load_summary(status.name);
    if (const util::Json* best = summary.find("best_feasible")) {
      best_energy = util::Table::num(best->at("e_net_mj_per_s").as_double(), 3);
      best_lifetime =
          util::Table::num(best->at("lifetime_days").as_double(), 1);
      best_config = best->at("config").as_string();
    }
    std::string validated = "-";
    if (store.has_validation(status.name)) {
      const util::Json validation = store.load_validation(status.name);
      validated = validation.at("passed").as_bool() ? "pass" : "FAIL";
    }
    table.add_row({status.name, "complete", std::to_string(status.evaluations),
                   std::to_string(status.front_size),
                   std::to_string(status.feasible_size), best_energy,
                   best_lifetime, validated, best_config});
  }
  std::printf("campaign at %s%s\n\n%s\n", store.root().c_str(),
              manifest.quick ? " (quick budgets)" : "",
              table.render().c_str());
  const bool all_complete = std::all_of(
      manifest.scenarios.begin(), manifest.scenarios.end(),
      [](const scenario::ScenarioStatus& s) { return s.complete; });
  if (!all_complete) {
    std::printf("pending scenarios remain — finish with: wsnex resume %s\n",
                store.root().c_str());
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "export", {"-o"});
  if (!flags.ok) return 2;
  if (flags.out_dir.empty()) {
    std::fprintf(stderr, "export: -o/--out DIR is required\n");
    return 2;
  }
  std::vector<std::string> names = flags.positional;
  if (names.empty() ||
      (names.size() == 1 && names.front() == "all")) {
    names = scenario::preset_names();
  }
  std::filesystem::create_directories(flags.out_dir);
  for (const std::string& name : names) {
    const scenario::ScenarioSpec spec = scenario::preset(name);
    const std::string path =
        (std::filesystem::path(flags.out_dir) / (name + ".json")).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << spec.to_json().dump(2);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // WSNEX_TRACE=path captures the whole invocation (any subcommand);
  // --trace on run/resume scopes the capture to the campaign instead.
  wsnex::util::trace::init_from_env();
  // Arm fault-injection sites from WSNEX_FAILPOINTS up front: in a build
  // without -DWSNEX_FAILPOINTS=ON this warns that nothing will be armed
  // instead of silently ignoring the variable.
  wsnex::util::failpoint::configure_from_env();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(stderr);
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "version" || command == "--version") {
      return cmd_version(args);
    }
    if (command == "list") return cmd_list(args);
    if (command == "check") return cmd_check(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "run") return cmd_run(args);
    if (command == "resume") return cmd_resume(args);
    if (command == "report") return cmd_report(args);
    if (command == "export") return cmd_export(args);
    if (command == "serve") return cli::cmd_serve(args);
    if (command == "submit") return cli::cmd_submit(args);
    if (command == "status") return cli::cmd_status(args);
    if (command == "results") return cli::cmd_results(args);
    if (command == "cancel") return cli::cmd_cancel(args);
    if (command == "watch") return cli::cmd_watch(args);
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(stdout);
    }
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    return usage(stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnex %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
