#include "scenario/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "dse/objectives.hpp"
#include "dsp/prd_calibration.hpp"
#include "model/lifetime.hpp"
#include "util/build_info.hpp"
#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/events.hpp"
#include "util/failpoint.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace wsnex::scenario {

namespace {

/// Wall-clock split of one scenario, recorded in summary.json's perf
/// block: `evaluate_s` is timed on the lane, the rest by its commit.
struct ScenarioPerf {
  double evaluate_s = 0.0;  ///< run_scenario (DSE + decode)
  double lifetime_s = 0.0;  ///< feasibility + lifetime recompute
  double persist_s = 0.0;   ///< archive CSV writes
};

/// How much optimizer time a scenario's progress records may wait in
/// memory before they are written to progress.jsonl (`wsnex watch DIR`
/// polls at the same period).
constexpr double kProgressWriteInterval_s = 0.25;

util::metrics::Counter& scenario_counter(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_scenarios_total", "Campaign scenarios by outcome", labels);
}

util::metrics::Histogram& scenario_seconds() {
  return util::metrics::Registry::instance().histogram(
      "wsnex_scenario_seconds",
      "Wall-clock duration of one executed scenario, evaluation through "
      "persist",
      util::metrics::default_latency_bounds());
}

/// Canonical archive row order for result files: lexicographic by
/// objectives, then genome. ParetoArchive entry order is an eviction
/// implementation detail, so files are sorted to make byte-level
/// comparisons (resume vs uninterrupted, different engine versions with
/// the same member set) meaningful.
std::vector<std::size_t> canonical_order(const dse::ParetoArchive& archive) {
  std::vector<std::size_t> order(archive.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& entries = archive.entries();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries[a].objectives != entries[b].objectives) {
      return entries[a].objectives < entries[b].objectives;
    }
    return entries[a].genome < entries[b].genome;
  });
  return order;
}

/// Network lifetime (first node dies) in days for one archived design,
/// recomputed from the full evaluation — the archive stores only the
/// Eq. 8 combinator, not the per-node draws the battery maths needs.
double entry_lifetime_days(const model::NetworkModelEvaluator& evaluator,
                           const dse::DesignSpace& space,
                           const model::Battery& battery,
                           const dse::Genome& genome) {
  const model::NetworkEvaluation eval =
      evaluator.evaluate(space.decode(genome));
  if (!eval.feasible) return 0.0;
  std::vector<double> draws;
  draws.reserve(eval.nodes.size());
  for (const model::NodeEvaluation& node : eval.nodes) {
    draws.push_back(node.energy.total());
  }
  return model::network_lifetime_hours(battery, draws) / 24.0;
}

void write_archive_csv(const std::string& path,
                       const dse::ParetoArchive& archive,
                       const std::vector<std::size_t>& rows,
                       const std::vector<double>& lifetime_days,
                       const dse::DesignSpace& space) {
  util::CsvWriter csv(path);
  csv.write_row({"E_net_mJ_per_s", "PRD_net_percent", "D_net_s",
                 "lifetime_days", "genome", "config"});
  // Every row is formatted into one reused buffer; `ends` marks where
  // each of its six fields stops.
  std::string row;
  std::array<std::size_t, 6> ends{};
  std::array<std::string_view, 6> fields;
  const auto& entries = archive.entries();
  for (const std::size_t i : rows) {
    const dse::ArchiveEntry& e = entries[i];
    row.clear();
    for (std::size_t k = 0; k < 3; ++k) {
      util::append_double_shortest(row, e.objectives[k]);
      ends[k] = row.size();
    }
    util::append_double_shortest(row, lifetime_days[i]);
    ends[3] = row.size();
    for (std::size_t g = 0; g < e.genome.size(); ++g) {
      if (g > 0) row += ' ';
      char digits[8];
      const auto gene =
          std::to_chars(digits, digits + sizeof(digits), e.genome[g]);
      row.append(digits, gene.ptr);
    }
    ends[4] = row.size();
    space.describe_to(e.genome, row);
    ends[5] = row.size();
    std::size_t begin = 0;
    for (std::size_t k = 0; k < fields.size(); ++k) {
      fields[k] = std::string_view(row).substr(begin, ends[k] - begin);
      begin = ends[k];
    }
    csv.write_row(fields);
  }
  // A failed write (a full disk) throws here, before the summary records
  // the scenario complete: it stays pending for a resume. The fsync makes
  // the rows durable before that record; the summary's directory fsync
  // then makes this file's directory entry durable too.
  csv.close();
  util::fsync_file(path);
}

util::Json make_summary(const ScenarioSpec& spec, const ScenarioRun& run,
                        const std::vector<std::size_t>& feasible,
                        const std::vector<double>& lifetime_days,
                        const ScenarioPerf& perf) {
  util::Json summary = util::Json::object();
  summary.set("name", spec.name);
  summary.set("optimizer", to_string(spec.optimizer.kind));
  summary.set("seed", static_cast<std::int64_t>(spec.optimizer.seed));
  summary.set("frame_error_rate", run.frame_error_rate);
  summary.set("cardinality", run.space.cardinality());
  summary.set("evaluations", run.result.evaluations);
  summary.set("infeasible", run.result.infeasible_count);
  summary.set("front_size", run.result.archive.size());
  summary.set("feasible_size", feasible.size());
  summary.set("wallclock_s", run.result.wallclock_s);
  // Performance provenance: where this scenario's wall clock went.
  // Out-of-band by construction — nothing downstream reads it back.
  util::Json perf_json = util::Json::object();
  perf_json.set("evaluate_s", perf.evaluate_s);
  perf_json.set("lifetime_s", perf.lifetime_s);
  perf_json.set("persist_s", perf.persist_s);
  // Build provenance: the same facts the wsnex_build_info gauge exports,
  // so an artifact is self-describing without the process that wrote it.
  perf_json.set("build", util::build_info_json());
  summary.set("perf", std::move(perf_json));
  if (!feasible.empty()) {
    const dse::ArchiveEntry& best =
        run.result.archive.entries()[feasible.front()];
    util::Json best_json = util::Json::object();
    best_json.set("e_net_mj_per_s", best.objectives[0]);
    best_json.set("prd_net_percent", best.objectives[1]);
    best_json.set("d_net_s", best.objectives[2]);
    best_json.set("lifetime_days", lifetime_days[feasible.front()]);
    best_json.set("config", run.space.describe(best.genome));
    summary.set("best_feasible", std::move(best_json));
  }
  return summary;
}

/// One scenario's progress.jsonl. The convergence sink appends each
/// record's line to `pending` and, once kProgressWriteInterval_s of the
/// optimizer's time has passed since its start or the last write, writes
/// the pending lines out, creating the file on the first write. The
/// scenario's commit writes the rest and closes the file. The lane hands
/// the file to its commit worker only through the worker's handoff, so
/// the two never touch it at once.
struct ProgressFile {
  const ResultStore* store = nullptr;
  std::string name;             ///< the scenario's
  std::string pending;          ///< records not yet written, one per line
  double last_write_s = 0.0;    ///< optimizer time of the last write
  bool created = false;         ///< the first write opened `out`
  std::ofstream out;

  /// Writes `pending` out, creating (truncating) the file on the first
  /// call. Telemetry, not a result: a failed write is not an error.
  void write_pending() {
    if (!created) {
      created = true;
      store->ensure_result_dir(name);
      out.open(store->progress_jsonl_path(name),
               std::ios::out | std::ios::trunc);
    }
    out.write(pending.data(), static_cast<std::streamsize>(pending.size()));
    out.flush();
    pending.clear();
  }

  /// Writes what is left and closes the file, which exists afterwards
  /// even when the optimizer reported no record.
  void finish() {
    write_pending();
    out.close();
  }
};

/// Per-scenario state shared by the convergence sink's invocations (the
/// sink runs on the scenario's lane, so no locking is needed; the
/// shared_ptr only extends lifetime into the capturing lambda).
struct ConvergenceState {
  util::events::Event event;  ///< kGeneration template: job and scenario set
  std::shared_ptr<ProgressFile> file;  ///< null when progress is disabled
  std::uint64_t records = 0;  ///< records appended to `file` so far
  util::events::EventRing* events = nullptr;
  dse::Objectives reference;
  ClinicalConstraints constraints;
  dse::Hypervolume3Scratch scratch;
};

/// Builds the convergence observer for one scenario: each snapshot becomes
/// one `generation` event, published into the campaign's ring and/or
/// appended to `file` as its util::events JSON. Ring and file carry the
/// same record apart from `seq` and `t`: in the file, `seq` numbers the
/// file's records from 1 and `t` is the optimizer's elapsed seconds.
/// Returns an empty sink when both outputs are disabled. Strictly
/// read-only w.r.t. the optimizer run.
dse::ProgressSink make_convergence_sink(const ScenarioSpec& spec,
                                        const CampaignOptions& options,
                                        std::shared_ptr<ProgressFile> file) {
  if (file == nullptr && options.events == nullptr) return {};
  auto state = std::make_shared<ConvergenceState>();
  state->event = util::events::make_event(util::events::Kind::kGeneration,
                                          options.event_job_id, spec.name, "");
  state->file = std::move(file);
  state->events = options.events;
  state->reference = hv_reference_point(spec);
  state->constraints = spec.constraints;
  return [state](const dse::ProgressSnapshot& snap) {
    util::events::Event e = state->event;
    e.generation = snap.generation;
    e.evaluations = snap.evaluations;
    e.archive_size = snap.archive_size;
    e.evals_per_s = snap.evals_per_s;
    // Clinically feasible members and hypervolume of the current archive.
    // Arity is 3 for every campaign objective; guard anyway so a
    // 2-objective adapter run degrades to zeros instead of reading out of
    // bounds.
    const dse::ParetoArchive& archive = *snap.archive;
    if (archive.arity() == 3) {
      const double* rows = archive.objectives_flat().data();
      for (std::size_t i = 0; i < archive.size(); ++i) {
        const double* row = rows + 3 * i;
        if (row[1] <= state->constraints.max_prd_percent &&
            row[2] <= state->constraints.max_delay_s) {
          ++e.feasible;
        }
      }
      e.hypervolume = dse::hypervolume3_flat(rows, archive.size(), 3,
                                             state->reference.data(),
                                             state->scratch);
    }
    if (state->events != nullptr) state->events->publish(e);
    if (ProgressFile* file = state->file.get()) {
      e.seq = ++state->records;
      e.time_s = snap.elapsed_s;
      util::events::append_event_json(file->pending, e);
      file->pending += '\n';
      if (snap.elapsed_s - file->last_write_s >= kProgressWriteInterval_s) {
        file->last_write_s = snap.elapsed_s;
        file->write_pending();
      }
    }
  };
}

/// Each scenario runs on one thread; a `threads` above 1 is refused
/// rather than silently ignored.
void require_calling_thread(const CampaignOptions& options) {
  if (options.threads.value_or(0) > 1) {
    throw std::invalid_argument(
        "campaign: threads must be 0 or 1 (each scenario runs on one "
        "thread); use jobs to run scenarios concurrently");
  }
}

}  // namespace

util::metrics::Histogram& scenario_seconds_histogram() {
  return scenario_seconds();
}

dse::Objectives hv_reference_point(const ScenarioSpec& spec) {
  // [E_net mJ/s, PRD_net %, D_net s]. PRD and delay ceilings come straight
  // from the clinical constraints; the energy ceiling is the per-node
  // drain rate that would flatten the spec's battery within one day — far
  // beyond any deployable configuration, so no realistic archive member is
  // clipped, yet finite so the hypervolume integral is bounded.
  return {spec.battery.usable_energy_mj() / 86400.0,
          spec.constraints.max_prd_percent, spec.constraints.max_delay_s};
}

namespace {

/// One scenario whose optimizer and post-scenario hook ran on its lane:
/// what is left is its commit (commit_scenario), which owns all of it.
struct ScenarioCommit {
  const ScenarioSpec* spec = nullptr;
  ScenarioRun run;
  std::shared_ptr<ProgressFile> progress;  ///< null when progress is off
  ScenarioPerf perf;
  double start_s = 0.0;  ///< start of the wsnex_scenario_seconds interval
  std::size_t index = 0;  ///< spec index, for the campaign driver
};

/// The part of a scenario that runs on its lane, inside the
/// `scenario:<name>` span: the optimizer with its convergence sink (span
/// `evaluate`), then the post-scenario hook. It writes no file itself
/// apart from progress records due on the 250-ms cadence and the hook's.
ScenarioCommit run_on_lane(const ScenarioSpec& spec,
                           const CampaignOptions& options, ResultStore& store,
                           dse::SharedEvalCache* cache) {
  util::trace::Span scenario_span("scenario", spec.name);
  const double start_s = util::now_s();
  if (options.events != nullptr) {
    options.events->publish(util::events::make_event(
        util::events::Kind::kScenarioStarted, options.event_job_id, spec.name,
        ""));
  }
  std::shared_ptr<ProgressFile> progress;
  if (options.progress) {
    progress = std::make_shared<ProgressFile>();
    progress->store = &store;
    progress->name = spec.name;
  }

  const double phase_start = util::now_s();
  const dse::ProgressSink convergence =
      make_convergence_sink(spec, options, progress);
  ScenarioRun run = [&] {
    util::trace::Span span("evaluate");
    return run_scenario(spec, options.quick, cache, convergence);
  }();
  ScenarioPerf perf;
  perf.evaluate_s = util::now_s() - phase_start;
  if (options.post_scenario) {
    util::trace::Span span("hook");
    options.post_scenario(spec, run, store);
  }
  return ScenarioCommit{&spec, std::move(run), std::move(progress), perf,
                        start_s};
}

/// A scenario's commit: the feasibility screen and lifetime recompute
/// (span `lifetime`), the rest of progress.jsonl, pareto.csv and
/// feasible.csv (each fsync'd) then the `campaign.persist` fault site
/// (span `persist`), and last summary.json, which completes the scenario.
/// Returns the status that summary records. The caller opens the
/// `commit:<name>` span.
ScenarioStatus commit_scenario(ScenarioCommit& commit,
                               const CampaignOptions& options,
                               const ResultStore& store) {
  const ScenarioSpec& spec = *commit.spec;
  const ScenarioRun& run = commit.run;
  double phase_start = util::now_s();
  std::vector<std::size_t> feasible;
  std::vector<double> lifetime_days;
  {
    util::trace::Span span("lifetime");
    feasible = feasible_entries(run.result.archive, spec.constraints);
    const auto evaluator =
        model::NetworkModelEvaluator::make_default(spec.evaluator_options());
    const auto& entries = run.result.archive.entries();
    lifetime_days.assign(entries.size(), 0.0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      lifetime_days[i] =
          entry_lifetime_days(evaluator, run.space, spec.battery,
                              entries[i].genome);
    }
  }
  commit.perf.lifetime_s = util::now_s() - phase_start;
  if (commit.progress != nullptr) commit.progress->finish();

  phase_start = util::now_s();
  {
    util::trace::Span span("persist");
    store.ensure_result_dir(spec.name);
    write_archive_csv(store.pareto_csv_path(spec.name), run.result.archive,
                      canonical_order(run.result.archive), lifetime_days,
                      run.space);
    write_archive_csv(store.feasible_csv_path(spec.name), run.result.archive,
                      feasible, lifetime_days, run.space);
    // Mid-persist fault site: archives on disk, summary not yet written —
    // the scenario stays pending and a resume regenerates the CSVs
    // bit-identically. Torn counts as an error here (the CSV writer
    // is not atomic; a partial archive must abort, not "succeed").
    if (const auto fault = util::failpoint::evaluate("campaign.persist")) {
      errno = fault.error_errno != 0 ? fault.error_errno : EIO;
      throw util::FileError(std::string("persist of ") + spec.name +
                            " failed (injected): " + std::strerror(errno));
    }
  }
  commit.perf.persist_s = util::now_s() - phase_start;

  store.write_summary(spec.name, make_summary(spec, run, feasible,
                                              lifetime_days, commit.perf));
  static auto& executed = scenario_counter("outcome=\"executed\"");
  static auto& seconds = scenario_seconds();
  executed.inc();
  seconds.observe(util::now_s() - commit.start_s);

  ScenarioStatus status;
  status.name = spec.name;
  status.complete = true;
  status.evaluations = run.result.evaluations;
  status.infeasible = run.result.infeasible_count;
  status.front_size = run.result.archive.size();
  status.feasible_size = feasible.size();
  status.wallclock_s = run.result.wallclock_s;
  if (options.events != nullptr) {
    options.events->publish(util::events::make_event(
        util::events::Kind::kScenarioFinished, options.event_job_id,
        status.name,
        "front=" + std::to_string(status.front_size) +
            " evals=" + std::to_string(status.evaluations)));
  }
  return status;
}

}  // namespace

ScenarioStatus execute_scenario(const ScenarioSpec& spec,
                                const CampaignOptions& options,
                                ResultStore& store, std::nullptr_t,
                                dse::SharedEvalCache* cache) {
  require_calling_thread(options);
  ScenarioCommit commit = run_on_lane(spec, options, store, cache);
  util::trace::Span span("commit", spec.name);
  return commit_scenario(commit, options, store);
}

namespace {

/// A campaign lane's commit worker: one thread that runs the lane's
/// scenario commits in the order they are posted, through a one-slot
/// handoff guarded by one mutex and one condition variable. The lane posts
/// a commit and computes its next scenario meanwhile; it calls wait()
/// before its next post, so at most one commit is in flight. The worker
/// is not a util::run_parallel call, so `wsnex_threadpool_*` count lanes.
class CommitWorker {
 public:
  using Commit = std::function<void(ScenarioCommit&)>;

  explicit CommitWorker(Commit commit)
      : commit_(std::move(commit)), thread_([this] { serve(); }) {}

  ~CommitWorker() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_one();
  }  // thread_, the last member, joins first

  /// Blocks until no commit is in flight; returns the first commit's
  /// failure, which stays set, or null.
  std::exception_ptr wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return !busy_; });
    return error_;
  }

  /// Hands `commit` to the worker; call only after wait() returned null.
  void post(ScenarioCommit commit) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot_.emplace(std::move(commit));
      busy_ = true;
    }
    ready_.notify_one();
  }

 private:
  // The lane waits only while busy_ and the worker only while idle, so a
  // notify_one always reaches the thread that waits for it.
  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ready_.wait(lock, [&] { return slot_.has_value() || stop_; });
      if (!slot_) return;
      ScenarioCommit commit = std::move(*slot_);
      slot_.reset();
      lock.unlock();
      std::exception_ptr error;
      try {
        commit_(commit);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = std::move(error);
      busy_ = false;
      ready_.notify_one();
    }
  }

  const Commit commit_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::optional<ScenarioCommit> slot_;  ///< posted, not yet taken
  bool busy_ = false;                   ///< a commit is posted or running
  bool stop_ = false;
  std::exception_ptr error_;
  std::jthread thread_;
};

/// Runs the campaign on min(jobs, scenarios to run) lanes: each lane
/// claims the next spec index until the outcome prefix is exhausted and
/// runs that scenario's optimizer and post-scenario hook on its own
/// thread, so at most `jobs` scenarios are in flight and, at jobs 1, the
/// specs run in order on the calling thread. `statuses` are the store's,
/// in spec order. The lane posts everything else (lifetime recompute,
/// progress.jsonl, the archive CSVs, summary.json and the progress
/// report) to its commit worker and computes the next scenario
/// meanwhile; it waits for the worker before its next post, before it
/// reports a skipped scenario and before it exits, so at jobs 1 commits
/// and reports stay in spec order. Result files do not depend on the
/// lane count: each scenario is individually deterministic and the
/// archives are written in canonical order; only the order of progress
/// reports differs.
CampaignReport drive_campaign(const std::vector<ScenarioSpec>& specs,
                              const std::vector<ScenarioStatus>& statuses,
                              const CampaignOptions& options,
                              ResultStore& store,
                              const std::function<void(const CampaignOutcome&)>&
                                  progress) {
  if (!options.cache_dir.empty() &&
      !dsp::set_default_prd_cache_dir(options.cache_dir)) {
    WSNEX_DEBUG() << "--cache-dir ignored for this process: the PRD "
                     "calibration was already computed";
  }
  dse::SharedEvalCache& cache = dse::SharedEvalCache::instance();
  // abort_after simulates a kill: the outcomes cover the spec prefix
  // before the first pending scenario beyond the limit.
  std::size_t cutoff = specs.size();
  std::size_t pending = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (statuses[i].complete) continue;
    if (options.abort_after != 0 && pending == options.abort_after) {
      cutoff = i;
      break;
    }
    ++pending;
  }

  // No more lanes than scenarios to run, and at least the calling thread.
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min(options.jobs, pending));
  CampaignReport report;
  std::vector<CampaignOutcome> outcomes(cutoff);
  std::mutex mutex;  // guards `report` and `progress`
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // After a failure no lane claims another scenario; in-flight ones
  // finish, and a lane posts its scenario only if its previous commit
  // succeeded. run_parallel rethrows once every lane is done.
  const auto claim = [&] {
    return failed.load(std::memory_order_relaxed)
               ? cutoff
               : next.fetch_add(1, std::memory_order_relaxed);
  };
  const auto commit = [&](ScenarioCommit& done) {
    try {
      CampaignOutcome& outcome = outcomes[done.index];
      util::trace::Span span("commit", outcome.name);
      ScenarioStatus status = commit_scenario(done, options, store);
      const std::lock_guard<std::mutex> lock(mutex);
      outcome.status = std::move(status);
      ++report.executed;
      if (progress) progress(outcome);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  };
  util::run_parallel(lanes, [&](std::size_t) {
    CommitWorker worker(commit);
    try {
      std::size_t i = claim();
      while (i < cutoff) {
        CampaignOutcome& outcome = outcomes[i];
        outcome.name = specs[i].name;
        if (statuses[i].complete) {
          if (worker.wait()) break;
          outcome.skipped = true;
          outcome.status = statuses[i];
          static auto& skipped = scenario_counter("outcome=\"skipped\"");
          skipped.inc();
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ++report.skipped;
            if (progress) progress(outcome);
          }
          i = claim();
          continue;
        }
        ScenarioCommit done = run_on_lane(specs[i], options, store, &cache);
        done.index = i;
        if (worker.wait()) break;  // this scenario stays pending
        // Claimed before the post: the lane computes its next scenario
        // beside this commit whether or not the commit fails.
        i = claim();
        worker.post(std::move(done));
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      // The earlier scenario's failure wins.
      if (const std::exception_ptr error = worker.wait()) {
        std::rethrow_exception(error);
      }
      throw;
    }
    if (const std::exception_ptr error = worker.wait()) {
      std::rethrow_exception(error);
    }
  });

  report.outcomes = std::move(outcomes);
  report.complete = cutoff == specs.size();
  return report;
}

/// Throws naming the first name in spec order that an earlier spec
/// already holds.
void check_unique_names(const std::vector<ScenarioSpec>& specs) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    if (!seen.insert(spec.name).second) {
      throw ScenarioError("campaign holds two scenarios named \"" +
                          spec.name +
                          "\" (names key the result store; rename one)");
    }
  }
}

}  // namespace

ScenarioSpec quick_variant(ScenarioSpec spec) {
  spec.optimizer.population = 16;
  spec.optimizer.generations = 8;
  spec.optimizer.iterations = 256;
  return spec;
}

std::vector<std::size_t> feasible_entries(
    const dse::ParetoArchive& archive, const ClinicalConstraints& constraints) {
  std::vector<std::size_t> feasible;
  const auto& entries = archive.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].objectives[1] <= constraints.max_prd_percent &&
        entries[i].objectives[2] <= constraints.max_delay_s) {
      feasible.push_back(i);
    }
  }
  std::sort(feasible.begin(), feasible.end(), [&](std::size_t a, std::size_t b) {
    if (entries[a].objectives[0] != entries[b].objectives[0]) {
      return entries[a].objectives[0] < entries[b].objectives[0];
    }
    return entries[a].genome < entries[b].genome;
  });
  return feasible;
}

ScenarioRun run_scenario(const ScenarioSpec& spec, bool quick,
                         dse::SharedEvalCache* cache,
                         const dse::ProgressSink& progress) {
  spec.validate();
  const ScenarioSpec effective = quick ? quick_variant(spec) : spec;
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(effective.evaluator_options());
  dse::DesignSpace space(effective.design_space_config());
  const auto objective =
      dse::make_memoized_full_model_objective(evaluator, space, 1, cache);

  const OptimizerSettings& opt = effective.optimizer;
  dse::DseResult result;
  switch (opt.kind) {
    case OptimizerKind::kNsga2: {
      dse::Nsga2Options o;
      o.population = opt.population;
      o.generations = opt.generations;
      o.crossover_rate = opt.crossover_rate;
      if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
      o.seed = opt.seed;
      o.progress = progress;
      result = dse::run_nsga2(space, *objective, o);
      break;
    }
    case OptimizerKind::kMosa: {
      dse::MosaOptions o;
      o.iterations = opt.iterations;
      o.initial_temperature = opt.initial_temperature;
      o.cooling = opt.cooling;
      if (opt.mutation_rate > 0.0) o.mutation_rate = opt.mutation_rate;
      o.seed = opt.seed;
      o.progress = progress;
      result = dse::run_mosa(space, *objective, o);
      break;
    }
    case OptimizerKind::kRandom: {
      dse::RandomSearchOptions o;
      o.samples = opt.iterations;
      o.seed = opt.seed;
      result = dse::run_random_search(space, *objective, o);
      break;
    }
  }
  return ScenarioRun{std::move(space), std::move(result),
                     effective.effective_frame_error_rate()};
}

CampaignReport run_campaign(
    const std::vector<ScenarioSpec>& specs, const CampaignOptions& options,
    const std::function<void(const CampaignOutcome&)>& progress) {
  if (specs.empty()) {
    throw ScenarioError("campaign has no scenarios");
  }
  if (options.out_dir.empty()) {
    throw ScenarioError("campaign needs an output directory");
  }
  require_calling_thread(options);
  for (const ScenarioSpec& spec : specs) spec.validate();
  check_unique_names(specs);
  ResultStore store(options.out_dir);
  store.initialize(specs, options.quick);
  return drive_campaign(specs, store.load_manifest().scenarios, options, store,
                        progress);
}

CampaignReport resume_campaign(
    const std::string& out_dir, const ResumeOverrides& overrides,
    const std::function<void(const CampaignOutcome&)>& progress) {
  if (!ResultStore::exists(out_dir)) {
    throw ScenarioError(out_dir +
                        ": no campaign manifest (campaign.json) to resume");
  }
  ResultStore store(out_dir);
  store.sweep_stale_temp_files();
  const CampaignManifest manifest = store.load_manifest();
  std::vector<ScenarioSpec> specs;
  specs.reserve(manifest.scenarios.size());
  for (const ScenarioStatus& status : manifest.scenarios) {
    specs.push_back(store.load_spec(status.name));
  }
  CampaignOptions options;
  options.out_dir = out_dir;
  options.quick = manifest.quick;
  options.abort_after = overrides.abort_after;
  options.jobs = overrides.jobs;
  options.cache_dir = overrides.cache_dir;
  options.progress = overrides.progress;
  options.post_scenario = overrides.post_scenario;
  return drive_campaign(specs, manifest.scenarios, options, store, progress);
}

}  // namespace wsnex::scenario
