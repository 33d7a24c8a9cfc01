#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>

#include <chrono>

#include "dsp/prd_calibration.hpp"
#include "scenario/campaign.hpp"
#include "util/clock.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"
#include "util/socket.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "validate/validation.hpp"

namespace wsnex::serve {

namespace fs = std::filesystem;

namespace {

util::metrics::Counter& submit_counter(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_serve_submissions_total", "Job submissions by admission outcome",
      labels);
}

util::metrics::Counter& finished_counter(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_serve_jobs_finished_total", "Jobs reaching a terminal state",
      labels);
}

util::metrics::Counter& unit_counter(const char* labels) {
  return util::metrics::Registry::instance().counter(
      "wsnex_serve_units_total",
      "Scheduler work units (WRR grants and their outcomes)", labels);
}

util::metrics::Gauge& active_jobs_gauge() {
  return util::metrics::Registry::instance().gauge(
      "wsnex_serve_active_jobs", "Non-terminal (queued + running) jobs");
}

util::metrics::Counter& unit_retries_counter() {
  return util::metrics::Registry::instance().counter(
      "wsnex_serve_unit_retries_total",
      "Units re-queued after a transient (I/O) failure");
}

util::metrics::Counter& deadline_counter() {
  return util::metrics::Registry::instance().counter(
      "wsnex_serve_deadline_exceeded_total",
      "Jobs failed for exceeding their deadline_s budget");
}

using util::events::Kind;
using util::events::make_event;

/// Priority clamp; submissions above it are lowered, not rejected.
constexpr std::size_t kMaxPriority = 16;
/// Retries per unit for *transient* errors (I/O, socket) before the job
/// fails. Bad inputs (ScenarioError et al.) never retry.
constexpr std::size_t kUnitRetries = 1;
/// Deadline-watchdog poll period. Jobs also check their deadline at every
/// unit completion, so tiny deadlines fail deterministically even with a
/// coarse watchdog.
constexpr std::chrono::milliseconds kWatchdogInterval{250};

}  // namespace

// --- WeightedRoundRobin ----------------------------------------------------

void WeightedRoundRobin::add(const std::string& key, std::size_t weight) {
  if (weight == 0) weight = 1;
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      entry.weight = weight;
      if (entry.credit > weight) entry.credit = weight;
      return;
    }
  }
  entries_.push_back(Entry{key, weight, weight});
}

void WeightedRoundRobin::remove(const std::string& key) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key != key) continue;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    if (i < cursor_) --cursor_;
    if (cursor_ >= entries_.size()) cursor_ = 0;
    return;
  }
}

std::string WeightedRoundRobin::pick() {
  if (entries_.empty()) return {};
  if (cursor_ >= entries_.size()) cursor_ = 0;
  Entry& entry = entries_[cursor_];
  if (entry.credit == 0) entry.credit = entry.weight;
  --entry.credit;
  std::string key = entry.key;
  if (entry.credit == 0) {
    entry.credit = entry.weight;
    cursor_ = (cursor_ + 1) % entries_.size();
  }
  return key;
}

// --- JobProgress -----------------------------------------------------------

util::Json JobProgress::to_json() const {
  util::Json json = util::Json::object();
  json.set("id", id);
  json.set("kind", to_string(kind));
  json.set("state", to_string(state));
  json.set("priority", priority);
  json.set("units_done", units_done);
  json.set("units_total", units_total);
  json.set("unit_wallclock_s", unit_wallclock_s);
  if (!error.empty()) json.set("error", error);
  util::Json names = util::Json::array();
  for (const std::string& name : scenarios) names.push_back(name);
  json.set("scenarios", std::move(names));
  // Process-wide unit-duration quantiles (the wsnex_scenario_seconds
  // histogram, bucket-interpolated). Omitted while the histogram is empty,
  // before the first campaign unit lands.
  const util::metrics::Histogram& durations =
      scenario::scenario_seconds_histogram();
  const double p50 = util::metrics::histogram_quantile(durations, 0.50);
  if (std::isfinite(p50)) {
    util::Json quantiles = util::Json::object();
    quantiles.set("p50", p50);
    quantiles.set("p95", util::metrics::histogram_quantile(durations, 0.95));
    quantiles.set("p99", util::metrics::histogram_quantile(durations, 0.99));
    json.set("unit_seconds", std::move(quantiles));
  }
  return json;
}

// --- JobScheduler ----------------------------------------------------------

JobScheduler::JobScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      cache_(dse::SharedEvalCache::instance()) {
  if (options_.data_dir.empty()) {
    throw ServeError("scheduler: data_dir must be set");
  }
  if (options_.threads > 1) {
    throw std::invalid_argument(
        "scheduler: threads must be 0 or 1 (each unit runs on one "
        "thread); use slots to run units concurrently");
  }
  options_.slots = util::resolve_threads(options_.slots);
  if (options_.max_queued_jobs == 0) options_.max_queued_jobs = 1;
  if (!options_.cache_dir.empty() &&
      !dsp::set_default_prd_cache_dir(options_.cache_dir)) {
    cache_dir_degraded_ = true;
    WSNEX_DEBUG() << "serve: cache dir ignored for this process: the PRD "
                     "calibration was already computed";
  }
  fs::create_directories(jobs_dir());
}

JobScheduler::~JobScheduler() { drain(); }

std::string JobScheduler::jobs_dir() const {
  return (fs::path(options_.data_dir) / "jobs").string();
}

std::string JobScheduler::shard_dir(const std::string& id) const {
  return (fs::path(jobs_dir()) / scenario::ResultStore::shard_id(id)).string();
}

JobScheduler::Admission JobScheduler::submit(JobSpec spec,
                                             const std::string& request_id) {
  Admission admission = submit_impl(std::move(spec), request_id);
  switch (admission.code) {
    case Admission::Code::kAccepted: {
      static auto& accepted = submit_counter("outcome=\"accepted\"");
      accepted.inc();
      break;
    }
    case Admission::Code::kQueueFull: {
      static auto& queue_full = submit_counter("outcome=\"queue_full\"");
      queue_full.inc();
      break;
    }
    case Admission::Code::kDuplicate: {
      static auto& duplicate = submit_counter("outcome=\"duplicate\"");
      duplicate.inc();
      break;
    }
    case Admission::Code::kInvalid: {
      static auto& invalid = submit_counter("outcome=\"invalid\"");
      invalid.inc();
      break;
    }
    case Admission::Code::kStopping: {
      static auto& stopping = submit_counter("outcome=\"stopping\"");
      stopping.inc();
      break;
    }
  }
  if (admission.code != Admission::Code::kAccepted) {
    WSNEX_WARN() << "serve: admission rejected"
                 << (admission.id.empty() ? std::string()
                                          : " for job \"" + admission.id + "\"")
                 << ": " << admission.message;
  }
  return admission;
}

JobScheduler::Admission JobScheduler::submit_impl(
    JobSpec spec, const std::string& request_id) {
  Admission admission;
  if (spec.scenarios.empty()) {
    admission.code = Admission::Code::kInvalid;
    admission.message = "job: \"scenarios\" must be non-empty";
    return admission;
  }
  std::set<std::string> names;
  for (const scenario::ScenarioSpec& scenario : spec.scenarios) {
    try {
      scenario.validate();
    } catch (const std::exception& e) {
      admission.code = Admission::Code::kInvalid;
      admission.message = e.what();
      return admission;
    }
    if (!names.insert(scenario.name).second) {
      admission.code = Admission::Code::kInvalid;
      admission.message = "job: duplicate scenario \"" + scenario.name + "\"";
      return admission;
    }
  }
  spec.priority = std::clamp<std::size_t>(spec.priority, 1, kMaxPriority);
  // An unusable id is invalid whatever the queue looks like; check it
  // before the transient rejections so the client's 400 vs 429 is stable.
  if (!spec.id.empty() &&
      scenario::ResultStore::shard_id(spec.id) != spec.id) {
    admission.code = Admission::Code::kInvalid;
    admission.message =
        "job: \"id\" must be 1-64 chars of [A-Za-z0-9_.-] without a "
        "leading '.'";
    return admission;
  }

  // Submits run one at a time, so the verdict of the check below (id
  // free, queue not full) still holds when the job is published; the
  // scheduler lock is not held across the fsync'd shard writes between
  // the two, so status, results and workers never wait for them.
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) {
      admission.code = Admission::Code::kStopping;
      admission.message = "service is shutting down";
      return admission;
    }
    if (!spec.id.empty() && jobs_.count(spec.id) != 0) {
      admission.code = Admission::Code::kDuplicate;
      admission.message = "job \"" + spec.id + "\" already exists";
      return admission;
    }
    if (active_jobs_locked() >= options_.max_queued_jobs) {
      admission.code = Admission::Code::kQueueFull;
      admission.message =
          "job queue full (" + std::to_string(options_.max_queued_jobs) +
          " non-terminal jobs); retry after one finishes";
      return admission;
    }
    if (spec.id.empty()) {
      do {
        spec.id = "job-" + std::to_string(++next_auto_id_);
      } while (jobs_.count(spec.id) != 0);
    }
  }

  const std::string id = spec.id;
  auto job = std::make_unique<Job>();
  JobRecord& record = job->record;
  record.id = id;
  record.kind = spec.kind;
  record.priority = spec.priority;
  record.quick = spec.quick;
  record.deadline_s = spec.deadline_s;
  record.validation = spec.validation;
  for (const scenario::ScenarioSpec& scenario : spec.scenarios) {
    job->pending.insert(job->pending.end(), record.scenario_names.size());
    record.scenario_names.push_back(scenario.name);
  }
  job->specs = std::move(spec.scenarios);
  job->attempts.assign(job->specs.size(), 0);
  try {
    const std::string shard = shard_dir(id);
    // A shard with no job.json is debris from a submit that died between
    // store init and the admission record; job.json is written last, so
    // anything recoverable was registered by recover() and caught by the
    // duplicate check above.
    if (fs::exists(shard)) {
      if (fs::exists(fs::path(shard) / "job.json")) {
        admission.code = Admission::Code::kDuplicate;
        admission.message =
            "job \"" + id + "\" already exists on disk; pick another id";
        return admission;
      }
      fs::remove_all(shard);
    }
    job->store = std::make_unique<scenario::ResultStore>(shard);
    job->store->initialize(job->specs, record.quick);
    persist_record(*job, record);
  } catch (const std::exception& e) {
    admission.code = Admission::Code::kInvalid;
    admission.message = e.what();
    return admission;
  }
  job->events->publish(make_event(
      Kind::kJobQueued, id, "",
      request_id.empty() ? std::string() : "req=" + request_id));
  if (cache_dir_degraded_) {
    job->events->publish(make_event(
        Kind::kCacheDegraded, id, "",
        "prd cache dir ignored: calibration already computed in-process"));
  }
  {
    // A drain that began meanwhile leaves the job queued: job.json is on
    // disk, so the next daemon's recover() runs it.
    std::lock_guard<std::mutex> lk(mutex_);
    wrr_.add(id, record.priority);
    jobs_[id] = std::move(job);
    active_jobs_gauge().set(static_cast<double>(active_jobs_locked()));
  }
  cv_.notify_all();
  admission.code = Admission::Code::kAccepted;
  admission.id = id;
  return admission;
}

void JobScheduler::start() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(options_.slots + 1);
  for (std::size_t i = 0; i < options_.slots; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  workers_.emplace_back([this] { watchdog_loop(); });
}

std::size_t JobScheduler::recover() {
  std::vector<fs::path> shards;
  {
    const fs::path root = jobs_dir();
    if (!fs::exists(root)) return 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
      if (entry.is_directory()) shards.push_back(entry.path());
    }
  }
  std::sort(shards.begin(), shards.end());

  std::size_t requeued = 0;
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  std::lock_guard<std::mutex> lk(mutex_);
  for (const fs::path& shard : shards) {
    if (shard.filename().string().ends_with(".quarantined")) continue;
    const fs::path record_path = shard / "job.json";
    if (!fs::exists(record_path)) continue;  // aborted submit, no admission
    // A writer that died mid-write left `.tmp.*` debris in the shard;
    // clear it before anything reads or re-writes the artifacts.
    util::remove_stale_temp_files(shard.string());
    try {
      auto job = std::make_unique<Job>();
      JobRecord& record = job->record;
      record = JobRecord::from_json(
          util::Json::parse(util::read_file(record_path.string())));
      if (jobs_.count(record.id) != 0) {
        WSNEX_WARN() << "serve: duplicate job id \"" << record.id
                     << "\" in shard " << shard.string() << "; skipping";
        continue;
      }
      record.priority =
          std::clamp<std::size_t>(record.priority, 1, kMaxPriority);
      job->store = std::make_unique<scenario::ResultStore>(shard.string());
      job->attempts.assign(record.scenario_names.size(), 0);

      const scenario::CampaignManifest manifest = job->store->load_manifest();
      for (std::size_t i = 0; i < record.scenario_names.size(); ++i) {
        if (i < manifest.scenarios.size() && manifest.scenarios[i].complete) {
          ++job->units_done;
        } else {
          job->pending.insert(job->pending.end(), i);
        }
      }

      if (!is_terminal(record.state)) {
        // Interrupted (or never-started) job, whatever state its record
        // holds: reload the frozen specs — the store, not the submit body,
        // is the source of truth — and re-enqueue the pending units.
        for (const std::string& name : record.scenario_names) {
          job->specs.push_back(job->store->load_spec(name));
        }
        if (job->pending.empty()) {
          // Died between the last unit's summary and the verdict write:
          // everything is on disk, just publish the state.
          record.state = JobState::kComplete;
          persist_record(*job, record);
        } else {
          record.state = JobState::kQueued;
          wrr_.add(record.id, record.priority);
          ++requeued;
        }
      }

      // Event rings are in-memory only, so a recovered job starts a fresh
      // stream: one synthetic event telling watchers where it stands.
      if (is_terminal(record.state)) {
        job->events->publish(make_event(
            Kind::kJobFinished, record.id, "",
            std::string("recovered: ") + to_string(record.state)));
      } else {
        job->events->publish(
            make_event(Kind::kJobQueued, record.id, "", "recovered"));
      }

      // Keep auto ids ahead of every recovered "job-<n>".
      if (record.id.rfind("job-", 0) == 0) {
        const std::string tail = record.id.substr(4);
        if (!tail.empty() &&
            tail.find_first_not_of("0123456789") == std::string::npos &&
            tail.size() <= 18) {
          next_auto_id_ = std::max(next_auto_id_,
                                   static_cast<std::size_t>(
                                       std::stoull(tail)));
        }
      }
      jobs_[record.id] = std::move(job);
    } catch (const std::exception& e) {
      // Unreadable record or store (truncated job.json, missing frozen
      // spec, ...): move the shard aside so its id cannot wedge future
      // submits, and keep serving everything else.
      const fs::path quarantined = shard.string() + ".quarantined";
      std::error_code rename_ec;
      std::error_code exists_ec;
      if (fs::exists(quarantined, exists_ec)) {
        fs::remove_all(quarantined, rename_ec);
        rename_ec.clear();
      }
      fs::rename(shard, quarantined, rename_ec);
      if (rename_ec) {
        WSNEX_WARN() << "serve: skipping unrecoverable job shard "
                     << shard.string() << ": " << e.what()
                     << " (quarantine failed: " << rename_ec.message() << ")";
      } else {
        WSNEX_WARN() << "serve: quarantined unrecoverable job shard "
                     << shard.string() << " -> " << quarantined.string()
                     << ": " << e.what();
      }
    }
  }
  active_jobs_gauge().set(static_cast<double>(active_jobs_locked()));
  if (requeued > 0) cv_.notify_all();
  return requeued;
}

std::optional<JobProgress> JobScheduler::status(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return progress_of(*it->second);
}

std::vector<JobProgress> JobScheduler::list() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<JobProgress> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(progress_of(*job));
  return out;
}

std::optional<JobProgress> JobScheduler::cancel(const std::string& id) {
  Job* job = nullptr;
  std::optional<JobRecord> record;
  JobProgress progress;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second.get();
    if (!is_terminal(job->record.state) && !job->cancel_requested) {
      job->cancel_requested = true;
      wrr_.remove(id);
      record = maybe_finalize(*job);
    }
    progress = progress_of(*job);
  }
  // Written outside the scheduler lock, as the workers do. Jobs are never
  // erased, so `job` stays valid; a job finalized here had no unit in
  // flight, so no earlier job.json write of it can still be pending.
  if (record) persist_record(*job, *record);
  return progress;
}

std::shared_ptr<util::events::EventRing> JobScheduler::events(
    const std::string& id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return nullptr;
  return it->second->events;
}

std::optional<util::Json> JobScheduler::results(const std::string& id) const {
  Job* job = nullptr;
  JobKind kind = JobKind::kCampaign;
  util::Json out = util::Json::object();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second.get();
    kind = job->record.kind;
    out.set("id", job->record.id);
    out.set("kind", to_string(kind));
    out.set("state", to_string(job->record.state));
    if (!job->record.error.empty()) out.set("error", job->record.error);
  }

  // The disk is read without a lock: every file read here is renamed into
  // place, or was written before the job was published. Jobs are never
  // erased, so `job` and its store stay valid without the scheduler lock.
  util::Json scenarios = util::Json::array();
  try {
    const scenario::CampaignManifest manifest = job->store->load_manifest();
    for (const scenario::ScenarioStatus& status : manifest.scenarios) {
      util::Json entry = util::Json::object();
      entry.set("name", status.name);
      entry.set("complete", status.complete);
      if (status.complete) {
        if (kind == JobKind::kCampaign) {
          entry.set("summary", job->store->load_summary(status.name));
        }
        if (job->store->has_validation(status.name)) {
          entry.set("validation", job->store->load_validation(status.name));
        }
      }
      scenarios.push_back(std::move(entry));
    }
  } catch (const std::exception& e) {
    out.set("error", std::string("results unreadable: ") + e.what());
  }
  out.set("scenarios", std::move(scenarios));
  return out;
}

void JobScheduler::drain() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
    workers.swap(workers_);
    cv_.notify_all();
  }
  // Nothing to write: an interrupted job's job.json still holds its
  // admission record, which recover() re-enqueues, and each completed
  // unit is checkpointed by its summary.json.
  for (std::thread& worker : workers) worker.join();
}

std::size_t JobScheduler::active_jobs() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return active_jobs_locked();
}

std::size_t JobScheduler::total_jobs() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return jobs_.size();
}

std::vector<std::string> JobScheduler::execution_log() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return log_;
}

std::size_t JobScheduler::active_jobs_locked() const {
  std::size_t active = 0;
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->record.state)) ++active;
  }
  return active;
}

void JobScheduler::worker_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    cv_.wait(lk, [this] { return stopping_ || !wrr_.empty(); });
    if (stopping_) return;

    const std::string id = wrr_.pick();
    if (id.empty()) continue;
    const auto it = jobs_.find(id);
    // Defensive: every WRR key is a job with units left to grant.
    if (it == jobs_.end() || it->second->pending.empty()) {
      wrr_.remove(id);
      continue;
    }
    Job& job = *it->second;

    const std::size_t unit = *job.pending.begin();
    job.pending.erase(job.pending.begin());
    ++job.units_running;
    const std::string& name = job.record.scenario_names[unit];
    log_.push_back(id + ":" + name);
    static auto& claims = unit_counter("outcome=\"claimed\"");
    claims.inc();
    if (job.pending.empty()) {
      wrr_.remove(id);  // nothing left to grant; in-flight units finish
    }
    if (job.record.state == JobState::kQueued) {
      job.record.state = JobState::kRunning;
      job.running_since_s = util::now_s();
      job.events->publish(make_event(Kind::kJobStarted, id, "", ""));
    }
    job.events->publish(make_event(Kind::kUnitStarted, id, name, ""));

    lk.unlock();
    const double unit_start = util::now_s();
    UnitOutcome outcome;
    {
      util::trace::Span span("unit", id + ":" + name);
      outcome = run_unit(job, unit);
    }
    const double unit_elapsed = util::now_s() - unit_start;
    lk.lock();

    --job.units_running;
    job.unit_wallclock_s += unit_elapsed;
    // Deadline check at unit completion: deterministic (no watchdog
    // latency) for jobs whose units do finish — the watchdog only has to
    // catch units that never return.
    if (!is_terminal(job.record.state) && !job.fail_requested &&
        job.record.deadline_s > 0.0 &&
        util::now_s() - job.running_since_s > job.record.deadline_s) {
      fail_past_deadline(job);
    }
    if (outcome.error.empty()) {
      ++job.units_done;
      static auto& completed = unit_counter("outcome=\"completed\"");
      completed.inc();
      job.events->publish(make_event(Kind::kUnitFinished, id, name, ""));
    } else if (outcome.transient && !job.fail_requested &&
               !job.cancel_requested && !is_terminal(job.record.state) &&
               job.attempts[unit] < kUnitRetries) {
      // Transient environment failure: give the unit back to the WRR for
      // a bounded number of fresh grants instead of failing the job.
      ++job.attempts[unit];
      job.pending.insert(unit);
      WSNEX_WARN() << "serve: unit " << id << ":" << name
                   << " hit a transient error (attempt "
                   << job.attempts[unit] << "/" << kUnitRetries
                   << "): " << outcome.error;
      unit_retries_counter().inc();
      job.events->publish(
          make_event(Kind::kUnitRetried, id, name, outcome.error));
      wrr_.add(id, job.record.priority);
      cv_.notify_all();
    } else {
      if (job.record.error.empty()) job.record.error = outcome.error;
      job.fail_requested = true;
      wrr_.remove(id);
      static auto& unit_failed = unit_counter("outcome=\"failed\"");
      unit_failed.inc();
      job.events->publish(make_event(Kind::kUnitFinished, id, name,
                                     "failed: " + outcome.error));
    }
    if (const std::optional<JobRecord> record = maybe_finalize(job)) {
      lk.unlock();
      persist_record(job, *record);
      lk.lock();
    }
  }
}

void JobScheduler::watchdog_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!stopping_) {
    cv_.wait_for(lk, kWatchdogInterval, [this] { return stopping_; });
    if (stopping_) return;
    const double now = util::now_s();
    std::vector<std::pair<Job*, JobRecord>> expired;
    for (auto& [id, job] : jobs_) {
      Job& j = *job;
      if (j.record.state != JobState::kRunning || j.record.deadline_s <= 0.0) {
        continue;
      }
      if (now - j.running_since_s <= j.record.deadline_s) continue;
      // A stuck unit cannot be preempted (cancellation is cooperative),
      // so the terminal state is published immediately instead of via
      // maybe_finalize; the unit's eventual result lands on a job that is
      // already failed, which is harmless. A deadline that a unit's
      // completion already tripped is not counted again.
      if (!j.fail_requested) fail_past_deadline(j);
      expired.emplace_back(&j, finish(j, JobState::kFailed));
      WSNEX_WARN() << "serve: job \"" << id << "\" failed by watchdog: "
                   << j.record.error << " (" << j.units_running
                   << " unit(s) still in flight)";
    }
    if (!expired.empty()) {
      // Job pointers stay valid unlocked: jobs_ never erases entries.
      lk.unlock();
      for (auto& [job, record] : expired) {
        try {
          persist_record(*job, record);
        } catch (const std::exception& e) {
          WSNEX_WARN() << "serve: failed to persist watchdog verdict for \""
                       << record.id << "\": " << e.what();
        }
      }
      lk.lock();
    }
  }
}

JobScheduler::UnitOutcome JobScheduler::run_unit(Job& job, std::size_t unit) {
  const scenario::ScenarioSpec& spec = job.specs[unit];
  const JobRecord& record = job.record;
  try {
    if (record.kind == JobKind::kCampaign) {
      scenario::CampaignOptions copts;
      copts.quick = record.quick;
      copts.events = job.events.get();
      copts.event_job_id = record.id;
      scenario::execute_scenario(spec, copts, *job.store, nullptr, &cache_);
    } else {
      validate::ValidationOptions vopts;
      vopts.plan.replicates = record.validation.replicates;
      vopts.plan.duration_s = record.validation.duration_s;
      vopts.plan.base_seed = record.validation.base_seed;
      vopts.plan.jobs = 1;  // the slots are the daemon's parallel level
      vopts.tolerance_percent = record.validation.tolerance_percent;
      const validate::ValidationReport report =
          validate::run_validation(spec, vopts);
      validate::persist_validation(*job.store, report);
      // The unit's completion record, as a campaign unit's summary is.
      util::Json summary = util::Json::object();
      summary.set("name", spec.name);
      for (const char* count :
           {"evaluations", "infeasible", "front_size", "feasible_size"}) {
        summary.set(count, 0);
      }
      summary.set("wallclock_s", report.wallclock_s);
      job.store->write_summary(spec.name, summary);
    }
    return {};
  } catch (const util::FileError& e) {
    return {e.what(), /*transient=*/true};
  } catch (const util::SocketError& e) {
    return {e.what(), /*transient=*/true};
  } catch (const std::exception& e) {
    return {e.what(), /*transient=*/false};
  }
}

std::optional<JobRecord> JobScheduler::maybe_finalize(Job& job) {
  if (is_terminal(job.record.state)) return std::nullopt;
  if (job.units_running > 0) return std::nullopt;
  if (job.fail_requested) return finish(job, JobState::kFailed);
  if (job.units_done == job.record.scenario_names.size()) {
    return finish(job, JobState::kComplete);
  }
  if (job.cancel_requested) return finish(job, JobState::kCancelled);
  return std::nullopt;  // pending units remain; keep waiting
}

JobRecord JobScheduler::finish(Job& job, JobState state) {
  static auto& complete = finished_counter("state=\"complete\"");
  static auto& failed = finished_counter("state=\"failed\"");
  static auto& cancelled = finished_counter("state=\"cancelled\"");
  job.record.state = state;
  (state == JobState::kComplete ? complete
   : state == JobState::kFailed ? failed
                                : cancelled)
      .inc();
  job.events->publish(
      make_event(Kind::kJobFinished, job.record.id, "", to_string(state)));
  active_jobs_gauge().set(static_cast<double>(active_jobs_locked()));
  return job.record;
}

void JobScheduler::fail_past_deadline(Job& job) {
  JobRecord& record = job.record;
  if (record.error.empty()) {
    record.error =
        "deadline of " + std::to_string(record.deadline_s) + "s exceeded";
  }
  job.fail_requested = true;
  wrr_.remove(record.id);
  deadline_counter().inc();
  job.events->publish(
      make_event(Kind::kDeadlineExceeded, record.id, "", record.error));
}

void JobScheduler::persist_record(Job& job, const JobRecord& record) {
  std::lock_guard<std::mutex> io(job.io_mutex);
  util::write_file_atomic(
      (fs::path(job.store->root()) / "job.json").string(),
      record.to_json().dump(2) + "\n", "serve.job_record");
}

JobProgress JobScheduler::progress_of(const Job& job) const {
  JobProgress progress;
  progress.id = job.record.id;
  progress.kind = job.record.kind;
  progress.state = job.record.state;
  progress.priority = job.record.priority;
  progress.units_done = job.units_done;
  progress.units_total = job.record.scenario_names.size();
  progress.unit_wallclock_s = job.unit_wallclock_s;
  progress.error = job.record.error;
  progress.scenarios = job.record.scenario_names;
  return progress;
}

}  // namespace wsnex::serve
