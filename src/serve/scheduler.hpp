// The campaign service's job scheduler: many concurrent jobs multiplexed
// onto `slots` worker threads with weighted-round-robin fairness and
// per-job priorities.
//
// Jobs decompose into *units* — one scenario exploration (campaign jobs)
// or one scenario's Monte Carlo validation (validation jobs). A fixed set
// of `slots` scheduler workers claims units one at a time through a
// WeightedRoundRobin allocator: while several jobs have pending units, a
// priority-w job is granted w units for every one a priority-1 job gets,
// so a big batch cannot starve a small interactive one. The slots are the
// daemon's only parallel level: a campaign unit's optimizer and a
// validation unit's replicates run on the slot's own thread. All jobs
// share the process-wide dse::SharedEvalCache plus the on-disk PRD
// calibration cache — every job after the first runs warm.
//
// Fault model:
//  * admission control — max_queued_jobs non-terminal jobs; excess
//    submissions are rejected (the server maps that to 429), never queued
//    unboundedly. Submits are serialized on their own mutex, and the
//    scheduler lock is not held across their fsync'd shard writes;
//  * cancel is cooperative and idempotent — pending units are dropped,
//    in-flight units finish and persist, a second cancel (or a cancel
//    racing completion) just reports the settled state;
//  * a unit that throws fails its job after in-flight siblings drain;
//    other jobs are untouched (per-job isolation);
//  * a unit failing with a *transient* error (util::FileError /
//    util::SocketError — the environment, not the inputs) is re-queued
//    and retried once before failing the job;
//  * a job with deadline_s > 0 is failed once its wall-clock budget runs
//    out — at the next unit completion, or by the watchdog thread when a
//    unit is stuck (cooperative preemption: the stuck unit's eventual
//    result persists but cannot resurrect the failed job);
//  * drain() (SIGTERM path) stops claiming new units, lets in-flight
//    units finish and checkpoint through the ResultStore summary
//    protocol and joins the workers. It writes nothing else: job.json is
//    written only at admission and at the job's terminal transition, so a
//    non-terminal job's record still holds its admission state, and
//    recover() in the next process re-enqueues every such job and skips
//    the units whose results are already on disk, reproducing the
//    uninterrupted run byte-for-byte (the scenario engine's determinism
//    contract);
//  * a SIGKILL skips the drain, and recover() still works the same way:
//    job.json (the admission record) is written before a job is ever
//    runnable, and a unit's results land before the summary.json that
//    marks it complete, so the worst case is re-running one unit whose
//    (deterministic) summary had not been written.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "dse/eval_cache.hpp"
#include "scenario/result_store.hpp"
#include "serve/job.hpp"
#include "util/events.hpp"

namespace wsnex::serve {

/// Deterministic weighted-round-robin slot allocator over a dynamic key
/// set. pick() grants one slot per call; a key of weight w receives w
/// consecutive grants per cycle before the cursor moves on (deficit
/// round-robin with whole-cycle replenishment). Keys keep their cycle
/// position across add/remove of other keys. Not thread-safe — the
/// scheduler calls it under its own mutex.
class WeightedRoundRobin {
 public:
  /// Activates `key` with the given weight (>= 1). Re-adding an active
  /// key updates its weight without resetting its remaining credit.
  void add(const std::string& key, std::size_t weight);
  void remove(const std::string& key);
  bool empty() const { return entries_.empty(); }

  /// The next key to grant one slot to; empty string when no key is
  /// active.
  std::string pick();

 private:
  struct Entry {
    std::string key;
    std::size_t weight = 1;
    std::size_t credit = 0;  ///< grants left before the cursor advances
  };
  std::vector<Entry> entries_;
  std::size_t cursor_ = 0;
};

struct SchedulerOptions {
  /// Daemon state root; jobs live under <data_dir>/jobs/<shard>/.
  std::string data_dir;
  /// Concurrent units (scheduler workers, started by start()).
  /// 0 = hardware concurrency.
  std::size_t slots = 0;
  /// 0 or 1: each unit runs on its slot's thread. Any larger value throws
  /// std::invalid_argument naming `slots`.
  std::size_t threads = 0;
  /// Admission ceiling: maximum non-terminal (queued + running) jobs.
  std::size_t max_queued_jobs = 64;
  /// On-disk PRD calibration cache directory ("" = none): makes daemon
  /// *restarts* warm, not just jobs after the first.
  std::string cache_dir;
};

/// Status snapshot of one job (what GET /v1/jobs/<id> serves).
struct JobProgress {
  std::string id;
  JobKind kind = JobKind::kCampaign;
  JobState state = JobState::kQueued;
  std::size_t priority = 1;
  std::size_t units_done = 0;
  std::size_t units_total = 0;
  /// Wall-clock seconds spent executing this job's units so far, summed
  /// over workers (in-memory observability only; not persisted in
  /// job.json, so it restarts at zero after recover()).
  double unit_wallclock_s = 0.0;
  std::string error;
  std::vector<std::string> scenarios;

  util::Json to_json() const;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options);
  /// Drains (in-flight units finish and checkpoint) and joins.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Outcome of an admission attempt.
  struct Admission {
    enum class Code { kAccepted, kQueueFull, kDuplicate, kInvalid, kStopping };
    Code code = Code::kInvalid;
    std::string id;       ///< assigned job id (kAccepted)
    std::string message;  ///< human-readable rejection reason
  };

  /// Validates, persists (shard store + job.json) and enqueues a job.
  /// Never throws on bad input — admission outcomes are data, the server
  /// maps them to status codes. `request_id`, when non-empty, is stamped
  /// into the job_queued event so the submission can be correlated with
  /// the server's access log.
  Admission submit(JobSpec spec, const std::string& request_id = "");

  /// Spawns the worker threads. Jobs submitted (or recovered) before
  /// start() simply wait in the queue — tests use that window to build a
  /// deterministic backlog.
  void start();

  /// Re-registers every job found under data_dir (daemon restart):
  /// terminal jobs become queryable again, non-terminal ones are
  /// re-enqueued with their completed units (those with a summary.json in
  /// the shard) marked off. Returns the number of jobs re-enqueued. Call before
  /// start().
  std::size_t recover();

  std::optional<JobProgress> status(const std::string& id) const;
  std::vector<JobProgress> list() const;

  /// Requests cancellation; nullopt when the id is unknown. Idempotent:
  /// repeated cancels (or cancelling a finished job) report the settled
  /// state without side effects.
  std::optional<JobProgress> cancel(const std::string& id);

  /// Per-scenario results of a job (summaries + validation reports for
  /// completed scenarios); nullopt when the id is unknown.
  std::optional<util::Json> results(const std::string& id) const;

  /// The job's event ring (lifecycle, unit progress, convergence
  /// snapshots); nullptr when the id is unknown. The ring is shared-
  /// owned: it stays valid (and terminal events stay readable) for the
  /// scheduler's lifetime. A reader and a publisher wait for each other
  /// only while one of them copies events under the ring's lock.
  std::shared_ptr<util::events::EventRing> events(const std::string& id) const;

  /// SIGTERM path; see the file comment. Idempotent.
  void drain();

  /// Non-terminal jobs (health/admission metric).
  std::size_t active_jobs() const;
  std::size_t total_jobs() const;

  /// Unit claim order ("<job id>:<scenario>"), i.e. the weighted-round-
  /// robin grant sequence — what the fairness tests assert on.
  std::vector<std::string> execution_log() const;

  const SchedulerOptions& options() const { return options_; }
  std::string jobs_dir() const;
  std::string shard_dir(const std::string& id) const;

 private:
  struct Job {
    /// The job's identity and live state: `state` and `error` are the
    /// ones status reports. job.json holds this record as it stood at
    /// admission and, once the job is terminal, at its verdict.
    JobRecord record;
    /// Frozen scenario specs in unit order; empty for a recovered terminal
    /// job (its specs stay on disk, unloaded).
    std::vector<scenario::ScenarioSpec> specs;
    /// Units not yet granted to a worker, lowest index first. The job is
    /// in the WRR while this is non-empty and nothing stopped the job.
    std::set<std::size_t> pending;
    std::size_t units_done = 0;
    std::size_t units_running = 0;
    double unit_wallclock_s = 0.0;  ///< accumulated run_unit wall clock
    double running_since_s = 0.0;   ///< when kQueued -> kRunning happened
    std::vector<std::size_t> attempts;  ///< transient retries used per unit
    bool cancel_requested = false;
    bool fail_requested = false;
    /// Bounded per-job event ring (job/unit lifecycle + convergence
    /// snapshots published by the campaign layer). Readers that fall
    /// behind lose the oldest events, never block writers; convergence
    /// snapshots wrap apart from lifecycle events, so they never evict
    /// one.
    std::shared_ptr<util::events::EventRing> events =
        std::make_shared<util::events::EventRing>(1024);
    std::unique_ptr<scenario::ResultStore> store;
    /// Serializes this job's job.json writes. Unit writes need no lock:
    /// each unit writes only its own results/<name>/, and results() reads
    /// only files renamed into place or written before the job was
    /// published.
    std::mutex io_mutex;
  };

  Admission submit_impl(JobSpec spec, const std::string& request_id);
  void worker_loop();
  /// Fails every running job past its deadline (stuck units cannot be
  /// preempted, so the terminal state is published immediately).
  void watchdog_loop();
  /// What one unit execution reported. `transient` marks environment
  /// failures (file/socket I/O) eligible for bounded retry, as opposed
  /// to deterministic bad-input failures that would just recur.
  struct UnitOutcome {
    std::string error;  ///< empty on success
    bool transient = false;
  };
  /// Runs one granted unit (no scheduler lock held).
  UnitOutcome run_unit(Job& job, std::size_t unit);
  /// Terminal-state transition once nothing is running; returns the
  /// record to persist (caller writes it outside the scheduler lock).
  std::optional<JobRecord> maybe_finalize(Job& job);
  /// Moves the job to terminal `state`, counts and publishes it; returns
  /// the record to persist.
  JobRecord finish(Job& job, JobState state);
  /// Marks a job failed for running past its deadline_s: error text,
  /// fail_requested, out of the WRR, counted and published. Callers skip
  /// a job already fail_requested, so a job's deadline counts at most once.
  void fail_past_deadline(Job& job);
  void persist_record(Job& job, const JobRecord& record);
  JobProgress progress_of(const Job& job) const;
  std::size_t active_jobs_locked() const;

  SchedulerOptions options_;
  dse::SharedEvalCache& cache_;

  /// Serializes submit() and recover(): the only paths that add jobs.
  /// Taken before mutex_, never while holding it.
  std::mutex submit_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  WeightedRoundRobin wrr_;
  std::vector<std::string> log_;
  std::vector<std::thread> workers_;
  std::size_t next_auto_id_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  /// The PRD calibration cache dir was requested but could not take
  /// effect (calibration already computed); surfaced as a cache_degraded
  /// event on every subsequent submission.
  bool cache_dir_degraded_ = false;
};

}  // namespace wsnex::serve
