// Job model of the campaign service: what a client submits, what the
// daemon persists per job, and the JSON forms both travel in.
//
// A job is a named batch of scenarios evaluated as one unit of tenancy:
// either a *campaign* (each scenario explored through the DSE engine,
// results in the job's ResultStore shard) or a *validation* batch (each
// scenario Monte Carlo-validated at its reference design). Every job owns
// one ResultStore shard under <data_dir>/jobs/<shard>/ — the shard name
// comes from scenario::ResultStore::shard_id, so hostile ids can neither
// escape the data directory nor collide with each other — plus a job.json
// record, written atomically twice: at admission (state queued) and at the
// job's terminal transition.
//
// Crash protocol mirrors the campaign store: the shard's ResultStore (its
// frozen specs and campaign.json header) is initialized before job.json
// appears, and job.json is the admission record — a shard without
// job.json is an aborted submit and is ignored at recovery. Each unit's
// summary.json, written last, marks it complete for both unit kinds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hpp"
#include "util/json.hpp"

namespace wsnex::serve {

/// Service-layer failure (bad job JSON, unknown state strings, ...).
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class JobKind { kCampaign, kValidation };

/// Lifecycle: kQueued -> kRunning -> {kComplete, kFailed, kCancelled}.
/// kRunning lives only in memory: job.json holds kQueued until the verdict
/// (records left kRunning by older daemons still load). A daemon restart
/// re-enqueues every non-terminal job as kQueued (completed scenarios are
/// skipped via their summary.json in the shard, so no work is repeated).
enum class JobState { kQueued, kRunning, kComplete, kFailed, kCancelled };

const char* to_string(JobKind kind);
const char* to_string(JobState state);
JobKind job_kind_from_string(const std::string& s);    ///< throws ServeError
JobState job_state_from_string(const std::string& s);  ///< throws ServeError

/// True for states a job can never leave.
bool is_terminal(JobState state);

/// Per-scenario validation knobs of a kValidation job (a subset of
/// validate::ValidationOptions — the serializable ones).
struct JobValidationSettings {
  std::size_t replicates = 16;
  double duration_s = 120.0;
  double tolerance_percent = 10.0;
  std::uint64_t base_seed = 1;
};

/// What a client submits (the POST /v1/jobs body).
struct JobSpec {
  /// Job identifier. Empty = the scheduler assigns "job-<seq>". Client
  /// ids must already be safe directory names (ResultStore::shard_id
  /// identity set: 1-64 chars of [A-Za-z0-9_.-], no leading '.') so ids
  /// survive a round trip through URL targets; anything else is rejected
  /// at admission.
  std::string id;
  JobKind kind = JobKind::kCampaign;
  /// Weighted-round-robin weight, clamped to [1, 16]: a priority-2 job
  /// is granted two scenario slots for every one a priority-1 job gets
  /// while both have work pending.
  std::size_t priority = 1;
  bool quick = false;  ///< campaign jobs: smoke-test optimizer budgets
  /// Wall-clock budget in seconds from the moment the job starts running
  /// (0 = none). A job past its deadline is failed by the scheduler's
  /// watchdog; in-flight units are abandoned cooperatively (their results
  /// still persist, but cannot resurrect the job).
  double deadline_s = 0.0;
  std::vector<scenario::ScenarioSpec> scenarios;
  JobValidationSettings validation;  ///< used by kValidation jobs

  /// Parses a submit body. Scenario entries may be inline spec objects or
  /// preset-name strings (resolved against the built-in registry). Throws
  /// ServeError/scenario::ScenarioError listing the problem.
  static JobSpec from_json(const util::Json& json);
  /// The submit body that reproduces this spec (scenarios inlined).
  util::Json to_json() const;
};

/// The persistent job.json record. Scenario *contents* live as frozen
/// specs in the shard's ResultStore; the record keeps only their names.
struct JobRecord {
  int format_version = 1;
  std::string id;
  JobKind kind = JobKind::kCampaign;
  std::size_t priority = 1;
  bool quick = false;
  double deadline_s = 0.0;  ///< wall-clock budget (0 = none)
  JobState state = JobState::kQueued;
  std::string error;  ///< failure message when state == kFailed
  std::vector<std::string> scenario_names;
  JobValidationSettings validation;

  static JobRecord from_json(const util::Json& json);  ///< throws ServeError
  util::Json to_json() const;
};

}  // namespace wsnex::serve
