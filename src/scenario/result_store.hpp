// Persistent, resumable on-disk store for campaign results.
//
// Layout under one campaign root directory:
//
//   <root>/campaign.json            header: options + ordered scenario
//                                   names, written once by initialize()
//   <root>/scenarios/<name>.json    frozen specs (the source of truth a
//                                   resume runs from — not the caller's
//                                   original files)
//   <root>/results/<name>/pareto.csv    full Pareto archive
//   <root>/results/<name>/feasible.csv  entries meeting the clinical
//                                       constraints, best energy first
//   <root>/results/<name>/summary.json  run statistics; its existence
//                                       marks the scenario complete
//
// Crash-safety protocol: a scenario's result files are written and
// fsync'd first; summary.json is written last (atomically, via fsync'd
// temp file + rename + directory fsync) and is the scenario's one
// completion record. A campaign killed mid-scenario therefore leaves no
// summary for it, so it stays pending; resume re-runs it from scratch and
// — because the engine is deterministic for a fixed (spec, seed) and
// thread-count independent — reproduces bit-identical archive files.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace wsnex::scenario {

/// One scenario of the campaign and, once complete, the statistics its
/// summary.json records.
struct ScenarioStatus {
  std::string name;
  bool complete = false;
  std::size_t evaluations = 0;
  std::size_t infeasible = 0;
  std::size_t front_size = 0;
  std::size_t feasible_size = 0;
  double wallclock_s = 0.0;
};

/// The campaign.json header plus each scenario's completion state.
struct CampaignManifest {
  int format_version = 2;
  bool quick = false;  ///< campaign ran with reduced budgets
  std::vector<ScenarioStatus> scenarios;
};

class ResultStore {
 public:
  /// Binds to (but does not touch) the campaign root directory.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// Collision-safe directory shard for an arbitrary identifier (scenario
  /// name, serve-layer job/campaign id). Identifiers that are already safe
  /// directory names (1-64 chars of [A-Za-z0-9_.-], no leading '.') map to
  /// themselves — the historical layout for every validated scenario name
  /// is unchanged. Anything else (path separators, control bytes, "..",
  /// over-long or empty ids) is sanitized to `<mapped-prefix>-<16-hex
  /// FNV-1a of the original>`, so distinct unsafe ids land in distinct
  /// directories instead of colliding on their sanitized spelling (e.g.
  /// "a/b" vs "a_b") or escaping the store root.
  static std::string shard_id(const std::string& id);

  /// True iff `root` holds a campaign header (campaign.json).
  static bool exists(const std::string& root);

  /// Creates the directory tree, freezes every spec under scenarios/ and
  /// writes the campaign.json header (format 2: options and the ordered
  /// scenario names), which nothing rewrites afterwards: N + 3 fsyncs for
  /// N specs (one per spec file, one for scenarios/ after every rename,
  /// two for the header). When a header already exists the stored specs
  /// must match `specs` exactly (same scenarios, same contents) and the
  /// existing progress is kept — reissuing `wsnex run` on a finished or
  /// half-finished campaign is a no-op/resume, never a silent overwrite;
  /// a mismatch throws ScenarioError. Without a header, a summary.json of
  /// one of `specs` already in the directory throws ScenarioError naming
  /// it before anything is written: a record left by a deleted campaign
  /// must not pass as this campaign's result.
  void initialize(const std::vector<ScenarioSpec>& specs, bool quick);

  /// Names and order come from the header. A scenario is complete as
  /// complete() says, and a summary's statistics are read from that file;
  /// a summary that does not parse throws ScenarioError naming its path. A
  /// format-1 header (written by older builds, which rewrote it after
  /// every scenario) still loads: an entry it marks complete keeps the
  /// statistics it recorded.
  CampaignManifest load_manifest() const;
  /// campaign.json parsed: options and names, plus the statuses a
  /// format-1 header recorded (every scenario pending under format 2).
  /// Reads no summary, so a poller can read it once and ask complete().
  CampaignManifest load_header() const;
  /// The one completion rule, for an entry of load_header(): complete if
  /// a format-1 header recorded it complete or its summary.json exists.
  bool complete(const ScenarioStatus& header_entry) const;
  ScenarioSpec load_spec(const std::string& name) const;

  /// Writes nothing: summary.json is the completion record. Throws
  /// ScenarioError unless the scenario's summary exists. Kept for callers
  /// that still publish a completion after execute_scenario.
  void record_complete(const ScenarioStatus& status);

  /// Result-file paths for one scenario (creates results/<name>/ on
  /// demand via ensure_result_dir).
  std::string scenario_dir() const;
  std::string spec_path(const std::string& name) const;
  std::string result_dir(const std::string& name) const;
  std::string pareto_csv_path(const std::string& name) const;
  std::string feasible_csv_path(const std::string& name) const;
  std::string summary_path(const std::string& name) const;
  /// Per-generation convergence history (JSONL, one record per optimizer
  /// generation), streamed live while the scenario runs. Telemetry, not a
  /// result: absent when the campaign ran with progress disabled, and
  /// excluded from the store's byte-identity contract (it carries
  /// wall-clock fields).
  std::string progress_jsonl_path(const std::string& name) const;
  /// Monte Carlo validation artifacts (written by the validate subsystem;
  /// absent unless `wsnex validate -o` / `wsnex run --validate` ran).
  std::string validation_json_path(const std::string& name) const;
  std::string validation_csv_path(const std::string& name) const;
  std::string manifest_path() const;

  void ensure_result_dir(const std::string& name) const;

  /// Writes `summary` (JSON produced by the campaign runner) to
  /// summary_path(name), atomically; this completes the scenario, so
  /// write it last. It must carry the five ScenarioStatus statistics
  /// (evaluations, infeasible, front_size, feasible_size, wallclock_s).
  void write_summary(const std::string& name, const util::Json& summary) const;
  util::Json load_summary(const std::string& name) const;

  /// Writes a validation report (JSON produced by the validate subsystem)
  /// to validation_json_path(name), atomically like the summary.
  void write_validation(const std::string& name,
                        const util::Json& report) const;
  util::Json load_validation(const std::string& name) const;
  bool has_validation(const std::string& name) const;

  /// Removes `.tmp.*` debris left anywhere under the root by writers that
  /// crashed mid-write_file_atomic. Returns the number of files removed.
  /// Called from initialize() on an existing store and from resume paths;
  /// safe only while no writer is live.
  std::size_t sweep_stale_temp_files() const;

 private:
  std::string root_;
};

}  // namespace wsnex::scenario
