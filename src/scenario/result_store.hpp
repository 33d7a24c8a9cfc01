// Persistent, resumable on-disk store for campaign results.
//
// Layout under one campaign root directory:
//
//   <root>/campaign.json            manifest: options + per-scenario status
//   <root>/scenarios/<name>.json    frozen specs (the source of truth a
//                                   resume runs from — not the caller's
//                                   original files)
//   <root>/results/<name>/pareto.csv    full Pareto archive
//   <root>/results/<name>/feasible.csv  entries meeting the clinical
//                                       constraints, best energy first
//   <root>/results/<name>/summary.json  run statistics
//
// Crash-safety protocol: a scenario's result files are written first, the
// manifest is rewritten (atomically, via temp file + rename) marking it
// "complete" last. A campaign killed mid-scenario therefore leaves that
// scenario "pending"; resume re-runs it from scratch and — because the
// engine is deterministic for a fixed (spec, seed) and thread-count
// independent — reproduces bit-identical archive files.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace wsnex::scenario {

/// Per-scenario entry of the campaign manifest. Statistics are only
/// meaningful once complete == true.
struct ScenarioStatus {
  std::string name;
  bool complete = false;
  std::size_t evaluations = 0;
  std::size_t infeasible = 0;
  std::size_t front_size = 0;
  std::size_t feasible_size = 0;
  double wallclock_s = 0.0;
};

/// The manifest (campaign.json) contents.
struct CampaignManifest {
  int format_version = 1;
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

  /// True iff `root` holds a campaign manifest.
  static bool exists(const std::string& root);

  /// Creates the directory tree, freezes every spec under scenarios/ and
  /// writes an all-pending manifest: N + 3 fsyncs for N specs (one per
  /// spec file, one for scenarios/ after every rename, two for the
  /// manifest). When a manifest already exists the
  /// stored specs must match `specs` exactly (same scenarios, same
  /// contents) and the existing progress is kept — reissuing `wsnex run`
  /// on a finished or half-finished campaign is a no-op/resume, never a
  /// silent overwrite; a mismatch throws ScenarioError.
  void initialize(const std::vector<ScenarioSpec>& specs, bool quick);

  CampaignManifest load_manifest() const;
  ScenarioSpec load_spec(const std::string& name) const;

  /// Marks one scenario complete with its statistics (atomic rewrite of
  /// the manifest). Call only after its result files are on disk.
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

  /// Writes `summary` (arbitrary JSON produced by the campaign runner) to
  /// summary_path(name).
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
  void save_manifest(const CampaignManifest& manifest) const;

  std::string root_;
};

}  // namespace wsnex::scenario
