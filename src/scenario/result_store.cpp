#include "scenario/result_store.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>

#include "util/fsio.hpp"

namespace wsnex::scenario {

namespace fs = std::filesystem;

namespace {

// util::FileError propagates unwrapped from every store operation: the
// serve scheduler classifies it as transient (retryable), unlike
// ScenarioError which marks the unit's inputs as bad.
using util::read_file;
using util::write_file_atomic;

/// The statistics a completion record holds: a summary.json, or a
/// format-1 header's "complete" entry.
void read_stats(const util::Json& json, ScenarioStatus& s) {
  s.complete = true;
  s.evaluations = static_cast<std::size_t>(json.at("evaluations").as_int64());
  s.infeasible = static_cast<std::size_t>(json.at("infeasible").as_int64());
  s.front_size = static_cast<std::size_t>(json.at("front_size").as_int64());
  s.feasible_size =
      static_cast<std::size_t>(json.at("feasible_size").as_int64());
  s.wallclock_s = json.at("wallclock_s").as_double();
}

/// One scenario entry of a format-1 header.
ScenarioStatus status_from_v1(const util::Json& json) {
  ScenarioStatus s;
  s.name = json.at("name").as_string();
  const std::string& status = json.at("status").as_string();
  if (status != "complete" && status != "pending") {
    throw ScenarioError("manifest: unknown scenario status \"" + status +
                        "\" for " + s.name);
  }
  if (status == "complete") read_stats(json, s);
  return s;
}

}  // namespace

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {}

std::string ResultStore::shard_id(const std::string& id) {
  const auto is_safe_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '-' || c == '.';
  };
  const bool safe =
      !id.empty() && id.size() <= 64 && id.front() != '.' &&
      std::all_of(id.begin(), id.end(), is_safe_char);
  if (safe) return id;

  // FNV-1a over the original id keeps distinct unsafe ids distinct even
  // when their sanitized spellings coincide.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::string prefix;
  for (const char c : id) {
    if (prefix.size() >= 40) break;
    prefix += is_safe_char(c) ? c : '_';
  }
  while (!prefix.empty() && prefix.front() == '.') prefix.erase(prefix.begin());
  if (prefix.empty()) prefix = "id";

  static constexpr char kHex[] = "0123456789abcdef";
  std::string suffix(16, '0');
  for (int i = 15; i >= 0; --i) {
    suffix[static_cast<std::size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return prefix + "-" + suffix;
}

bool ResultStore::exists(const std::string& root) {
  return fs::exists(fs::path(root) / "campaign.json");
}

std::string ResultStore::manifest_path() const {
  return (fs::path(root_) / "campaign.json").string();
}

std::string ResultStore::scenario_dir() const {
  return (fs::path(root_) / "scenarios").string();
}

std::string ResultStore::spec_path(const std::string& name) const {
  return (fs::path(root_) / "scenarios" / (shard_id(name) + ".json")).string();
}

std::string ResultStore::result_dir(const std::string& name) const {
  return (fs::path(root_) / "results" / shard_id(name)).string();
}

std::string ResultStore::pareto_csv_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "pareto.csv").string();
}

std::string ResultStore::feasible_csv_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "feasible.csv").string();
}

std::string ResultStore::summary_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "summary.json").string();
}

std::string ResultStore::progress_jsonl_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "progress.jsonl").string();
}

std::string ResultStore::validation_json_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "validation.json").string();
}

std::string ResultStore::validation_csv_path(const std::string& name) const {
  return (fs::path(result_dir(name)) / "validation.csv").string();
}

void ResultStore::ensure_result_dir(const std::string& name) const {
  fs::create_directories(result_dir(name));
}

void ResultStore::initialize(const std::vector<ScenarioSpec>& specs,
                             bool quick) {
  if (fs::exists(root_)) {
    // A writer that crashed mid-write left `.tmp.*` debris; clear it
    // before anything reads or re-writes the shards. Keyed on the
    // directory, not the header — a crash during the very first
    // initialize() (spec frozen, header never written) leaves debris
    // in a store that exists() does not yet acknowledge.
    sweep_stale_temp_files();
  }
  if (ResultStore::exists(root_)) {
    // Existing campaign: it must be *this* campaign (same scenarios with
    // the same contents and options), in which case prior progress stands.
    const CampaignManifest manifest = load_header();
    if (manifest.quick != quick) {
      throw ScenarioError(
          root_ + ": existing campaign was " +
          (manifest.quick ? "run with --quick" : "run without --quick") +
          "; rerun with matching options or use a fresh output directory");
    }
    if (manifest.scenarios.size() != specs.size()) {
      throw ScenarioError(
          root_ + ": existing campaign has " +
          std::to_string(manifest.scenarios.size()) + " scenarios, not " +
          std::to_string(specs.size()) +
          " — use a fresh output directory for a different campaign");
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (manifest.scenarios[i].name != specs[i].name) {
        throw ScenarioError(root_ + ": scenario " + std::to_string(i) +
                            " of the stored campaign is \"" +
                            manifest.scenarios[i].name + "\", not \"" +
                            specs[i].name +
                            "\" — use a fresh output directory");
      }
      if (!(load_spec(specs[i].name) == specs[i])) {
        throw ScenarioError(root_ + ": scenario \"" + specs[i].name +
                            "\" differs from the spec frozen under " +
                            spec_path(specs[i].name) +
                            " — use a fresh output directory for the edited "
                            "spec");
      }
    }
    return;
  }
  for (const ScenarioSpec& spec : specs) {
    if (fs::exists(summary_path(spec.name))) {
      throw ScenarioError(summary_path(spec.name) +
                          ": a completion record without a campaign.json; "
                          "use a fresh output directory");
    }
  }
  fs::create_directories(scenario_dir());
  // Each spec file is fsync'd before its rename; one directory fsync then
  // makes all N renames durable before the header that names them is
  // written. A crash before it leaves no header, so recovery reruns.
  for (const ScenarioSpec& spec : specs) {
    write_file_atomic(spec_path(spec.name), spec.to_json().dump(2),
                      "result_store.spec", util::RenameSync::kDeferred);
  }
  util::fsync_dir(scenario_dir());
  util::Json json = util::Json::object();
  json.set("format_version", 2);
  json.set("quick", quick);
  util::Json scenarios = util::Json::array();
  for (const ScenarioSpec& spec : specs) {
    util::Json entry = util::Json::object();
    entry.set("name", spec.name);
    scenarios.push_back(std::move(entry));
  }
  json.set("scenarios", std::move(scenarios));
  write_file_atomic(manifest_path(), json.dump(2), "result_store.manifest");
}

CampaignManifest ResultStore::load_header() const {
  util::Json json;
  try {
    json = util::Json::parse(read_file(manifest_path()));
  } catch (const util::JsonParseError& e) {
    throw ScenarioError(manifest_path() + ": " + e.what());
  }
  CampaignManifest manifest;
  try {
    manifest.format_version =
        static_cast<int>(json.at("format_version").as_int64());
    if (manifest.format_version != 1 && manifest.format_version != 2) {
      throw ScenarioError("unsupported campaign format_version " +
                          std::to_string(manifest.format_version));
    }
    manifest.quick = json.at("quick").as_bool();
    // Such a campaign's archives are not byte-comparable with this
    // build's, so neither a rerun nor a resume may extend them.
    if (const util::Json* reassoc = json.find("simd_reassociation");
        reassoc != nullptr && reassoc->as_bool()) {
      throw ScenarioError(manifest_path() +
                          ": campaign ran with SIMD reassociation, a removed "
                          "numerical mode; use a fresh output directory");
    }
    for (const util::Json& s : json.at("scenarios").as_array()) {
      if (manifest.format_version == 1) {
        manifest.scenarios.push_back(status_from_v1(s));
      } else {
        manifest.scenarios.push_back({.name = s.at("name").as_string()});
      }
    }
  } catch (const util::JsonTypeError& e) {
    throw ScenarioError(manifest_path() + ": malformed manifest: " + e.what());
  }
  return manifest;
}

bool ResultStore::complete(const ScenarioStatus& header_entry) const {
  return header_entry.complete || fs::exists(summary_path(header_entry.name));
}

CampaignManifest ResultStore::load_manifest() const {
  CampaignManifest manifest = load_header();
  for (ScenarioStatus& status : manifest.scenarios) {
    // A format-1 "complete" keeps its recorded statistics: an older
    // daemon's validation units wrote no summary.
    if (status.complete || !complete(status)) continue;
    try {
      read_stats(load_summary(status.name), status);
    } catch (const util::JsonTypeError& e) {
      throw ScenarioError(summary_path(status.name) +
                          ": malformed summary: " + e.what());
    }
  }
  return manifest;
}

ScenarioSpec ResultStore::load_spec(const std::string& name) const {
  return ScenarioSpec::from_file(spec_path(name));
}

void ResultStore::record_complete(const ScenarioStatus& status) {
  if (!fs::exists(summary_path(status.name))) {
    throw ScenarioError("record_complete: " + summary_path(status.name) +
                        " does not exist; the scenario is not complete");
  }
}

void ResultStore::write_validation(const std::string& name,
                                   const util::Json& report) const {
  ensure_result_dir(name);
  write_file_atomic(validation_json_path(name), report.dump(2),
                    "result_store.validation");
}

util::Json ResultStore::load_validation(const std::string& name) const {
  try {
    return util::Json::parse(read_file(validation_json_path(name)));
  } catch (const util::JsonParseError& e) {
    throw ScenarioError(validation_json_path(name) + ": " + e.what());
  }
}

bool ResultStore::has_validation(const std::string& name) const {
  return fs::exists(validation_json_path(name));
}

void ResultStore::write_summary(const std::string& name,
                                const util::Json& summary) const {
  ensure_result_dir(name);
  write_file_atomic(summary_path(name), summary.dump(2),
                    "result_store.summary");
}

util::Json ResultStore::load_summary(const std::string& name) const {
  try {
    return util::Json::parse(read_file(summary_path(name)));
  } catch (const util::JsonParseError& e) {
    throw ScenarioError(summary_path(name) + ": " + e.what());
  }
}

std::size_t ResultStore::sweep_stale_temp_files() const {
  return util::remove_stale_temp_files(root_);
}

}  // namespace wsnex::scenario
