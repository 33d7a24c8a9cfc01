// The one command-line flag parser every wsnex subcommand goes through,
// plus the spec-argument resolution `run`, `validate`, `submit` and
// friends share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario_spec.hpp"

namespace wsnex::cli {

/// Every flag any subcommand honours; each subcommand reads only the ones
/// it passed to parse_flags as accepted.
struct CommonFlags {
  std::vector<std::string> positional;
  std::string out_dir;
  std::string cache_dir;
  std::string trace_path;
  bool metrics = false;
  bool convergence = false;
  bool no_progress = false;
  bool quick = false;
  /// Unset means the command's default: `run`/`resume` use the hardware
  /// concurrency, `validate` 1. `--jobs 0` is the hardware concurrency.
  std::optional<std::size_t> jobs;
  std::size_t abort_after = 0;
  bool validate = false;
  /// Unset means "the command's default" — standalone validate and the
  /// campaign hook default differently, and `submit` leaves unset knobs
  /// out of the job body, so explicit values must stay distinguishable
  /// from defaults.
  std::optional<std::size_t> replicates;
  std::optional<double> duration_s;
  std::optional<double> tolerance_percent;
  std::optional<std::uint64_t> seed;
  std::optional<double> deadline_s;
  // Serve layer (daemon and client verbs).
  std::optional<std::uint16_t> port;
  std::string data_dir;
  std::string port_file;
  std::string id;
  std::string kind = "campaign";
  std::size_t slots = 0;
  std::size_t max_queued = 64;
  std::size_t priority = 1;
  bool wait = false;
  bool as_json = false;
  bool access_log = false;
  bool ok = true;
};

/// Parses `args` for `command`, which honours exactly the flags in
/// `accepted` (`--out` is spelled `-o`, `-p` is spelled `--port`); any
/// other flag, or a malformed value, clears `ok` with a message.
CommonFlags parse_flags(const std::vector<std::string>& args,
                        const char* command,
                        std::initializer_list<std::string_view> accepted);

/// File path -> parsed spec; otherwise a registry preset name.
scenario::ScenarioSpec load_spec_arg(const std::string& arg);

}  // namespace wsnex::cli
