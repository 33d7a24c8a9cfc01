// Shared plumbing for the standalone benchmark drivers.
//
// Every driver speaks the same contract — `[--json[=PATH]] [--quick]` —
// and emits machine-readable output either as hand-formatted JSON through
// a FILE* (open_json_sink) or as a util::Json document (emit_json). The
// argv parsing and the sink handling used to be pasted into each main();
// this header is the single copy.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/clock.hpp"
#include "util/json.hpp"

namespace wsnex::bench {

/// The drivers' common command-line surface.
struct Args {
  bool json = false;      ///< --json or --json=PATH was given
  bool quick = false;     ///< --quick was given (CI smoke sizes)
  std::string json_path;  ///< PATH from --json=PATH; empty means stdout
};

/// Parses `[--json[=PATH]] [--quick]` into `out`. An unrecognized argument
/// prints the usage line (with argv[0]) to stderr and returns false —
/// unless `allow_unknown` is set, which leaves unknown arguments in place
/// untouched for a downstream parser (google-benchmark flags).
bool parse_args(int argc, char** argv, Args& out, bool allow_unknown = false);

/// Opens the JSON output sink: stdout when `path` is empty, else the file
/// truncated for writing. Returns nullptr after printing a diagnostic when
/// the file cannot be opened — callers should bail before running the
/// sweep, not after.
std::FILE* open_json_sink(const std::string& path);

/// Closes a sink returned by open_json_sink (no-op for the stdout sink).
void close_json_sink(std::FILE* sink, const std::string& path);

/// Serializes `json` (2-space indent, trailing newline) to `path`, or to
/// stdout when `path` is empty. Returns false with a stderr diagnostic if
/// the file cannot be written.
bool emit_json(const util::Json& json, const std::string& path);

/// Machine provenance every committed BENCH_*.json carries so a number can
/// be traced to the configuration that produced it: detected vs. active
/// SIMD ISA, the WSNEX_FORCE_SCALAR gate state and the hardware thread
/// count.
util::Json provenance();

/// fprintf-style mirror of provenance() for the drivers that hand-format
/// their JSON through a FILE*: emits `  "provenance": {...},\n` (compact
/// object, two-space indent, trailing comma) so it slots in after the
/// header fields.
void fprint_provenance(std::FILE* sink);

/// Best-of-`reps` wall time of fn() — the drivers' standard way to shave
/// scheduler noise off a measurement.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = util::now_s();
    fn();
    best = std::min(best, util::now_s() - t0);
  }
  return best;
}

}  // namespace wsnex::bench
