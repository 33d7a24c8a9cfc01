#pragma once

/// \file build_info.hpp
/// Self-description of the running binary: version, active SIMD ISA and
/// whether the fault-injection registry is compiled in. Exposed two ways
/// so scrapes and artifacts carry the same facts:
/// as a `wsnex_build_info` gauge on /metrics (value 1, facts in labels) and
/// as a JSON block embedded in each summary.json perf section.

#include <string>

#include "util/json.hpp"

namespace wsnex::util {

struct BuildInfo {
  std::string version;        ///< Project version (or "unknown").
  std::string active_isa;     ///< SIMD ISA selected at startup (simd.hpp).
  bool failpoints = false;    ///< Fault-injection registry compiled in.
};

/// Snapshot of the running binary's build facts. `active_isa` reflects
/// current runtime state, so call after any --force-scalar style
/// overrides have been applied.
BuildInfo build_info();

/// The same facts as a JSON object (keys: version, active_isa,
/// failpoints).
Json build_info_json();

/// Registers the `wsnex_build_info` gauge (value 1, facts as labels) in the
/// default metrics registry. Safe to call more than once.
void register_build_info_metric();

}  // namespace wsnex::util
