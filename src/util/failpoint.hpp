// Compile-time-optional fault injection (`-DWSNEX_FAILPOINTS=ON`): a
// registry of named failure sites the persist, cache and socket layers
// evaluate at the exact points where real systems fail. The default build
// compiles every evaluation to an inline no-op, so production binaries
// carry zero overhead and are byte-identical in behavior to a failpoints
// build with nothing armed.
//
// Sites are armed through the WSNEX_FAILPOINTS environment variable (or
// configure() in tests):
//
//   WSNEX_FAILPOINTS="result_store.summary=crash#2;prd_cache.write=torn@128"
//
// Grammar (sites separated by ';'):
//
//   site  = action
//   action       := mode modifier?
//   mode         := "error(" ERRNO ")"   fail the operation with this errno
//                 | "torn@" N            persist only the first N bytes,
//                                        then report success (a torn write)
//                 | "crash"              exit the process immediately with
//                                        kCrashExitCode (simulated SIGKILL)
//                 | "sleep(" MS ")"      stall the site for MS milliseconds
//                 | "off"                explicitly disarm the site
//   modifier     := "#" K                trigger only on the Kth evaluation
//                                        of the site (1-based)
//
// ERRNO is a symbolic name (ENOSPC, EIO, EXDEV, ...) or a decimal number.
// `crash` and `sleep` are handled inside evaluate() itself; call sites
// only ever observe kNone, kError or kTorn and decide what the site-local
// failure looks like (throw, degrade, truncate).
//
// The site catalogue lives in docs/ARCHITECTURE.md ("Fault model"); the
// crash-recovery soak (tools/crash_soak.sh) walks it systematically.
#pragma once

#include <cstddef>
#include <string>

namespace wsnex::util::failpoint {

/// Exit code of a `crash` failpoint — distinct from every meaningful
/// wsnex exit code so harnesses can assert the crash was the injected one.
inline constexpr int kCrashExitCode = 86;

enum class ActionKind { kNone, kError, kTorn };

/// What a call site must simulate. kCrash/kSleep never reach call sites;
/// evaluate() performs them internally.
struct Action {
  ActionKind kind = ActionKind::kNone;
  int error_errno = 0;         ///< kError: the errno to fail with
  std::size_t torn_bytes = 0;  ///< kTorn: bytes that survive the tear
  explicit operator bool() const { return kind != ActionKind::kNone; }
};

/// True when the build carries live failpoints (-DWSNEX_FAILPOINTS=ON).
#if defined(WSNEX_FAILPOINTS_ENABLED)
constexpr bool compiled_in() { return true; }
#else
constexpr bool compiled_in() { return false; }
#endif

#if defined(WSNEX_FAILPOINTS_ENABLED)

/// Evaluates the failpoint named `site`. On first use the registry arms
/// itself from WSNEX_FAILPOINTS. Unarmed sites return kNone; `crash`
/// exits the process with kCrashExitCode after flushing stderr; `sleep`
/// stalls and returns kNone. Every trigger logs a warning and bumps
/// wsnex_failpoint_triggers_total{site=...}.
Action evaluate(const char* site);

/// Parses `spec` and arms its sites (replacing any prior arming of the
/// same sites). Throws std::invalid_argument naming the offending token.
void configure(const std::string& spec);

/// Arms from the WSNEX_FAILPOINTS environment variable; no-op when unset.
void configure_from_env();

/// Disarms every site and clears hit counters (tests).
void reset();

/// Number of times `site` has been evaluated (armed or not).
std::size_t hits(const std::string& site);

#else  // compiled out: evaluations are inline no-ops with zero overhead.

inline Action evaluate(const char*) { return {}; }
/// Warns (once) that the binary was built without failpoint support when
/// `spec` is non-empty, so an armed WSNEX_FAILPOINTS cannot silently
/// arm nothing.
void configure(const std::string& spec);
void configure_from_env();
inline void reset() {}
inline std::size_t hits(const std::string&) { return 0; }

#endif

}  // namespace wsnex::util::failpoint
