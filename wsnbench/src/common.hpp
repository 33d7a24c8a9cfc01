// Shared plumbing of the wsnex benchmark program: the one clock every
// timer uses, output digests, order statistics, the metric table a run
// prints, and the provenance every run records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace wsnbench {

/// Monotonic seconds. Every timer in the benchmark reads this clock.
double now_s();

/// Cost of one now_s() read, calibrated once per process. A forwarding
/// wrapper that brackets each call with two reads adds about one read
/// inside the bracket and one outside; the traced pass subtracts both.
double clock_read_s();

/// FNV-1a over a sequence of byte strings, each prefixed by its length so
/// that field boundaries are part of the hash.
class Digest {
 public:
  void add(std::string_view bytes);
  void add_file(const std::string& path);
  std::string hex() const;

 private:
  void mix(std::string_view bytes);
  std::uint64_t h_ = 14695981039346656037ULL;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// Time of the machine-speed reference: a fixed amount of floating-point
/// math (exp, log, sqrt) and of small write() calls into `scratch_path`,
/// the two kinds of work (model and simulator arithmetic; telemetry and
/// persist writes) whose speed a shared host varies most. It is the
/// benchmark's own code, so no change to the program moves it.
double reference_kernel_s(const std::string& scratch_path);

/// The reference kernel's time at reference speed. A shared host changes
/// speed by up to a factor of two, both every few seconds and over minutes.
/// Every end-to-end time is therefore measured as it ran and then scaled
/// by kReferenceS / (the reference kernel's time just before it): the time
/// it would have taken at reference speed. A change to the program moves a
/// scaled time exactly as it moves the time as run.
constexpr double kReferenceS = 0.003;

/// "median A ms, p90 B ms over N" for samples in seconds (report line).
std::string timing_note(const std::vector<double>& seconds);

/// splitmix64 over (seed, index): the derivation every generated input uses,
/// clipped to 31 bits so it survives any JSON round trip.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Count of '\n'-terminated lines in a file (0 when it is absent).
std::size_t count_lines(const std::string& path);

/// Max resident set size of this process so far, MiB.
double peak_rss_mb();

/// Delivered parallelism: nproc threads running a fixed busy loop, versus
/// one thread running it alone (nproc * t1 / tn, best of three each).
double effective_parallelism();

/// Machine and build facts a number needs to be interpreted.
wsnex::util::Json provenance(double parallelism);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// What one workload run produced. `metrics` holds every metric the run
/// measured, keyed by name; main() prints the end-to-end or the
/// per-layer subset. `exact` holds the counts that must repeat exactly.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::map<std::string, std::size_t> failures;  ///< failed units by cause
  std::string digest;
  std::map<std::string, double> metrics;
  std::map<std::string, double> exact;
  /// Per-pass samples behind the end-to-end statistics (printed in the
  /// report line, so a reader can see the spread inside one run).
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> notes;  ///< human-readable findings

  void fail(const std::string& cause, std::size_t n = 1);
  void problem(const std::string& what);
  /// Records `value` as the first pass's exact count, or flags the run
  /// incorrect when a later pass disagrees.
  void check_exact(const std::string& name, double value);
};

Result run_campaign(const Options& options);
Result run_validate(const Options& options);
Result run_serve(const Options& options);

/// Seconds to construct and start a JobScheduler + HttpServer on a fresh
/// data dir until /healthz answers (the daemon is stopped afterwards).
double boot_daemon_s(const std::string& dir);

}  // namespace wsnbench
