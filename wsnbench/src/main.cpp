// wsnex benchmark program: runs one workload in this (fresh) process and
// prints one JSON line of results. run.py builds this binary, runs it, and
// checks its metrics against BENCHMARK.json.
//
//   wsnbench --workload campaign|validate|serve --seed N --seconds S
//            --trace 0|1 --work DIR [--setup-probe]
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// adds a traced pass and prints the per-layer metrics. --setup-probe
// measures the cold set-up alone and exits.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "dsp/prd_calibration.hpp"

namespace {

using namespace wsnbench;
using wsnex::util::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric this program can print, with its unit. run.py checks that a
// run printed exactly the metrics BENCHMARK.json declares, with these units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"success_ratio", "ratio"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"dsp.calibrate_dwt_s", "s"},
    {"dsp.calibrate_cs_s", "s"},
    {"serve.boot_s", "s"},
    {"scenario.store_init_s", "s"},
    {"scenario.manifest_s", "s"},
    {"scenario.progress_s", "s"},
    {"scenario.progress_lines", "count"},
    {"scenario.post_s", "s"},
    {"dse.memo_build_s", "s"},
    {"dse.nsga2_self_ns_per_eval", "ns"},
    {"dse.mosa_self_ns_per_eval", "ns"},
    {"model.ns_per_eval", "ns"},
    {"dse.evaluations", "count"},
    {"dse.front_size", "count"},
    {"dse.feasible_ratio", "ratio"},
    {"dse.hypervolume", "ratio"},
    {"dse.nsga2_evals_per_s", "1/s"},
    {"dse.mosa_evals_per_s", "1/s"},
    {"validate.lower_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"validate.aggregate_s", "s"},
    {"validate.persist_s", "s"},
    {"serve.submit_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.notify_ms", "ms"},
    {"serve.results_ms", "ms"},
    {"serve.events_per_job", "count"},
    {"serve.requests_per_job", "count"},
    {"serve.replay_lost", "count"},
    {"serve.refused", "count"},
    {"serve.watch_missed", "count"},
    {"unattributed_s", "s"},
    {"trace_overhead", "ratio"},
    {"util.effective_parallelism", "ratio"},
};

/// Cold set-up as a first `wsnex run` (or any cache miss) pays it: the PRD
/// calibration with no disk cache, plus for `serve` a daemon boot until
/// /healthz answers. Scaled to reference speed (see kReferenceS).
double cold_setup_s(const Options& options) {
  const double scale =
      kReferenceS / reference_kernel_s(options.work_dir + "/reference.tmp");
  const double t0 = now_s();
  wsnex::dsp::default_prd_curves();
  double setup = now_s() - t0;
  if (options.workload == "serve") {
    const std::string dir = options.work_dir + "/setup-daemon";
    setup += boot_daemon_s(dir);
    std::filesystem::remove_all(dir);
  }
  return setup * scale;
}

double time_s(auto&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

bool parse(int argc, char** argv, Options& options, bool& setup_probe) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--setup-probe") {
      setup_probe = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return (options.workload == "campaign" || options.workload == "validate" ||
          options.workload == "serve") &&
         !options.work_dir.empty() && options.seconds > 0.0;
}

Json metric_table(const Result& result, const MetricDef* defs, std::size_t n) {
  Json out = Json::object();
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = result.metrics.find(defs[i].name);
    Json metric = Json::object();
    metric.set("value", it == result.metrics.end() ? 0.0 : it->second);
    metric.set("unit", defs[i].unit);
    out.set(defs[i].name, std::move(metric));
  }
  return out;
}

int run(const Options& options, bool setup_probe) {
  std::filesystem::create_directories(options.work_dir);
  const double setup = cold_setup_s(options);
  if (setup_probe) {
    Json out = Json::object();
    out.set("setup_s", setup);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }

  Result result = options.workload == "campaign" ? run_campaign(options)
                  : options.workload == "validate" ? run_validate(options)
                                                   : run_serve(options);
  auto& m = result.metrics;
  if (options.trace) {
    m["dsp.calibrate_dwt_s"] = time_s([] { wsnex::dsp::calibrate_dwt(); });
    m["dsp.calibrate_cs_s"] = time_s([] { wsnex::dsp::calibrate_cs(); });
  }
  for (const auto& [name, value] : result.exact) m[name] = value;
  m["setup_s"] = setup;
  m["peak_rss_mb"] = peak_rss_mb();
  m["success_ratio"] =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
  const double parallelism = effective_parallelism();
  m["util.effective_parallelism"] = parallelism;

  Json report = Json::object();
  report.set("workload", options.workload);
  report.set("seed", static_cast<std::int64_t>(options.seed));
  report.set("digest", result.digest);
  report.set("provenance", provenance(parallelism));
  Json failures = Json::object();
  for (const auto& [cause, n] : result.failures) failures.set(cause, n);
  report.set("failures", std::move(failures));
  Json exact = Json::object();
  for (const auto& [name, value] : result.exact) exact.set(name, value);
  report.set("exact", std::move(exact));
  Json problems = Json::array();
  for (const std::string& p : result.problems) problems.push_back(p);
  report.set("problems", std::move(problems));
  Json samples = Json::object();
  for (const auto& [name, values] : result.samples) {
    Json list = Json::array();
    for (const double v : values) list.push_back(v);
    samples.set(name, std::move(list));
  }
  report.set("samples", std::move(samples));
  Json notes = Json::array();
  for (const std::string& n : result.notes) notes.push_back(n);
  report.set("notes", std::move(notes));
  std::printf("%s\n", report.dump().c_str());

  Json out = Json::object();
  out.set("correct", result.correct && result.failed == 0);
  out.set("attempted", result.attempted);
  out.set("failed", result.failed);
  out.set("metrics",
          options.trace
              ? metric_table(result, kPerLayer, std::size(kPerLayer))
              : metric_table(result, kEndToEnd, std::size(kEndToEnd)));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool setup_probe = false;
  try {
    if (!parse(argc, argv, options, setup_probe)) {
      std::fprintf(stderr,
                   "usage: wsnbench --workload campaign|validate|serve "
                   "--seed N --seconds S --trace 0|1 --work DIR "
                   "[--setup-probe]\n");
      return 2;
    }
    return run(options, setup_probe);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnbench: %s\n", e.what());
    return 1;
  }
}
