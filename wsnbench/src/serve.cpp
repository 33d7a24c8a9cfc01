// `serve` workload: the daemon's steady state. An in-process JobScheduler
// (2 slots, 1 evaluation thread) behind an HttpServer, on a fresh data dir
// per pass, driven by 4 closed-loop clients over loopback. Each client
// takes the next job of a seeded list, submits it, follows it with
// events?since=&wait= (the `wsnex watch` path) until job_finished, fetches
// its results, replays its stream from since=0, then takes the next job.
//
// The job list repeats a fixed composition — 5 full-budget NSGA-II
// campaign jobs, 2 full-budget MOSA campaign jobs and 2 small validation
// jobs per 9 — in a seeded order with seeded presets and seeds, so every
// seed yields the same mix of work and the latency percentiles do not jump
// between job kinds from one seed to the next.
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common.hpp"
#include "scenario/registry.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"

namespace wsnbench {

namespace {

namespace fs = std::filesystem;
using wsnex::util::Json;

constexpr std::size_t kClients = 4;
constexpr std::size_t kCycles = 4;  // jobs per pass = 9 * kCycles
constexpr double kJobTimeoutS = 60.0;
// Long-poll bound. A running job publishes events every few milliseconds,
// so a poll that waits this long with nothing new is either a job still
// queued or a stream that stalled; the client then asks for the status.
constexpr int kWatchWaitMs = 250;

const char* const kValidationPresets[] = {"hospital_ward_6", "bursty_channel_6",
                                          "contended_csma_6"};

struct JobTemplate {
  std::string id;
  bool campaign = true;
  Json body;
};

std::vector<JobTemplate> job_list(std::uint64_t seed) {
  const std::vector<wsnex::scenario::ScenarioSpec> presets =
      wsnex::scenario::all_presets();
  std::vector<JobTemplate> jobs;
  std::uint64_t draw = 0;
  const auto next = [&] { return derive_seed(seed, draw++); };
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    // 'n' NSGA-II campaign, 'm' MOSA campaign, 'v' validation.
    std::string kinds = "nnnnnmmvv";
    for (std::size_t i = kinds.size() - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[next() % (i + 1)]);
    }
    for (const char kind : kinds) {
      JobTemplate job;
      job.id = "j";
      job.id += std::to_string(jobs.size());
      job.campaign = kind != 'v';
      Json body = Json::object();
      body.set("id", job.id);
      Json scenarios = Json::array();
      if (job.campaign) {
        wsnex::scenario::ScenarioSpec spec = presets[next() % presets.size()];
        spec.optimizer.kind = kind == 'n'
                                  ? wsnex::scenario::OptimizerKind::kNsga2
                                  : wsnex::scenario::OptimizerKind::kMosa;
        spec.optimizer.seed = next();
        scenarios.push_back(spec.to_json());
        body.set("kind", "campaign");
      } else {
        scenarios.push_back(
            wsnex::scenario::preset(kValidationPresets[next() % 3]).to_json());
        body.set("kind", "validation");
        body.set("replicates", static_cast<std::size_t>(8));
        body.set("duration_s", 60.0);
        body.set("seed", static_cast<std::int64_t>(next()));
      }
      body.set("scenarios", std::move(scenarios));
      job.body = std::move(body);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// The results body without its wall-clock fields.
Json strip_wallclock(const Json& json) {
  if (json.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : json.as_object()) {
      if (key != "wallclock_s" && key != "perf") out.set(key, strip_wallclock(value));
    }
    return out;
  }
  if (json.is_array()) {
    Json out = Json::array();
    for (const Json& value : json.as_array()) out.push_back(strip_wallclock(value));
    return out;
  }
  return json;
}

/// What one client observed for one job.
struct JobOutcome {
  std::string failure;  ///< empty when every step succeeded
  std::string digest;
  double latency_s = 0.0;
  double submit_s = 0.0, results_s = 0.0;  ///< client call round trips
  double queue_wait_s = -1.0, run_s = -1.0, notify_s = 0.0;
  bool notify_measured = false;  ///< traced pass, job_finished seen in-process
  double client_s = 0.0;  ///< whole client-side handling of the job
  double calls_s = 0.0;   ///< time inside Client calls
  std::size_t requests = 0;
  std::size_t final_cursor = 0;
  std::size_t replay_lost = 0;
  bool watch_missed = false;  ///< the live stream never delivered job_finished
};

/// Traced pass only: an in-process reader of one job's event ring that
/// notes when job_finished is published (to within a condition-variable
/// wake) — the reference the HTTP watcher's receipt is measured against.
class FinishProbe {
 public:
  explicit FinishProbe(std::shared_ptr<wsnex::util::events::EventRing> ring)
      : ring_(std::move(ring)), thread_([this] { watch(); }) {}
  ~FinishProbe() {
    if (thread_.joinable()) thread_.join();
  }
  FinishProbe(const FinishProbe&) = delete;
  FinishProbe& operator=(const FinishProbe&) = delete;

  /// When job_finished was seen in-process (-1 if it never was).
  double finished_at() {
    if (thread_.joinable()) thread_.join();
    return seen_s_;
  }

 private:
  // job_finished is a job's last event, so the probe only ever reads the
  // newest one. A slot still being written reads as empty and is simply
  // read again, instead of advancing a cursor past it.
  void watch() {
    std::uint64_t newest = 0;
    std::vector<wsnex::util::events::Event> batch;
    const double deadline = now_s() + kJobTimeoutS;
    while (now_s() < deadline) {
      ring_->wait_for(newest, 0.05);
      const std::uint64_t last = ring_->last_seq();
      if (last == 0) continue;
      batch.clear();
      ring_->read_since(last - 1, batch);
      const double seen = now_s();
      if (batch.empty()) continue;
      newest = batch.back().seq;
      if (batch.back().kind == wsnex::util::events::Kind::kJobFinished) {
        seen_s_ = seen;
        return;
      }
    }
  }

  std::shared_ptr<wsnex::util::events::EventRing> ring_;
  double seen_s_ = -1.0;
  std::thread thread_;  // last: starts once the members it reads exist
};

/// Runs one job end to end as a `wsnex submit` + `wsnex watch` user would.
/// `traced` (traced pass only) is the daemon's scheduler, read in-process
/// for the job_finished publication time.
JobOutcome run_job(const wsnex::serve::Client& client, const JobTemplate& job,
                   const wsnex::serve::JobScheduler* traced) {
  JobOutcome out;
  // Runs one Client call, charging its round trip to calls_s.
  const auto call = [&out](auto&& fn) {
    const double t0 = now_s();
    Json answer = fn();
    out.calls_s += now_s() - t0;
    ++out.requests;
    return answer;
  };
  const double sent = now_s();
  try {
    call([&] { return client.submit(job.body); });
    out.submit_s = now_s() - sent;
    std::optional<FinishProbe> probe;
    if (traced != nullptr) probe.emplace(traced->events(job.id));

    // Live watch (`wsnex watch <job>`): long-poll until job_finished.
    std::uint64_t cursor = 0;
    double queued_t = -1.0, started_t = -1.0, finished_t = -1.0;
    double finished_seen = 0.0;
    std::string end_state;
    while (end_state.empty()) {
      if (now_s() - sent > kJobTimeoutS) {
        out.failure = "timeout";
        break;
      }
      const Json page =
          call([&] { return client.events(job.id, cursor, kWatchWaitMs); });
      const double seen = now_s();
      if (page.at("events").as_array().empty()) {
        // A long poll that times out on a finished job means the stream's
        // cursor moved past job_finished without delivering it (a plain
        // watcher would wait forever). Recover from the job's status and
        // count the miss.
        const Json status = call([&] { return client.status(job.id); });
        const std::string& state = status.at("state").as_string();
        if (state != "queued" && state != "running") {
          out.watch_missed = true;
          finished_seen = seen;
          end_state = state;
        }
      }
      for (const Json& event : page.at("events").as_array()) {
        const std::string& kind = event.at("kind").as_string();
        const double t = event.at("t").as_double();
        if (kind == "job_queued") queued_t = t;
        if (kind == "job_started") started_t = t;
        if (kind == "job_finished") {
          finished_t = t;
          finished_seen = seen;
          end_state = event.at("detail").as_string();
        }
      }
      cursor = static_cast<std::uint64_t>(page.at("next").as_int64());
    }
    if (!out.failure.empty()) {
      out.client_s = now_s() - sent;
      return out;
    }

    const double results_start = now_s();
    const Json results = call([&] { return client.results(job.id); });
    const double received = now_s();
    out.results_s = received - results_start;
    out.latency_s = received - sent;

    // Replay from the start, as a late `watch` would.
    const Json replay = call([&] { return client.events(job.id, 0, 0); });
    std::set<std::string> kinds;
    for (const Json& event : replay.at("events").as_array()) {
      kinds.insert(event.at("kind").as_string());
    }
    std::vector<std::string> lifecycle = {"job_queued", "job_started",
                                          "unit_started", "unit_finished",
                                          "job_finished"};
    if (job.campaign) {
      lifecycle.push_back("scenario_started");
      lifecycle.push_back("scenario_finished");
    }
    for (const std::string& kind : lifecycle) {
      if (kinds.count(kind) == 0) ++out.replay_lost;
    }
    out.final_cursor = static_cast<std::size_t>(replay.at("next").as_int64());

    if (queued_t >= 0.0 && started_t >= 0.0 && finished_t >= 0.0) {
      out.queue_wait_s = started_t - queued_t;
      out.run_s = finished_t - started_t;
    }
    if (probe) {
      const double published = probe->finished_at();
      out.notify_measured = published >= 0.0 && !out.watch_missed;
      out.notify_s = finished_seen - published;
    }
    if (end_state != "complete") {
      out.failure = "end state " + end_state;
    } else if (results.find("error") != nullptr) {
      out.failure = "results error";
    } else {
      Digest d;
      d.add(strip_wallclock(results).dump());
      out.digest = d.hex();
    }
  } catch (const wsnex::serve::ServeApiError& e) {
    out.failure = e.status() == 429 || e.status() == 503
                      ? "refused"
                      : "api error " + std::to_string(e.status());
  } catch (const wsnex::util::SocketError& e) {
    out.failure = "transport";
  } catch (const std::exception& e) {
    out.failure = std::string("client error: ") + e.what();
  }
  out.client_s = now_s() - sent;
  return out;
}

struct Pass {
  double boot_s = 0.0;
  double wall_s = 0.0;
  std::vector<JobOutcome> jobs;
};

Pass run_pass(const std::vector<JobTemplate>& list, const std::string& dir,
              bool traced) {
  Pass pass;
  pass.jobs.resize(list.size());
  const double boot_start = now_s();
  wsnex::serve::SchedulerOptions sopts;
  sopts.data_dir = dir;
  sopts.slots = 2;
  sopts.threads = 1;
  wsnex::serve::JobScheduler scheduler(sopts);
  wsnex::serve::HttpServer server(scheduler, wsnex::serve::ServerOptions{});
  scheduler.start();
  server.start();
  const wsnex::serve::Client client(server.port());
  client.health();
  pass.boot_s = now_s() - boot_start;

  std::atomic<std::size_t> cursor{0};
  const double start = now_s();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = cursor++; i < list.size(); i = cursor++) {
        pass.jobs[i] = run_job(client, list[i], traced ? &scheduler : nullptr);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  pass.wall_s = now_s() - start;
  server.stop();
  scheduler.drain();
  return pass;
}

/// Tallies one pass into the result: failures by cause, digests against
/// the reference pass, and the exact per-pass counts.
std::size_t settle(const Pass& pass, const Pass* reference, const char* cause,
                   Result& result) {
  std::size_t completed = 0;
  double cursors = 0.0, lost = 0.0;
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    const JobOutcome& job = pass.jobs[i];
    ++result.attempted;
    if (!job.failure.empty()) {
      result.fail(job.failure);
      continue;
    }
    if (reference != nullptr && job.digest != reference->jobs[i].digest) {
      result.fail(cause);
      continue;
    }
    ++completed;
    if (job.watch_missed) result.metrics["serve.watch_missed"] += 1.0;
    cursors += static_cast<double>(job.final_cursor);
    lost += static_cast<double>(job.replay_lost);
  }
  if (completed == pass.jobs.size()) {
    result.check_exact("serve.events_per_job",
                       cursors / static_cast<double>(completed));
    result.check_exact("serve.replay_lost", lost);
  }
  if (result.failures.count("refused") != 0) {
    result.metrics["serve.refused"] =
        static_cast<double>(result.failures.at("refused"));
  }
  return completed;
}

}  // namespace

double boot_daemon_s(const std::string& dir) {
  return run_pass({}, dir, false).boot_s;
}

Result run_serve(const Options& options) {
  Result result;
  const std::vector<JobTemplate> list = job_list(options.seed);
  std::size_t pass_index = 0;
  const auto one_pass = [&](bool traced) {
    const std::string dir =
        options.work_dir + "/pass-" + std::to_string(pass_index++);
    Pass pass = run_pass(list, dir, traced);
    fs::remove_all(dir);
    return pass;
  };

  const Pass reference = one_pass(false);  // warm-up
  settle(reference, nullptr, "", result);
  // Throughput is the jobs one pass completed over the median pass time;
  // latency is one job, submit sent to results received, at the median of
  // all jobs. Both are scaled to reference speed, per pass.
  std::vector<double> boots, walls, scaled, latencies, scaled_latencies;
  double completed = 0, measured_s = 0;
  const double start = now_s();
  while (walls.empty() || now_s() - start < options.seconds) {
    const double scale =
        kReferenceS / reference_kernel_s(options.work_dir + "/reference.tmp");
    const Pass pass = one_pass(false);
    completed += static_cast<double>(
        settle(pass, &reference, "digest differs", result));
    boots.push_back(pass.boot_s);
    walls.push_back(pass.wall_s);
    scaled.push_back(pass.wall_s * scale);
    measured_s += pass.wall_s;
    for (const JobOutcome& job : pass.jobs) {
      if (!job.failure.empty()) continue;
      latencies.push_back(job.latency_s);
      scaled_latencies.push_back(job.latency_s * scale);
    }
  }

  result.samples["pass_wall_s"] = walls;
  result.samples["job_latency_s"] = latencies;
  auto& m = result.metrics;
  m["throughput_per_s"] =
      completed / static_cast<double>(walls.size()) / median(scaled);
  m["latency_p50_ms"] = median(scaled_latencies) * 1e3;
  m["serve.boot_s"] = median(boots);
  result.notes.push_back("serve pass of " + std::to_string(list.size()) +
                         " jobs: " + timing_note(walls) + " passes as run; " +
                         timing_note(scaled) + " at reference speed");
  result.notes.push_back("serve job: " + timing_note(latencies) +
                         " jobs as run; " + timing_note(scaled_latencies) +
                         " at reference speed");

  if (options.trace) {
    const Pass traced = one_pass(true);
    settle(traced, &reference, "traced digest differs", result);
    std::vector<double> submit, queue, run, notify, results;
    double requests = 0.0, client_s = 0.0, calls_s = 0.0;
    for (const JobOutcome& job : traced.jobs) {
      submit.push_back(job.submit_s * 1e3);
      results.push_back(job.results_s * 1e3);
      if (job.run_s >= 0.0) {
        queue.push_back(job.queue_wait_s * 1e3);
        run.push_back(job.run_s * 1e3);
      }
      if (job.notify_measured) notify.push_back(job.notify_s * 1e3);
      requests += static_cast<double>(job.requests);
      client_s += job.client_s;
      calls_s += job.calls_s;
    }
    m["serve.submit_ms"] = median(submit);
    m["serve.queue_wait_ms"] = median(queue);
    m["serve.run_ms"] = median(run);
    m["serve.notify_ms"] = median(notify);
    m["serve.results_ms"] = median(results);
    m["serve.requests_per_job"] = requests / static_cast<double>(list.size());
    m["unattributed_s"] = client_s - calls_s;
    m["trace_overhead"] =
        traced.wall_s * static_cast<double>(walls.size()) / measured_s - 1.0;
  }

  Digest digest;
  for (const JobOutcome& job : reference.jobs) digest.add(job.digest);
  result.digest = digest.hex();
  return result;
}

}  // namespace wsnbench
