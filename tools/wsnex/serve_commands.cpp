#include "serve_commands.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "flags.hpp"
#include "scenario/result_store.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/build_info.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wsnex::cli {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

/// CLI requests ride out transient daemon hiccups (restart, listener
/// backlog overflow): 3 tries with exponential backoff. Only idempotent
/// requests retry — see serve::Client.
constexpr serve::RetryPolicy kCliRetry{/*max_attempts=*/3,
                                       /*base_delay_ms=*/100,
                                       /*max_delay_ms=*/2000};

bool require_port(const CommonFlags& flags, const char* command) {
  if (!flags.port) {
    std::fprintf(stderr, "%s: --port N is required (the daemon prints it)\n",
                 command);
    return false;
  }
  return true;
}

void print_progress_row(util::Table& table, const util::Json& job) {
  const auto count = [&](const char* key) {
    const util::Json* v = job.find(key);
    return (v != nullptr && v->is_number())
               ? std::to_string(v->as_int64())
               : std::string("-");
  };
  const auto text = [&](const char* key) {
    const util::Json* v = job.find(key);
    return (v != nullptr && v->is_string()) ? v->as_string()
                                            : std::string("-");
  };
  table.add_row({text("id"), text("kind"), text("state"), count("priority"),
                 count("units_done") + "/" + count("units_total"),
                 text("error")});
}

}  // namespace

int cmd_serve(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "serve",
      {"--data", "--port", "--slots", "--max-queued", "--cache-dir",
       "--port-file", "--access-log"});
  if (!flags.ok) return 2;
  if (flags.data_dir.empty()) {
    std::fprintf(stderr, "serve: --data DIR is required\n");
    return 2;
  }
  if (!flags.positional.empty()) {
    std::fprintf(stderr, "serve: unexpected argument \"%s\"\n",
                 flags.positional.front().c_str());
    return 2;
  }

  // Publish the build-facts gauge before anything can scrape /metrics.
  util::register_build_info_metric();

  serve::SchedulerOptions scheduler_options;
  scheduler_options.data_dir = flags.data_dir;
  scheduler_options.slots = flags.slots;
  scheduler_options.max_queued_jobs = flags.max_queued;
  scheduler_options.cache_dir = flags.cache_dir;

  // Declared before the server so the server (which references the
  // scheduler) is destroyed first.
  serve::JobScheduler scheduler(std::move(scheduler_options));
  const std::size_t requeued = scheduler.recover();

  serve::ServerOptions server_options;
  server_options.port = flags.port.value_or(0);
  server_options.access_log = flags.access_log;
  if (flags.access_log && util::log_level() > util::LogLevel::kInfo) {
    // Access lines are emitted at INFO; open the threshold unless the
    // operator already asked for something more verbose.
    util::set_log_level(util::LogLevel::kInfo);
  }
  serve::HttpServer server(scheduler, server_options);

  scheduler.start();
  server.start();
  if (!flags.port_file.empty()) {
    // Atomic so a watcher never reads a half-written port number.
    util::write_file_atomic(flags.port_file,
                            std::to_string(server.port()) + "\n");
  }
  std::printf("wsnex serve: listening on 127.0.0.1:%u (data %s, %zu slot(s)",
              server.port(), flags.data_dir.c_str(),
              scheduler.options().slots);
  if (requeued > 0) std::printf(", %zu job(s) resumed", requeued);
  std::printf(")\n");
  std::printf("submit with: wsnex submit --port %u <spec.json|preset>...\n",
              server.port());
  std::fflush(stdout);

  g_stop_requested = 0;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("wsnex serve: draining (in-flight scenarios finish and "
              "checkpoint; interrupted jobs resume on restart)\n");
  std::fflush(stdout);
  server.stop();
  scheduler.drain();
  std::printf("wsnex serve: stopped\n");
  return 0;
}

int cmd_submit(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(
      args, "submit",
      {"--port", "--id", "--kind", "--priority", "--quick", "--replicates",
       "--duration", "--tolerance", "--seed", "--deadline", "--wait"});
  if (!flags.ok) return 2;
  if (!require_port(flags, "submit")) return 2;
  if (flags.positional.empty()) {
    std::fprintf(stderr, "submit: no scenarios given (try `wsnex list`)\n");
    return 2;
  }

  util::Json body = util::Json::object();
  if (!flags.id.empty()) body.set("id", flags.id);
  body.set("kind", flags.kind);
  if (flags.priority != 1) body.set("priority", flags.priority);
  if (flags.quick) body.set("quick", true);
  util::Json scenarios = util::Json::array();
  for (const std::string& arg : flags.positional) {
    scenarios.push_back(load_spec_arg(arg).to_json());
  }
  body.set("scenarios", std::move(scenarios));
  if (flags.replicates) body.set("replicates", *flags.replicates);
  if (flags.duration_s) body.set("duration_s", *flags.duration_s);
  if (flags.tolerance_percent) {
    body.set("tolerance_percent", *flags.tolerance_percent);
  }
  if (flags.seed) {
    body.set("seed", static_cast<std::int64_t>(*flags.seed));
  }
  if (flags.deadline_s) body.set("deadline_s", *flags.deadline_s);

  const serve::Client client(*flags.port, 30000, kCliRetry);
  const util::Json accepted = client.submit(body);
  const std::string id = accepted.at("id").as_string();
  std::printf("submitted %s job %s (%zu scenario(s))\n", flags.kind.c_str(),
              id.c_str(), flags.positional.size());
  if (!flags.wait) {
    std::printf("poll with: wsnex status --port %u %s\n", *flags.port,
                id.c_str());
    return 0;
  }
  const util::Json final_status = client.wait(id);
  const std::string state = final_status.at("state").as_string();
  std::printf("job %s: %s\n", id.c_str(), state.c_str());
  if (state == "failed") {
    if (const util::Json* error = final_status.find("error")) {
      std::fprintf(stderr, "  %s\n", error->as_string().c_str());
    }
  }
  return state == "complete" ? 0 : 1;
}

int cmd_status(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "status", {"--port", "--json"});
  if (!flags.ok) return 2;
  if (!require_port(flags, "status")) return 2;
  if (flags.positional.size() > 1) {
    std::fprintf(stderr, "status: at most one job id expected\n");
    return 2;
  }
  const serve::Client client(*flags.port, 30000, kCliRetry);
  if (flags.positional.size() == 1) {
    const util::Json job = client.status(flags.positional.front());
    if (flags.as_json) {
      std::printf("%s\n", job.dump(2).c_str());
      return 0;
    }
    util::Table table({"id", "kind", "state", "priority", "done", "error"});
    print_progress_row(table, job);
    std::printf("%s\n", table.render().c_str());
    return 0;
  }
  const util::Json listing = client.list();
  if (flags.as_json) {
    std::printf("%s\n", listing.dump(2).c_str());
    return 0;
  }
  const util::Json& jobs = listing.at("jobs");
  if (jobs.as_array().empty()) {
    std::printf("no jobs\n");
    return 0;
  }
  util::Table table({"id", "kind", "state", "priority", "done", "error"});
  for (const util::Json& job : jobs.as_array()) {
    print_progress_row(table, job);
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

int cmd_results(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "results", {"--port"});
  if (!flags.ok) return 2;
  if (!require_port(flags, "results")) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "results: exactly one job id expected\n");
    return 2;
  }
  const serve::Client client(*flags.port, 30000, kCliRetry);
  std::printf("%s\n",
              client.results(flags.positional.front()).dump(2).c_str());
  return 0;
}

namespace {

std::string json_text(const util::Json& obj, const char* key) {
  const util::Json* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

std::int64_t json_count(const util::Json& obj, const char* key) {
  const util::Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_int64() : 0;
}

double json_real(const util::Json& obj, const char* key) {
  const util::Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : 0.0;
}

/// One human line per event, shared by the daemon and directory watch
/// modes (progress.jsonl records are the stream's `generation` events).
void print_event_line(const util::Json& event) {
  const std::string kind = json_text(event, "kind");
  const std::string scenario = json_text(event, "scenario");
  const std::string detail = json_text(event, "detail");
  if (kind == "generation") {
    std::printf("  [%-24s] gen %3lld  evals %6lld  front %3lld  feasible %3lld"
                "  hv %.4g  (%.0f evals/s)\n",
                scenario.c_str(),
                static_cast<long long>(json_count(event, "generation")),
                static_cast<long long>(json_count(event, "evaluations")),
                static_cast<long long>(json_count(event, "archive_size")),
                static_cast<long long>(json_count(event, "feasible")),
                json_real(event, "hypervolume"),
                json_real(event, "evals_per_s"));
  } else {
    std::printf("  [%.1fs] %s%s%s%s%s\n", json_real(event, "t"), kind.c_str(),
                scenario.empty() ? "" : " ", scenario.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
  }
  std::fflush(stdout);
}

/// Daemon mode: long-poll GET /v1/jobs/<id>/events with a resuming
/// cursor until the stream carries job_finished.
int watch_job(const serve::Client& client, const std::string& id) {
  std::uint64_t cursor = 0;
  std::printf("watching job %s (ctrl-c to stop; the job keeps running)\n",
              id.c_str());
  for (;;) {
    const util::Json page = client.events(id, cursor, 5000);
    const std::int64_t dropped = json_count(page, "dropped");
    if (dropped > 0) {
      std::printf("  ... %lld event(s) lost to ring wrap\n",
                  static_cast<long long>(dropped));
    }
    std::string terminal_state;
    for (const util::Json& event : page.at("events").as_array()) {
      print_event_line(event);
      if (json_text(event, "kind") == "job_finished") {
        terminal_state = json_text(event, "detail");
      }
    }
    cursor = static_cast<std::uint64_t>(json_count(page, "next"));
    if (!terminal_state.empty()) {
      return terminal_state.find("complete") != std::string::npos ? 0 : 1;
    }
  }
}

/// Directory mode: tail every scenario's progress.jsonl in a campaign
/// store, rendering records as they are flushed, until every scenario has
/// its summary.json.
int watch_dir(const std::string& dir) {
  scenario::ResultStore store(dir);
  if (!scenario::ResultStore::exists(store.root())) {
    std::fprintf(stderr, "%s: no campaign manifest (campaign.json)\n",
                 store.root().c_str());
    return 1;
  }
  std::printf("watching campaign at %s (ctrl-c to stop)\n",
              store.root().c_str());
  // The header never changes; each poll only asks which summaries exist.
  const scenario::CampaignManifest header = store.load_header();
  std::map<std::string, std::size_t> offsets;
  for (;;) {
    bool all_complete = true;
    for (const scenario::ScenarioStatus& status : header.scenarios) {
      if (!store.complete(status)) all_complete = false;
      std::ifstream in(store.progress_jsonl_path(status.name),
                       std::ios::binary);
      if (!in) continue;
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string content = ss.str();
      std::size_t begin = offsets[status.name];
      // Only '\n'-terminated lines are consumed: a record caught
      // mid-flush stays pending and is re-read whole on the next pass.
      while (begin < content.size()) {
        const std::size_t end = content.find('\n', begin);
        if (end == std::string::npos) break;
        const std::string line = content.substr(begin, end - begin);
        begin = end + 1;
        if (line.empty()) continue;
        try {
          const util::Json record = util::Json::parse(line);
          // A store written before progress.jsonl held events has records
          // without a kind; they are skipped like foreign lines.
          if (record.find("kind") != nullptr) print_event_line(record);
        } catch (const util::JsonParseError&) {
          // Torn or foreign line; skip it rather than abort the watch.
        }
      }
      offsets[status.name] = begin;
    }
    if (all_complete) {
      std::printf("campaign complete — inspect with: wsnex report %s\n",
                  dir.c_str());
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
}

}  // namespace

int cmd_watch(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "watch", {"--port"});
  if (!flags.ok) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr,
                 "watch: exactly one job id (with --port) or campaign "
                 "directory expected\n");
    return 2;
  }
  const std::string& target = flags.positional.front();
  if (!flags.port) {
    if (std::filesystem::is_directory(target)) return watch_dir(target);
    std::fprintf(stderr,
                 "watch: \"%s\" is not a campaign directory; to watch a "
                 "daemon job pass --port N\n",
                 target.c_str());
    return 2;
  }
  const serve::Client client(*flags.port, 60000, kCliRetry);
  return watch_job(client, target);
}

int cmd_cancel(const std::vector<std::string>& args) {
  const CommonFlags flags = parse_flags(args, "cancel", {"--port"});
  if (!flags.ok) return 2;
  if (!require_port(flags, "cancel")) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "cancel: exactly one job id expected\n");
    return 2;
  }
  const serve::Client client(*flags.port, 30000, kCliRetry);
  const util::Json job = client.cancel(flags.positional.front());
  std::printf("job %s: %s\n", job.at("id").as_string().c_str(),
              job.at("state").as_string().c_str());
  return 0;
}

}  // namespace wsnex::cli
