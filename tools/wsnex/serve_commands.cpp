#include "serve_commands.hpp"

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "scenario/registry.hpp"
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

}  // namespace

std::optional<std::size_t> parse_count(const std::string& value,
                                       const char* flag) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "%s expects a non-negative integer, got \"%s\"\n",
                 flag, value.c_str());
    return std::nullopt;
  }
  try {
    return static_cast<std::size_t>(std::stoull(value));
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "%s value out of range: %s\n", flag, value.c_str());
    return std::nullopt;
  }
}

std::optional<double> parse_real(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size() || !std::isfinite(v) || !(v > 0.0)) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s expects a finite positive number, got \"%s\"\n",
                 flag, value.c_str());
    return std::nullopt;
  }
}

namespace {

/// File path -> parsed spec; otherwise a registry preset name (the same
/// resolution `wsnex run` applies).
scenario::ScenarioSpec load_spec_arg(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    return scenario::ScenarioSpec::from_file(arg);
  }
  if (arg.ends_with(".json")) {
    throw scenario::ScenarioError("cannot open scenario file: " + arg);
  }
  return scenario::preset(arg);
}

/// Flags shared by the serve-layer subcommands.
struct ServeFlags {
  std::vector<std::string> positional;
  std::uint16_t port = 0;
  bool have_port = false;
  std::string data_dir;
  std::string cache_dir;
  std::string port_file;
  std::string id;
  std::string kind = "campaign";
  std::size_t slots = 0;
  std::size_t threads = 1;
  std::size_t max_queued = 64;
  std::size_t priority = 1;
  bool quick = false;
  bool wait = false;
  bool as_json = false;
  bool access_log = false;
  std::optional<std::size_t> replicates;
  std::optional<double> duration_s;
  std::optional<double> tolerance_percent;
  std::optional<std::size_t> seed;
  std::optional<double> deadline_s;
  bool ok = true;
};

ServeFlags parse_serve_flags(const std::vector<std::string>& args) {
  ServeFlags flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next_value =
        [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        flags.ok = false;
        return std::nullopt;
      }
      return args[++i];
    };
    const auto count_flag = [&](const char* flag, auto assign) {
      if (const auto v = next_value(flag)) {
        if (const auto n = parse_count(*v, flag)) {
          assign(*n);
        } else {
          flags.ok = false;
        }
      }
    };
    if (a == "--port" || a == "-p") {
      count_flag("--port", [&](std::size_t n) {
        if (n > 65535) {
          std::fprintf(stderr, "--port must be <= 65535\n");
          flags.ok = false;
          return;
        }
        flags.port = static_cast<std::uint16_t>(n);
        flags.have_port = true;
      });
    } else if (a == "--data") {
      if (const auto v = next_value("--data")) flags.data_dir = *v;
    } else if (a == "--cache-dir") {
      if (const auto v = next_value("--cache-dir")) flags.cache_dir = *v;
    } else if (a == "--port-file") {
      if (const auto v = next_value("--port-file")) flags.port_file = *v;
    } else if (a == "--id") {
      if (const auto v = next_value("--id")) flags.id = *v;
    } else if (a == "--kind") {
      if (const auto v = next_value("--kind")) {
        if (*v != "campaign" && *v != "validation") {
          std::fprintf(stderr,
                       "--kind must be \"campaign\" or \"validation\"\n");
          flags.ok = false;
        } else {
          flags.kind = *v;
        }
      }
    } else if (a == "--slots") {
      count_flag("--slots", [&](std::size_t n) { flags.slots = n; });
    } else if (a == "--threads") {
      count_flag("--threads", [&](std::size_t n) { flags.threads = n; });
    } else if (a == "--max-queued") {
      count_flag("--max-queued", [&](std::size_t n) { flags.max_queued = n; });
    } else if (a == "--priority") {
      count_flag("--priority", [&](std::size_t n) { flags.priority = n; });
    } else if (a == "--replicates") {
      count_flag("--replicates", [&](std::size_t n) { flags.replicates = n; });
    } else if (a == "--seed") {
      count_flag("--seed", [&](std::size_t n) { flags.seed = n; });
    } else if (a == "--duration") {
      if (const auto v = next_value("--duration")) {
        if (const auto d = parse_real(*v, "--duration")) {
          flags.duration_s = *d;
        } else {
          flags.ok = false;
        }
      }
    } else if (a == "--deadline") {
      if (const auto v = next_value("--deadline")) {
        if (const auto d = parse_real(*v, "--deadline")) {
          flags.deadline_s = *d;
        } else {
          flags.ok = false;
        }
      }
    } else if (a == "--tolerance") {
      if (const auto v = next_value("--tolerance")) {
        if (const auto t = parse_real(*v, "--tolerance")) {
          flags.tolerance_percent = *t;
        } else {
          flags.ok = false;
        }
      }
    } else if (a == "--quick") {
      flags.quick = true;
    } else if (a == "--wait") {
      flags.wait = true;
    } else if (a == "--json") {
      flags.as_json = true;
    } else if (a == "--access-log") {
      flags.access_log = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      flags.ok = false;
    } else {
      flags.positional.push_back(a);
    }
  }
  return flags;
}

bool require_port(const ServeFlags& flags, const char* command) {
  if (!flags.have_port) {
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
  const ServeFlags flags = parse_serve_flags(args);
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
  scheduler_options.threads = flags.threads;
  scheduler_options.max_queued_jobs = flags.max_queued;
  scheduler_options.cache_dir = flags.cache_dir;

  // Declared before the server so the server (which references the
  // scheduler) is destroyed first.
  serve::JobScheduler scheduler(std::move(scheduler_options));
  const std::size_t requeued = scheduler.recover();

  serve::ServerOptions server_options;
  server_options.port = flags.port;
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
  const ServeFlags flags = parse_serve_flags(args);
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

  const serve::Client client(flags.port, 30000, kCliRetry);
  const util::Json accepted = client.submit(body);
  const std::string id = accepted.at("id").as_string();
  std::printf("submitted %s job %s (%zu scenario(s))\n", flags.kind.c_str(),
              id.c_str(), flags.positional.size());
  if (!flags.wait) {
    std::printf("poll with: wsnex status --port %u %s\n", flags.port,
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
  const ServeFlags flags = parse_serve_flags(args);
  if (!flags.ok) return 2;
  if (!require_port(flags, "status")) return 2;
  if (flags.positional.size() > 1) {
    std::fprintf(stderr, "status: at most one job id expected\n");
    return 2;
  }
  const serve::Client client(flags.port, 30000, kCliRetry);
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
  const ServeFlags flags = parse_serve_flags(args);
  if (!flags.ok) return 2;
  if (!require_port(flags, "results")) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "results: exactly one job id expected\n");
    return 2;
  }
  const serve::Client client(flags.port, 30000, kCliRetry);
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
/// modes (the directory mode synthesizes generation-shaped records).
void print_event_line(const util::Json& event) {
  const std::string kind = json_text(event, "kind");
  const std::string scenario = json_text(event, "scenario");
  const std::string detail = json_text(event, "detail");
  // progress.jsonl records carry no "kind" — they are generation-shaped
  // by construction.
  if (kind == "generation" ||
      (kind.empty() && event.find("generation") != nullptr)) {
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
/// store, rendering records as they are flushed, until the manifest marks
/// the campaign complete.
int watch_dir(const std::string& dir) {
  scenario::ResultStore store(dir);
  if (!scenario::ResultStore::exists(store.root())) {
    std::fprintf(stderr, "%s: no campaign manifest (campaign.json)\n",
                 store.root().c_str());
    return 1;
  }
  std::printf("watching campaign at %s (ctrl-c to stop)\n",
              store.root().c_str());
  std::map<std::string, std::size_t> offsets;
  for (;;) {
    const scenario::CampaignManifest manifest = store.load_manifest();
    bool all_complete = true;
    for (const scenario::ScenarioStatus& status : manifest.scenarios) {
      if (!status.complete) all_complete = false;
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
          print_event_line(util::Json::parse(line));
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
  const ServeFlags flags = parse_serve_flags(args);
  if (!flags.ok) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr,
                 "watch: exactly one job id (with --port) or campaign "
                 "directory expected\n");
    return 2;
  }
  const std::string& target = flags.positional.front();
  if (!flags.have_port) {
    if (std::filesystem::is_directory(target)) return watch_dir(target);
    std::fprintf(stderr,
                 "watch: \"%s\" is not a campaign directory; to watch a "
                 "daemon job pass --port N\n",
                 target.c_str());
    return 2;
  }
  const serve::Client client(flags.port, 60000, kCliRetry);
  return watch_job(client, target);
}

int cmd_cancel(const std::vector<std::string>& args) {
  const ServeFlags flags = parse_serve_flags(args);
  if (!flags.ok) return 2;
  if (!require_port(flags, "cancel")) return 2;
  if (flags.positional.size() != 1) {
    std::fprintf(stderr, "cancel: exactly one job id expected\n");
    return 2;
  }
  const serve::Client client(flags.port, 30000, kCliRetry);
  const util::Json job = client.cancel(flags.positional.front());
  std::printf("job %s: %s\n", job.at("id").as_string().c_str(),
              job.at("state").as_string().c_str());
  return 0;
}

}  // namespace wsnex::cli
