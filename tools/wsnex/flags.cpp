#include "flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "scenario/registry.hpp"
#include "util/thread_pool.hpp"

namespace wsnex::cli {

namespace {

/// Strict non-negative integer flag value; rejects "-1", "abc", "3x".
/// On a malformed value both parsers print why to stderr and return
/// nullopt.
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

/// Strict finite positive real flag value; rejects "inf", "nan", "0".
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

}  // namespace

CommonFlags parse_flags(const std::vector<std::string>& args,
                        const char* command,
                        std::initializer_list<std::string_view> accepted) {
  CommonFlags flags;
  const auto accepts = [&](std::string_view flag) {
    return std::find(accepted.begin(), accepted.end(), flag) != accepted.end();
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.empty() || a[0] != '-') {
      flags.positional.push_back(a);
      continue;
    }
    const std::string flag = a == "--out" ? "-o" : a == "-p" ? "--port" : a;
    if (!accepts(flag)) {
      std::fprintf(stderr, "%s: unsupported option: %s\n", command, a.c_str());
      if (flag == "--threads" && (accepts("--jobs") || accepts("--slots"))) {
        // Name the flag that spreads this command over threads instead.
        const bool slots = accepts("--slots");
        std::fprintf(stderr,
                     "%s: each optimizer runs on one thread; %s N sets how "
                     "many %s run at once\n",
                     command, slots ? "--slots" : "--jobs",
                     slots                                  ? "job units"
                     : std::string_view(command) == "validate" ? "replicates"
                                                               : "scenarios");
      }
      flags.ok = false;
      continue;
    }
    // Each value reader consumes the next argument; a missing or malformed
    // value clears `ok`.
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        flags.ok = false;
        return std::nullopt;
      }
      return args[++i];
    };
    const auto text = [&](std::string& into) {
      if (const auto v = value()) into = *v;
    };
    const auto count = [&]() {
      std::optional<std::size_t> n;
      if (const auto v = value()) n = parse_count(*v, flag.c_str());
      if (!n) flags.ok = false;
      return n;
    };
    const auto real = [&]() {
      std::optional<double> x;
      if (const auto v = value()) x = parse_real(*v, flag.c_str());
      if (!x) flags.ok = false;
      return x;
    };
    if (flag == "-o") {
      text(flags.out_dir);
    } else if (flag == "--cache-dir") {
      text(flags.cache_dir);
    } else if (flag == "--trace") {
      text(flags.trace_path);
    } else if (flag == "--data") {
      text(flags.data_dir);
    } else if (flag == "--port-file") {
      text(flags.port_file);
    } else if (flag == "--id") {
      text(flags.id);
    } else if (flag == "--kind") {
      if (const auto v = value()) {
        if (*v == "campaign" || *v == "validation") {
          flags.kind = *v;
        } else {
          std::fprintf(stderr,
                       "--kind must be \"campaign\" or \"validation\"\n");
          flags.ok = false;
        }
      }
    } else if (flag == "--jobs") {
      // --jobs 0 means "one per hardware thread".
      if (const auto n = count()) {
        flags.jobs = util::resolve_threads(*n);
      }
    } else if (flag == "--abort-after") {
      flags.abort_after = count().value_or(0);
    } else if (flag == "--replicates") {
      flags.replicates = count();
      if (flags.replicates == 0u) {
        std::fprintf(stderr, "--replicates must be >= 1\n");
        flags.ok = false;
      }
    } else if (flag == "--seed") {
      flags.seed = count();
    } else if (flag == "--slots") {
      flags.slots = count().value_or(0);
    } else if (flag == "--max-queued") {
      flags.max_queued = count().value_or(flags.max_queued);
    } else if (flag == "--priority") {
      flags.priority = count().value_or(flags.priority);
    } else if (flag == "--port") {
      if (const auto n = count()) {
        if (*n > 65535) {
          std::fprintf(stderr, "--port must be <= 65535\n");
          flags.ok = false;
        } else {
          flags.port = static_cast<std::uint16_t>(*n);
        }
      }
    } else if (flag == "--duration") {
      flags.duration_s = real();
    } else if (flag == "--tolerance") {
      flags.tolerance_percent = real();
    } else if (flag == "--deadline") {
      flags.deadline_s = real();
    } else if (flag == "--quick") {
      flags.quick = true;
    } else if (flag == "--metrics") {
      flags.metrics = true;
    } else if (flag == "--convergence") {
      flags.convergence = true;
    } else if (flag == "--no-progress") {
      flags.no_progress = true;
    } else if (flag == "--validate") {
      flags.validate = true;
    } else if (flag == "--wait") {
      flags.wait = true;
    } else if (flag == "--json") {
      flags.as_json = true;
    } else if (flag == "--access-log") {
      flags.access_log = true;
    }
  }
  return flags;
}

scenario::ScenarioSpec load_spec_arg(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    return scenario::ScenarioSpec::from_file(arg);
  }
  if (arg.ends_with(".json")) {
    // Clearly meant as a file; a registry lookup error would mislead.
    throw scenario::ScenarioError("cannot open scenario file: " + arg);
  }
  return scenario::preset(arg);  // throws listing the known presets
}

}  // namespace wsnex::cli
