#include "util/failpoint.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace wsnex::util::failpoint {

namespace {

#if defined(WSNEX_FAILPOINTS_ENABLED)

/// One armed site: the base action plus its trigger selector.
struct Arm {
  ActionKind kind = ActionKind::kNone;
  int error_errno = 0;
  std::size_t torn_bytes = 0;
  int sleep_ms = 0;
  bool crash = false;
  std::size_t only_hit = 0;  ///< trigger only on this evaluation (0 = every)
  std::size_t evaluations = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Arm> arms;
  std::map<std::string, std::size_t> hit_counts;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: usable at exit
  return *instance;
}

int errno_from_name(const std::string& name) {
  static const std::map<std::string, int> known = {
      {"EACCES", EACCES},   {"EAGAIN", EAGAIN},
      {"EBADF", EBADF},     {"ECONNREFUSED", ECONNREFUSED},
      {"ECONNRESET", ECONNRESET},
      {"EDQUOT", EDQUOT},   {"EEXIST", EEXIST},
      {"EINTR", EINTR},     {"EINVAL", EINVAL},
      {"EIO", EIO},         {"EISDIR", EISDIR},
      {"EMFILE", EMFILE},   {"ENFILE", ENFILE},
      {"ENOENT", ENOENT},   {"ENOSPC", ENOSPC},
      {"ENOTDIR", ENOTDIR}, {"EPIPE", EPIPE},
      {"EROFS", EROFS},     {"ETIMEDOUT", ETIMEDOUT},
      {"EXDEV", EXDEV}};
  const auto it = known.find(name);
  if (it != known.end()) return it->second;
  if (!name.empty() &&
      name.find_first_not_of("0123456789") == std::string::npos) {
    return std::stoi(name);
  }
  throw std::invalid_argument("failpoint: unknown errno \"" + name +
                              "\" (use a symbolic name like ENOSPC or a "
                              "decimal number)");
}

std::size_t parse_count(const std::string& text, const char* what) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(std::string("failpoint: ") + what +
                                " must be a non-negative integer, got \"" +
                                text + "\"");
  }
  return static_cast<std::size_t>(std::stoull(text));
}

/// Parses one action string ("error(ENOSPC)#2") into an Arm.
Arm parse_action(const std::string& site, const std::string& text) {
  Arm arm;
  std::size_t pos = 0;
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("failpoint " + site + ": " + why + " in \"" +
                                text + "\"");
  };

  if (text.rfind("error(", 0) == 0) {
    const std::size_t close = text.find(')', 6);
    if (close == std::string::npos) fail("unterminated error(...)");
    arm.kind = ActionKind::kError;
    arm.error_errno = errno_from_name(text.substr(6, close - 6));
    pos = close + 1;
  } else if (text.rfind("torn@", 0) == 0) {
    std::size_t end = 5;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                    text[end])) != 0) {
      ++end;
    }
    arm.kind = ActionKind::kTorn;
    arm.torn_bytes = parse_count(text.substr(5, end - 5), "torn byte count");
    pos = end;
  } else if (text.rfind("crash", 0) == 0) {
    arm.crash = true;
    pos = 5;
  } else if (text.rfind("sleep(", 0) == 0) {
    const std::size_t close = text.find(')', 6);
    if (close == std::string::npos) fail("unterminated sleep(...)");
    arm.sleep_ms = static_cast<int>(
        parse_count(text.substr(6, close - 6), "sleep milliseconds"));
    pos = close + 1;
  } else if (text == "off") {
    return arm;  // kNone, no crash/sleep: explicit disarm
  } else {
    fail("unknown mode (expected error(...), torn@N, crash, sleep(MS) "
         "or off)");
  }

  if (pos < text.size() && text[pos] == '#') {
    arm.only_hit = parse_count(text.substr(pos + 1), "#K selector");
    if (arm.only_hit == 0) fail("#K selector must be >= 1");
  } else if (pos < text.size()) {
    fail("unexpected trailing characters");
  }
  return arm;
}

void configure_locked(Registry& reg, const std::string& spec) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "failpoint: entries must be site=action, got \"" + entry + "\"");
    }
    const std::string site = entry.substr(0, eq);
    Arm arm = parse_action(site, entry.substr(eq + 1));
    if (arm.kind == ActionKind::kNone && !arm.crash && arm.sleep_ms == 0) {
      reg.arms.erase(site);  // "off"
    } else {
      reg.arms[site] = std::move(arm);
    }
  }
}

void load_env_once(Registry& reg) {
  static bool loaded = false;  // guarded by reg.mutex
  if (loaded) return;
  loaded = true;
  const char* env = std::getenv("WSNEX_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  configure_locked(reg, env);
  WSNEX_WARN() << "failpoints armed from WSNEX_FAILPOINTS: " << env;
}

util::metrics::Counter& trigger_counter(const std::string& site) {
  return util::metrics::Registry::instance().counter(
      "wsnex_failpoint_triggers_total",
      "Injected faults by failpoint site", "site=\"" + site + "\"");
}

#endif  // WSNEX_FAILPOINTS_ENABLED

}  // namespace

#if defined(WSNEX_FAILPOINTS_ENABLED)

Action evaluate(const char* site) {
  Registry& reg = registry();
  int sleep_ms = 0;
  Action action;
  bool crash = false;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    load_env_once(reg);
    ++reg.hit_counts[site];
    const auto it = reg.arms.find(site);
    if (it == reg.arms.end()) return {};
    Arm& arm = it->second;
    ++arm.evaluations;
    if (arm.only_hit != 0 && arm.evaluations != arm.only_hit) return {};
    action.kind = arm.kind;
    action.error_errno = arm.error_errno;
    action.torn_bytes = arm.torn_bytes;
    sleep_ms = arm.sleep_ms;
    crash = arm.crash;
  }
  trigger_counter(site).inc();
  if (crash) {
    // Simulated SIGKILL: no atexit handlers, no stream flushing beyond
    // stderr — the persist protocol must survive exactly this.
    std::fprintf(stderr, "[failpoint] %s: crashing (exit %d)\n", site,
                 kCrashExitCode);
    std::fflush(stderr);
    std::_Exit(kCrashExitCode);
  }
  WSNEX_WARN() << "failpoint " << site << " triggered"
               << (action.kind == ActionKind::kError
                       ? std::string(": error ") +
                             std::strerror(action.error_errno)
                   : action.kind == ActionKind::kTorn
                       ? ": torn write @" + std::to_string(action.torn_bytes)
                       : std::string())
               << (sleep_ms > 0 ? " (sleep " + std::to_string(sleep_ms) + "ms)"
                                : std::string());
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return action;
}

void configure(const std::string& spec) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  load_env_once(reg);
  configure_locked(reg, spec);
}

void configure_from_env() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  load_env_once(reg);
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  load_env_once(reg);  // mark the env consumed so reset() really disarms
  reg.arms.clear();
  reg.hit_counts.clear();
}

std::size_t hits(const std::string& site) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.hit_counts.find(site);
  return it == reg.hit_counts.end() ? 0 : it->second;
}

#else  // compiled out

void configure(const std::string& spec) {
  if (spec.empty()) return;
  static std::once_flag warned;
  std::call_once(warned, [&] {
    WSNEX_WARN() << "failpoints requested (\"" << spec
                 << "\") but this binary was built without "
                    "-DWSNEX_FAILPOINTS=ON; nothing is armed";
  });
}

void configure_from_env() {
  const char* env = std::getenv("WSNEX_FAILPOINTS");
  if (env != nullptr && *env != '\0') configure(env);
}

#endif

}  // namespace wsnex::util::failpoint
