// Daemon lifecycle end to end, against the real `wsnex` binary: an
// ephemeral-port service taking concurrent jobs from parallel clients,
// then killed mid-job — gracefully (SIGTERM drain) and brutally
// (SIGKILL) — and restarted. The recovery contract is exact: a resumed
// store's result files are byte-identical to an uninterrupted run's.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/result_store.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"

namespace wsnex::serve {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One `wsnex serve` process. The destructor SIGKILLs anything still
/// alive so a failing assertion can't leak daemons into the test runner.
class ServeDaemon {
 public:
  explicit ServeDaemon(fs::path data_dir) : data_dir_(std::move(data_dir)) {}
  ~ServeDaemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  void start() {
    const fs::path port_file = data_dir_ / "port.txt";
    std::error_code ec;
    fs::remove(port_file, ec);
    fs::create_directories(data_dir_);
    const fs::path log = data_dir_ / "daemon.log";

    pid_ = ::fork();
    ASSERT_NE(pid_, -1);
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execl(WSNEX_BIN, WSNEX_BIN, "serve", "--port", "0", "--data",
              data_dir_.c_str(), "--port-file", port_file.c_str(), "--slots",
              "1", static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }

    // The daemon writes the port file only after recover() + start(), so
    // its appearance doubles as the readiness signal.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!fs::exists(port_file) || fs::file_size(port_file) == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "daemon never became ready; log:\n"
          << (fs::exists(log) ? read_file(log) : std::string("<none>"));
      ASSERT_FALSE(exited()) << "daemon died on startup; log:\n"
                             << read_file(log);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    port_ = static_cast<std::uint16_t>(std::stoi(read_file(port_file)));
    ASSERT_GT(port_, 0);
  }

  std::uint16_t port() const { return port_; }

  /// SIGTERM and wait for a clean exit (the drain path).
  void stop_graceful() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGTERM), 0);
    const int status = wait_exit(60);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "daemon exit status " << status << "; log:\n"
        << read_file(data_dir_ / "daemon.log");
  }

  /// SIGKILL: no drain, no checkpointing beyond what is already on disk.
  void kill_hard() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGKILL), 0);
    wait_exit(30);
  }

 private:
  bool exited() {
    int status = 0;
    return ::waitpid(pid_, &status, WNOHANG) == pid_ &&
           (pid_ = -1, true);  // reaped; disarm the destructor
  }

  int wait_exit(int timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "daemon did not exit in " << timeout_s << "s";
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    pid_ = -1;
    return status;
  }

  fs::path data_dir_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

util::Json campaign_job(const std::string& id) {
  util::Json job = util::Json::object();
  job.set("id", id);
  job.set("kind", "campaign");
  job.set("quick", true);
  util::Json scenarios = util::Json::array();
  scenarios.push_back(util::Json("hospital_ward_2"));
  scenarios.push_back(util::Json("hospital_ward_3"));
  job.set("scenarios", std::move(scenarios));
  return job;
}

util::Json validation_job(const std::string& id) {
  util::Json job = util::Json::object();
  job.set("id", id);
  job.set("kind", "validation");
  util::Json scenarios = util::Json::array();
  scenarios.push_back(util::Json("hospital_ward_2"));
  scenarios.push_back(util::Json("hospital_ward_3"));
  job.set("scenarios", std::move(scenarios));
  job.set("replicates", std::size_t{2});
  job.set("duration_s", 2.0);
  return job;
}

/// Blocks until the daemon reports `units_done >= target` for the job.
void wait_units(const Client& client, const std::string& id,
                std::int64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  for (;;) {
    const util::Json status = client.status(id);
    if (status.at("units_done").as_int64() >= target) return;
    const std::string state = status.at("state").as_string();
    ASSERT_FALSE(state == "failed" || state == "cancelled")
        << id << " reached " << state << ": "
        << status.dump();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << id;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// The deterministic result bytes of a job shard: every file under
/// results/, minus summary.json and progress.jsonl (both record wallclock —
/// the convergence history is telemetry, excluded from the byte-identity
/// contract like the summary).
std::vector<std::pair<std::string, std::string>> result_bytes(
    const fs::path& shard) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(shard / "results")) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == "summary.json") continue;
    if (entry.path().filename() == "progress.jsonl") continue;
    files.emplace_back(fs::relative(entry.path(), shard).string(),
                       read_file(entry.path()));
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << shard;
  return files;
}

void expect_identical_results(const fs::path& shard_a, const fs::path& shard_b) {
  const auto a = result_bytes(shard_a);
  const auto b = result_bytes(shard_b);
  ASSERT_EQ(a.size(), b.size()) << shard_a << " vs " << shard_b;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second)
        << a[i].first << " differs between " << shard_a << " and " << shard_b;
  }
}

class ServeE2eTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_e2e_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }
};

TEST_F(ServeE2eTest, ConcurrentClientsGetIsolatedJobs) {
  ServeDaemon daemon(root_ / "data");
  daemon.start();
  const std::uint16_t port = daemon.port();

  // Two clients race their submissions from separate threads: a quick
  // campaign and a validation sweep, multiplexed on the daemon's single
  // slot, each isolated in its own shard.
  std::vector<std::thread> clients;
  clients.emplace_back([port] {
    const Client client(port);
    client.submit(campaign_job("explore"));
    const util::Json done = client.wait("explore");
    EXPECT_EQ(done.at("state").as_string(), "complete");
    EXPECT_EQ(done.at("units_done").as_int64(), 2);
  });
  clients.emplace_back([port] {
    const Client client(port);
    client.submit(validation_job("check"));
    const util::Json done = client.wait("check");
    EXPECT_EQ(done.at("state").as_string(), "complete");
    EXPECT_EQ(done.at("units_done").as_int64(), 2);
  });
  for (std::thread& t : clients) t.join();

  const Client client(port);
  const util::Json explore = client.results("explore");
  const util::Json check = client.results("check");
  for (const util::Json& entry : explore.at("scenarios").as_array()) {
    EXPECT_TRUE(entry.at("complete").as_bool());
    EXPECT_TRUE(entry.find("summary") != nullptr);     // campaign payload
    EXPECT_TRUE(entry.find("validation") == nullptr);  // not cross-wired
  }
  for (const util::Json& entry : check.at("scenarios").as_array()) {
    EXPECT_TRUE(entry.at("complete").as_bool());
    EXPECT_TRUE(entry.find("validation") != nullptr);
  }
  EXPECT_EQ(client.health().at("active_jobs").as_int64(), 0);
  daemon.stop_graceful();
}

TEST_F(ServeE2eTest, KilledDaemonsResumeToByteIdenticalResults) {
  // Reference: the same job pair, run start to finish undisturbed.
  const fs::path ref_dir = root_ / "ref";
  {
    ServeDaemon daemon(ref_dir);
    daemon.start();
    const Client client(daemon.port());
    client.submit(campaign_job("job-c"));
    client.submit(validation_job("job-v"));
    EXPECT_EQ(client.wait("job-c").at("state").as_string(), "complete");
    EXPECT_EQ(client.wait("job-v").at("state").as_string(), "complete");
    daemon.stop_graceful();
  }

  // SIGTERM leg: kill after the first campaign unit lands, restart, let
  // the drained checkpoint carry the rest.
  const fs::path term_dir = root_ / "term";
  {
    ServeDaemon daemon(term_dir);
    daemon.start();
    const Client client(daemon.port());
    client.submit(campaign_job("job-c"));
    client.submit(validation_job("job-v"));
    wait_units(client, "job-c", 1);
    daemon.stop_graceful();  // drain: in-flight unit finishes, rest waits
  }
  {
    ServeDaemon daemon(term_dir);
    daemon.start();
    const Client client(daemon.port());
    EXPECT_EQ(client.wait("job-c").at("state").as_string(), "complete");
    EXPECT_EQ(client.wait("job-v").at("state").as_string(), "complete");
    daemon.stop_graceful();
  }

  // SIGKILL leg: no drain at all; recovery leans purely on the on-disk
  // crash protocol (job.json after store init, results before manifest).
  const fs::path kill_dir = root_ / "kill";
  {
    ServeDaemon daemon(kill_dir);
    daemon.start();
    const Client client(daemon.port());
    client.submit(campaign_job("job-c"));
    client.submit(validation_job("job-v"));
    wait_units(client, "job-c", 1);
    daemon.kill_hard();
  }
  {
    ServeDaemon daemon(kill_dir);
    daemon.start();
    const Client client(daemon.port());
    EXPECT_EQ(client.wait("job-c").at("state").as_string(), "complete");
    EXPECT_EQ(client.wait("job-v").at("state").as_string(), "complete");
    daemon.stop_graceful();
  }

  for (const char* job : {"job-c", "job-v"}) {
    expect_identical_results(ref_dir / "jobs" / job, term_dir / "jobs" / job);
    expect_identical_results(ref_dir / "jobs" / job, kill_dir / "jobs" / job);
  }
}

/// Runs `wsnex args...` with its output discarded and returns its exit
/// code, or -1 when it had to be killed after `timeout_s`.
/// Runs `wsnex args...` and returns its exit code (-1 on a timeout or a
/// signal). Standard error goes to `stderr_path` when one is given.
int run_wsnex(const std::vector<std::string>& args, int timeout_s,
              const fs::path& stderr_path = {}) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) {
      ::dup2(null, STDOUT_FILENO);
      ::dup2(null, STDERR_FILENO);
    }
    if (!stderr_path.empty()) {
      const int err =
          ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
    }
    std::vector<char*> argv{const_cast<char*>(WSNEX_BIN)};
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(WSNEX_BIN, argv.data());
    _exit(127);  // exec failed
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Every serve-layer verb exits 2 on a flag it does not honour, before it
// boots a daemon (which would run until killed) or connects (nothing
// listens on port 1, so a verb that got that far exits 1). So do the
// local `version` and `list`, which once ignored it and exited 0, and
// `check`, which once opened it as a spec path and exited 1.
TEST_F(ServeE2eTest, VerbsRejectFlagsTheyDoNotHonour) {
  fs::create_directories(root_);
  const std::vector<std::vector<std::string>> cases = {
      {"serve", "--data", (root_ / "data").string(), "--wait", "--priority",
       "3"},
      {"submit", "--port", "1", "hospital_ward_2", "--slots", "4"},
      {"status", "--port", "1", "--quick"},
      {"results", "--port", "1", "job-1", "--json"},
      {"cancel", "--port", "1", "job-1", "--id", "job-2"},
      {"watch", root_.string(), "--slots", "4"},
      {"version", "--bogus"},
      {"list", "--bogus"},
      {"check", "hospital_ward_2", "--bogus"},
  };
  for (const std::vector<std::string>& args : cases) {
    EXPECT_EQ(run_wsnex(args, 10), 2) << args.front();
  }
  // Each optimizer runs on one thread, so run, resume and serve reject
  // --threads with a message naming the flag that runs independent units
  // concurrently, before they write anything.
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      retired = {
          {{"run", "hospital_ward_2", "--quick", "-o",
            (root_ / "never").string(), "--threads", "2"},
           "--jobs"},
          {{"resume", (root_ / "never").string(), "--threads", "2"}, "--jobs"},
          {{"serve", "--data", (root_ / "data").string(), "--threads", "2"},
           "--slots"},
      };
  const fs::path err = root_ / "stderr.txt";
  for (const auto& [args, replacement] : retired) {
    EXPECT_EQ(run_wsnex(args, 10, err), 2) << args.front();
    EXPECT_NE(read_file(err).find(replacement), std::string::npos)
        << args.front() << ": " << read_file(err);
  }
  EXPECT_FALSE(fs::exists(root_ / "never"));
}

// A full disk under an archive fails the scenario instead of marking it
// complete: the CSV writer's close() reports the lost bytes before the
// summary and the manifest are written, so `resume` exits non-zero, the
// scenario stays pending, and a resume on a healthy disk writes the
// archives an uninterrupted run writes.
TEST_F(ServeE2eTest, FullDiskArchiveLeavesScenarioPending) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  const fs::path full = root_ / "full";
  const fs::path interrupted = root_ / "interrupted";
  ASSERT_EQ(run_wsnex({"run", "hospital_ward_2", "hospital_ward_3", "--quick",
                       "-o", full.string()},
                      120),
            0);
  ASSERT_EQ(run_wsnex({"run", "hospital_ward_2", "hospital_ward_3", "--quick",
                       "-o", interrupted.string(), "--abort-after", "1"},
                      120),
            3);
  const fs::path pareto =
      interrupted / "results" / "hospital_ward_3" / "pareto.csv";
  fs::create_directories(pareto.parent_path());
  fs::create_symlink("/dev/full", pareto);

  EXPECT_NE(run_wsnex({"resume", interrupted.string()}, 120), 0);
  const scenario::CampaignManifest manifest =
      scenario::ResultStore(interrupted.string()).load_manifest();
  ASSERT_EQ(manifest.scenarios.size(), 2u);
  EXPECT_TRUE(manifest.scenarios[0].complete);
  EXPECT_FALSE(manifest.scenarios[1].complete);
  EXPECT_FALSE(fs::exists(pareto.parent_path() / "summary.json"));

  fs::remove(pareto);
  ASSERT_EQ(run_wsnex({"resume", interrupted.string()}, 120), 0);
  expect_identical_results(full, interrupted);
}

}  // namespace
}  // namespace wsnex::serve
