// JobScheduler behavior: weighted-round-robin fairness (pure allocator +
// claim-order integration), admission control, cancel idempotency,
// per-job failure isolation, concurrent same-spec jobs in isolated
// shards, drain/recover across scheduler generations, and the job.json
// write contract (admission and verdict only).
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/events.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

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

/// Looked up by name; the help text of the first registration is kept.
double metric(const char* name) {
  return util::metrics::Registry::instance().counter(name, "").value();
}

TEST(WeightedRoundRobin, EqualWeightsAlternate) {
  WeightedRoundRobin wrr;
  wrr.add("a", 1);
  wrr.add("b", 1);
  std::vector<std::string> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(wrr.pick());
  EXPECT_EQ(picks, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(WeightedRoundRobin, WeightTwoGetsTwoSlotsPerCycle) {
  WeightedRoundRobin wrr;
  wrr.add("a", 2);
  wrr.add("b", 1);
  std::vector<std::string> picks;
  for (int i = 0; i < 9; ++i) picks.push_back(wrr.pick());
  EXPECT_EQ(picks, (std::vector<std::string>{"a", "a", "b", "a", "a", "b",
                                             "a", "a", "b"}));
}

TEST(WeightedRoundRobin, RemoveMidCycleKeepsServingOthers) {
  WeightedRoundRobin wrr;
  wrr.add("a", 2);
  wrr.add("b", 1);
  wrr.add("c", 1);
  EXPECT_EQ(wrr.pick(), "a");  // a holds one more credit this cycle
  wrr.remove("a");
  std::vector<std::string> picks;
  for (int i = 0; i < 4; ++i) picks.push_back(wrr.pick());
  EXPECT_EQ(picks, (std::vector<std::string>{"b", "c", "b", "c"}));
  wrr.remove("b");
  wrr.remove("c");
  EXPECT_TRUE(wrr.empty());
  EXPECT_EQ(wrr.pick(), "");
}

TEST(WeightedRoundRobin, ReAddUpdatesWeightWithoutDuplicating) {
  WeightedRoundRobin wrr;
  wrr.add("a", 3);
  wrr.add("b", 1);
  wrr.add("a", 1);  // downgrade
  std::vector<std::string> picks;
  for (int i = 0; i < 4; ++i) picks.push_back(wrr.pick());
  EXPECT_EQ(picks, (std::vector<std::string>{"a", "b", "a", "b"}));
}

class SchedulerTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_serve_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  SchedulerOptions options(std::size_t slots = 1,
                           std::size_t max_queued = 64) const {
    SchedulerOptions o;
    o.data_dir = root_.string();
    o.slots = slots;
    o.threads = 1;
    o.max_queued_jobs = max_queued;
    return o;
  }

  /// A cheap validation job: replicated packet sims are the fastest real
  /// unit of work the scheduler can run (seconds of simulated time, not
  /// optimizer generations).
  static JobSpec validation_job(const std::string& id,
                                const std::vector<std::string>& presets,
                                std::size_t priority = 1) {
    JobSpec spec;
    spec.id = id;
    spec.kind = JobKind::kValidation;
    spec.priority = priority;
    for (const std::string& name : presets) {
      spec.scenarios.push_back(scenario::preset(name));
    }
    spec.validation.replicates = 1;
    spec.validation.duration_s = 2.0;
    return spec;
  }

  static JobProgress wait_terminal(const JobScheduler& scheduler,
                                   const std::string& id,
                                   int timeout_s = 120) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    for (;;) {
      const std::optional<JobProgress> progress = scheduler.status(id);
      EXPECT_TRUE(progress.has_value()) << id;
      if (!progress || is_terminal(progress->state)) {
        return progress.value_or(JobProgress{});
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "job " << id << " did not finish";
        return *progress;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
};

TEST_F(SchedulerTest, ClaimOrderFollowsWeightedRoundRobin) {
  JobScheduler scheduler(options(/*slots=*/1));
  // Submitted before start(): the single worker then claims the whole
  // backlog in deterministic WRR order.
  ASSERT_EQ(scheduler
                .submit(validation_job(
                    "heavy", {"hospital_ward_2", "hospital_ward_3",
                              "all_cs_6", "all_dwt_6"},
                    /*priority=*/2))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  ASSERT_EQ(scheduler
                .submit(validation_job(
                    "light", {"hospital_ward_2", "hospital_ward_3"},
                    /*priority=*/1))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "heavy").state, JobState::kComplete);
  EXPECT_EQ(wait_terminal(scheduler, "light").state, JobState::kComplete);

  const std::vector<std::string> expected{
      "heavy:hospital_ward_2", "heavy:hospital_ward_3",
      "light:hospital_ward_2", "heavy:all_cs_6",
      "heavy:all_dwt_6",       "light:hospital_ward_3",
  };
  EXPECT_EQ(scheduler.execution_log(), expected);
}

TEST_F(SchedulerTest, AdmissionControlRejectsPredictably) {
  JobScheduler scheduler(options(/*slots=*/1, /*max_queued=*/2));
  using Code = JobScheduler::Admission::Code;
  EXPECT_EQ(scheduler.submit(validation_job("a", {"hospital_ward_2"})).code,
            Code::kAccepted);
  EXPECT_EQ(scheduler.submit(validation_job("a", {"hospital_ward_2"})).code,
            Code::kDuplicate);
  EXPECT_EQ(scheduler.submit(validation_job("b", {"hospital_ward_2"})).code,
            Code::kAccepted);
  // Queue (2 non-terminal jobs) is full.
  const auto full = scheduler.submit(validation_job("c", {"hospital_ward_2"}));
  EXPECT_EQ(full.code, Code::kQueueFull);
  EXPECT_FALSE(full.message.empty());
  // Hostile ids never reach the filesystem.
  for (const std::string& bad : std::vector<std::string>{
           "../escape", "a/b", "", "ugly id", std::string(65, 'x'),
           ".hidden"}) {
    JobSpec spec = validation_job(bad, {"hospital_ward_2"});
    spec.id = bad;  // bypass the helper's sane default
    if (bad.empty()) continue;  // empty = auto-assign, valid by design
    EXPECT_EQ(scheduler.submit(spec).code, Code::kInvalid) << bad;
  }
  // Structurally invalid jobs.
  EXPECT_EQ(scheduler.submit(JobSpec{}).code, Code::kInvalid);
  JobSpec dup = validation_job("d", {"hospital_ward_2", "hospital_ward_2"});
  EXPECT_EQ(scheduler.submit(dup).code, Code::kInvalid);
  // Nothing about the rejections leaked onto disk as job shards.
  std::size_t shards = 0;
  for (const auto& entry : fs::directory_iterator(scheduler.jobs_dir())) {
    ++shards;
    EXPECT_TRUE(fs::exists(entry.path() / "job.json")) << entry.path();
  }
  EXPECT_EQ(shards, 2u);
}

TEST_F(SchedulerTest, AutoIdsAreAssignedAndUnique) {
  JobScheduler scheduler(options());
  JobSpec a = validation_job("", {"hospital_ward_2"});
  JobSpec b = validation_job("", {"hospital_ward_2"});
  const auto first = scheduler.submit(a);
  const auto second = scheduler.submit(b);
  EXPECT_EQ(first.id, "job-1");
  EXPECT_EQ(second.id, "job-2");
}

TEST_F(SchedulerTest, CancelIsIdempotentAndDropsQueuedWork) {
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler
                .submit(validation_job("victim", {"hospital_ward_2",
                                                  "hospital_ward_3"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  // Not started: cancellation settles immediately.
  const std::optional<JobProgress> first = scheduler.cancel("victim");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->state, JobState::kCancelled);
  const std::optional<JobProgress> second = scheduler.cancel("victim");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel("nobody").has_value());

  scheduler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(scheduler.execution_log().empty());  // nothing ever claimed
  // The cancelled state survives on disk.
  EXPECT_NE(read_file(fs::path(scheduler.shard_dir("victim")) / "job.json")
                .find("\"cancelled\""),
            std::string::npos);
}

TEST_F(SchedulerTest, FailedJobDoesNotPoisonOthers) {
  JobScheduler scheduler(options(/*slots=*/1));
  ASSERT_EQ(scheduler.submit(validation_job("doomed", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  ASSERT_EQ(scheduler.submit(validation_job("healthy", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  // Sabotage the doomed job's shard: with a regular file where its
  // results/ directory belongs, the unit cannot create its result
  // directory and fails.
  std::ofstream(fs::path(scheduler.shard_dir("doomed")) / "results") << "x";
  scheduler.start();
  const JobProgress doomed = wait_terminal(scheduler, "doomed");
  const JobProgress healthy = wait_terminal(scheduler, "healthy");
  EXPECT_EQ(doomed.state, JobState::kFailed);
  EXPECT_FALSE(doomed.error.empty());
  EXPECT_EQ(healthy.state, JobState::kComplete);
  EXPECT_EQ(healthy.error, "");
}

TEST_F(SchedulerTest, ConcurrentSameSpecJobsStayIsolatedAndDeterministic) {
  JobScheduler scheduler(options(/*slots=*/2));
  scheduler.start();  // live submissions this time
  const auto a = scheduler.submit(validation_job("twin-a", {"hospital_ward_2"}));
  const auto b = scheduler.submit(validation_job("twin-b", {"hospital_ward_2"}));
  ASSERT_EQ(a.code, JobScheduler::Admission::Code::kAccepted);
  ASSERT_EQ(b.code, JobScheduler::Admission::Code::kAccepted);
  EXPECT_EQ(wait_terminal(scheduler, "twin-a").state, JobState::kComplete);
  EXPECT_EQ(wait_terminal(scheduler, "twin-b").state, JobState::kComplete);

  const fs::path shard_a = scheduler.shard_dir("twin-a");
  const fs::path shard_b = scheduler.shard_dir("twin-b");
  ASSERT_NE(shard_a, shard_b);
  const fs::path rel =
      fs::path("results") / "hospital_ward_2" / "validation.json";
  const std::string report_a = read_file(shard_a / rel);
  const std::string report_b = read_file(shard_b / rel);
  EXPECT_FALSE(report_a.empty());
  // Same spec + same seed, concurrent writers to separate shards: results
  // must be byte-identical, proving neither interleaved into the other.
  EXPECT_EQ(report_a, report_b);
}

TEST_F(SchedulerTest, DrainThenRecoverResumesPendingJobs) {
  {
    JobScheduler first(options());
    ASSERT_EQ(first
                  .submit(validation_job("carryover", {"hospital_ward_2",
                                                       "hospital_ward_3"}))
                  .code,
              JobScheduler::Admission::Code::kAccepted);
    // Never started; its job.json stays the queued admission record.
    first.drain();
    EXPECT_EQ(first.submit(validation_job("late", {"hospital_ward_2"})).code,
              JobScheduler::Admission::Code::kStopping);
  }
  {
    JobScheduler second(options());
    EXPECT_EQ(second.recover(), 1u);
    second.start();
    const JobProgress done = wait_terminal(second, "carryover");
    EXPECT_EQ(done.state, JobState::kComplete);
    EXPECT_EQ(done.units_done, 2u);
  }
  {
    JobScheduler third(options());
    EXPECT_EQ(third.recover(), 0u);  // terminal: queryable, not re-enqueued
    const std::optional<JobProgress> progress = third.status("carryover");
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->state, JobState::kComplete);
    const std::optional<util::Json> results = third.results("carryover");
    ASSERT_TRUE(results.has_value());
    EXPECT_EQ(results->at("scenarios").as_array().size(), 2u);
    for (const util::Json& entry : results->at("scenarios").as_array()) {
      EXPECT_TRUE(entry.at("complete").as_bool());
      EXPECT_TRUE(entry.find("validation") != nullptr);
    }
  }
}

TEST_F(SchedulerTest, ResultsAndStatusReflectProgressCounters) {
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("counted", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  const std::optional<JobProgress> queued = scheduler.status("counted");
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->state, JobState::kQueued);
  EXPECT_EQ(queued->units_done, 0u);
  EXPECT_EQ(queued->units_total, 1u);
  EXPECT_EQ(scheduler.active_jobs(), 1u);
  scheduler.start();
  const JobProgress done = wait_terminal(scheduler, "counted");
  EXPECT_EQ(done.state, JobState::kComplete);
  EXPECT_EQ(done.units_done, 1u);
  EXPECT_EQ(scheduler.active_jobs(), 0u);
  EXPECT_EQ(scheduler.total_jobs(), 1u);
  EXPECT_FALSE(scheduler.status("missing").has_value());
  EXPECT_FALSE(scheduler.results("missing").has_value());
  EXPECT_EQ(scheduler.list().size(), 1u);
}

TEST_F(SchedulerTest, RecoverQuarantinesCorruptShardAndServesOn) {
  {
    JobScheduler first(options());
    ASSERT_EQ(first.submit(validation_job("good", {"hospital_ward_2"})).code,
              JobScheduler::Admission::Code::kAccepted);
    ASSERT_EQ(first.submit(validation_job("bad", {"hospital_ward_2"})).code,
              JobScheduler::Admission::Code::kAccepted);
    first.drain();
  }
  // A crash mid-write (pre-atomic-writer debris, bitrot, operator error):
  // the bad job's record is truncated JSON.
  const fs::path bad_shard = [&] {
    JobScheduler probe(options());
    return fs::path(probe.shard_dir("bad"));
  }();
  {
    std::ofstream out(bad_shard / "job.json",
                      std::ios::binary | std::ios::trunc);
    out << "{\"id\": \"bad\", \"kin";
  }

  JobScheduler second(options());
  EXPECT_EQ(second.recover(), 1u);  // only the healthy job re-enqueues
  // The corrupt shard was moved aside, not deleted — its artifacts stay
  // inspectable — and its id no longer resolves.
  EXPECT_FALSE(fs::exists(bad_shard));
  EXPECT_TRUE(fs::exists(bad_shard.string() + ".quarantined"));
  EXPECT_FALSE(second.status("bad").has_value());
  second.start();
  EXPECT_EQ(wait_terminal(second, "good").state, JobState::kComplete);

  // A third generation must not trip over (or re-quarantine) the moved
  // shard, and the freed id is submittable again.
  JobScheduler third(options());
  EXPECT_EQ(third.recover(), 0u);
  EXPECT_TRUE(fs::exists(bad_shard.string() + ".quarantined"));
  EXPECT_EQ(third.submit(validation_job("bad", {"hospital_ward_2"})).code,
            JobScheduler::Admission::Code::kAccepted);
}

TEST_F(SchedulerTest, RecoverSweepsTempDebrisFromShards) {
  {
    JobScheduler first(options());
    ASSERT_EQ(first
                  .submit(validation_job("dusty", {"hospital_ward_2"}))
                  .code,
              JobScheduler::Admission::Code::kAccepted);
    first.drain();
  }
  const fs::path shard = [&] {
    JobScheduler probe(options());
    return fs::path(probe.shard_dir("dusty"));
  }();
  const fs::path debris = shard / "campaign.json.tmp.140213834082624";
  {
    std::ofstream out(debris, std::ios::binary);
    out << "{ half a mani";
  }

  JobScheduler second(options());
  EXPECT_EQ(second.recover(), 1u);
  EXPECT_FALSE(fs::exists(debris));  // swept before anything read the shard
  second.start();
  EXPECT_EQ(wait_terminal(second, "dusty").state, JobState::kComplete);
}

TEST_F(SchedulerTest, ResultsAnswerEvenWhenArtifactsAreUnreadable) {
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("gappy", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  ASSERT_EQ(wait_terminal(scheduler, "gappy").state, JobState::kComplete);
  // Lose the manifest after completion: results() must degrade to an
  // error field in the body, not throw or wedge the daemon.
  fs::remove(fs::path(scheduler.shard_dir("gappy")) / "campaign.json");
  const std::optional<util::Json> results = scheduler.results("gappy");
  ASSERT_TRUE(results.has_value());
  const util::Json* error = results->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->as_string().find("results unreadable"), std::string::npos);
  // And the scheduler still serves other requests.
  EXPECT_EQ(scheduler.list().size(), 1u);
}

TEST_F(SchedulerTest, DeadlineExceededFailsTheJob) {
  JobScheduler scheduler(options());
  JobSpec spec =
      validation_job("rushed", {"hospital_ward_2", "hospital_ward_3"});
  // Far below any unit's runtime: a warm two-second single-replicate
  // validation finishes in a few milliseconds.
  spec.deadline_s = 1e-6;
  ASSERT_EQ(scheduler.submit(spec).code,
            JobScheduler::Admission::Code::kAccepted);
  ASSERT_EQ(scheduler.submit(validation_job("calm", {"hospital_ward_2"})).code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  const JobProgress rushed = wait_terminal(scheduler, "rushed");
  EXPECT_EQ(rushed.state, JobState::kFailed);
  EXPECT_NE(rushed.error.find("deadline"), std::string::npos) << rushed.error;
  // An undeadlined job sharing the scheduler is untouched.
  EXPECT_EQ(wait_terminal(scheduler, "calm").state, JobState::kComplete);
  // The verdict and the budget survive in the on-disk record.
  const std::string record =
      read_file(fs::path(scheduler.shard_dir("rushed")) / "job.json");
  EXPECT_NE(record.find("\"failed\""), std::string::npos);
  EXPECT_NE(record.find("deadline_s"), std::string::npos);
}

/// Disarms every failpoint when a test exits, pass or fail.
struct FailpointGuard {
  FailpointGuard() { util::failpoint::reset(); }
  ~FailpointGuard() { util::failpoint::reset(); }
};

TEST_F(SchedulerTest, TransientUnitFailureIsRetriedToSuccess) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  FailpointGuard guard;
  // First validation-report write fails with an injected I/O error; the
  // retry re-runs the unit and the second write goes through.
  util::failpoint::configure("result_store.validation=error(EIO)#1");
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("flaky", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  const JobProgress done = wait_terminal(scheduler, "flaky");
  EXPECT_EQ(done.state, JobState::kComplete);
  EXPECT_EQ(done.error, "");
  // The unit really ran twice.
  EXPECT_EQ(scheduler.execution_log(),
            (std::vector<std::string>{"flaky:hospital_ward_2",
                                      "flaky:hospital_ward_2"}));
}

TEST_F(SchedulerTest, EventRingRecordsTheWholeJobLifecycle) {
  JobScheduler scheduler(options());
  JobSpec spec;
  spec.id = "observed";
  spec.kind = JobKind::kCampaign;
  spec.quick = true;
  spec.scenarios.push_back(scenario::preset("hospital_ward_2"));
  ASSERT_EQ(scheduler.submit(spec, "req-abc").code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "observed").state, JobState::kComplete);

  EXPECT_EQ(scheduler.events("no-such-job"), nullptr);
  const auto ring = scheduler.events("observed");
  ASSERT_NE(ring, nullptr);
  std::vector<util::events::Event> events;
  std::uint64_t dropped = 1;
  ring->read_since(0, events, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_GE(events.size(), 5u);

  // Strictly monotone sequence, all stamped with the job id.
  std::uint64_t last_seq = 0;
  for (const auto& event : events) {
    EXPECT_GT(event.seq, last_seq);
    last_seq = event.seq;
    EXPECT_STREQ(event.job, "observed");
  }
  // The stream begins with admission (carrying the request id for access-
  // log correlation) and ends with the terminal state.
  EXPECT_EQ(events.front().kind, util::events::Kind::kJobQueued);
  EXPECT_STREQ(events.front().detail, "req=req-abc");
  EXPECT_EQ(events.back().kind, util::events::Kind::kJobFinished);
  EXPECT_STREQ(events.back().detail, "complete");
  // Start / unit lifecycle and optimizer generations appear in between.
  const auto count_kind = [&](util::events::Kind kind) {
    std::size_t n = 0;
    for (const auto& event : events) {
      if (event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_kind(util::events::Kind::kJobStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kUnitStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kUnitFinished), 1u);
  EXPECT_GE(count_kind(util::events::Kind::kGeneration), 8u);

  // The ring stays readable after the job is terminal (watch clients may
  // connect late), and the cursor resumes mid-stream without loss.
  std::vector<util::events::Event> tail;
  ring->read_since(events[2].seq, tail, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(tail.size(), events.size() - 3);
  EXPECT_EQ(tail.front().seq, events[3].seq);
}

TEST_F(SchedulerTest, FullBudgetMosaJobKeepsItsLifecycleInTheRing) {
  JobScheduler scheduler(options());
  JobSpec spec;
  spec.id = "annealed";
  spec.kind = JobKind::kCampaign;
  spec.scenarios.push_back(scenario::preset("relaxed_quality_mosa_6"));
  ASSERT_EQ(spec.scenarios.front().optimizer.iterations, 4000u);
  ASSERT_EQ(scheduler.submit(spec).code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "annealed").state, JobState::kComplete);

  // 4000 iterations publish 66 generation events, so a late replay from
  // the start of the 1024-slot ring still sees the whole lifecycle.
  const auto ring = scheduler.events("annealed");
  ASSERT_NE(ring, nullptr);
  std::vector<util::events::Event> events;
  std::uint64_t dropped = 1;
  ring->read_since(0, events, &dropped);
  EXPECT_EQ(dropped, 0u);
  const auto count_kind = [&](util::events::Kind kind) {
    std::size_t n = 0;
    for (const auto& event : events) {
      if (event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_kind(util::events::Kind::kJobQueued), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kJobStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kUnitStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kScenarioStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kGeneration), 66u);
  EXPECT_EQ(count_kind(util::events::Kind::kJobFinished), 1u);
}

// Twenty full-budget scenarios publish more generation events than the
// 1024-slot ring holds; a replay from the start loses only those, never a
// lifecycle event.
TEST_F(SchedulerTest, BigJobReplaysEveryLifecycleEvent) {
  JobScheduler scheduler(options());
  JobSpec spec;
  spec.id = "big";
  spec.kind = JobKind::kCampaign;
  for (int i = 0; i < 20; ++i) {
    scenario::ScenarioSpec ward = scenario::preset("hospital_ward_2");
    ward.name = "ward_" + std::to_string(i);
    spec.scenarios.push_back(std::move(ward));
  }
  ASSERT_EQ(scheduler.submit(spec).code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "big").state, JobState::kComplete);

  const auto ring = scheduler.events("big");
  ASSERT_NE(ring, nullptr);
  std::vector<util::events::Event> events;
  std::uint64_t dropped = 0;
  ring->read_since(0, events, &dropped);
  EXPECT_GT(dropped, 0u);
  const auto count_kind = [&](util::events::Kind kind) {
    std::size_t n = 0;
    for (const auto& event : events) {
      if (event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_kind(util::events::Kind::kJobQueued), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kJobStarted), 1u);
  EXPECT_EQ(count_kind(util::events::Kind::kUnitStarted), 20u);
  EXPECT_EQ(count_kind(util::events::Kind::kScenarioStarted), 20u);
  EXPECT_EQ(count_kind(util::events::Kind::kScenarioFinished), 20u);
  EXPECT_EQ(count_kind(util::events::Kind::kUnitFinished), 20u);
  EXPECT_EQ(count_kind(util::events::Kind::kJobFinished), 1u);
}

TEST_F(SchedulerTest, ThreadsAboveOneIsRefusedNamingSlots) {
  SchedulerOptions o = options();
  o.threads = 2;
  try {
    JobScheduler scheduler(o);
    ADD_FAILURE() << "threads = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("slots"), std::string::npos)
        << e.what();
  }
  // 0 and 1 both mean the slot's own thread.
  o.threads = 0;
  EXPECT_NO_THROW(JobScheduler{o});
}

// A client's inline spec, and so the shard's frozen spec, may still carry
// optimizer.threads from before it became a no-op; such a job recovers
// and completes with the archives a fresh run writes.
TEST_F(SchedulerTest, RecoveredJobWithThreadsInItsSpecCompletes) {
  scenario::ScenarioSpec inline_spec = scenario::preset("hospital_ward_2");
  inline_spec.optimizer.threads = 4;
  util::Json body = util::Json::object();
  body.set("id", std::string("legacy"));
  body.set("kind", std::string("campaign"));
  body.set("quick", util::Json(true));
  util::Json scenarios = util::Json::array();
  scenarios.push_back(inline_spec.to_json());
  body.set("scenarios", std::move(scenarios));
  const JobSpec spec = JobSpec::from_json(body);
  ASSERT_EQ(spec.scenarios.front().optimizer.threads, 4u);
  {
    JobScheduler first(options());
    ASSERT_EQ(first.submit(spec).code,
              JobScheduler::Admission::Code::kAccepted);
    first.drain();  // never started: job.json stays the admission record
  }
  JobScheduler second(options());
  EXPECT_EQ(second.recover(), 1u);
  second.start();
  EXPECT_EQ(wait_terminal(second, "legacy").state, JobState::kComplete);

  const fs::path shard = second.shard_dir("legacy");
  const scenario::ResultStore store(shard.string());
  EXPECT_EQ(store.load_spec("hospital_ward_2").optimizer.threads, 4u);
  scenario::CampaignOptions fresh;
  fresh.out_dir = (root_ / "fresh").string();
  fresh.quick = true;
  scenario::run_campaign({scenario::preset("hospital_ward_2")}, fresh);
  const scenario::ResultStore reference(fresh.out_dir);
  EXPECT_EQ(read_file(store.pareto_csv_path("hospital_ward_2")),
            read_file(reference.pareto_csv_path("hospital_ward_2")));
  EXPECT_EQ(read_file(store.feasible_csv_path("hospital_ward_2")),
            read_file(reference.feasible_csv_path("hospital_ward_2")));
}

// Threads of this process, or nullopt where /proc/self/task is absent.
std::optional<std::size_t> process_threads() {
  std::error_code ec;
  fs::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::size_t count = 0;
  for (; it != fs::directory_iterator(); it.increment(ec)) ++count;
  return count;
}

TEST_F(SchedulerTest, ConstructionStartsNoThread) {
  const std::optional<std::size_t> before = process_threads();
  if (!before) GTEST_SKIP() << "/proc/self/task is not available";
  JobScheduler scheduler(options(/*slots=*/4));
  EXPECT_EQ(process_threads(), before);
  scheduler.start();  // 4 slot workers and the deadline watchdog
  EXPECT_EQ(process_threads(), *before + 5);
}

// A submit stalled in its fsync'd job.json write holds no lock that
// status, list or results of another job need.
TEST_F(SchedulerTest, StalledSubmitDoesNotBlockReaders) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  FailpointGuard guard;
  util::failpoint::configure("serve.job_record=sleep(500)#2");
  JobScheduler scheduler(options());  // never started: nothing else runs
  ASSERT_EQ(scheduler.submit(validation_job("first", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  std::thread second([&] {
    EXPECT_EQ(scheduler.submit(validation_job("second", {"hospital_ward_2"}))
                  .code,
              JobScheduler::Admission::Code::kAccepted);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (util::failpoint::hits("serve.job_record") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(util::failpoint::hits("serve.job_record"), 2u);
  const auto elapsed_ms = [](const auto& call) {
    const auto start = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  EXPECT_LT(elapsed_ms([&] { EXPECT_TRUE(scheduler.status("first")); }),
            250.0);
  EXPECT_LT(elapsed_ms([&] { EXPECT_FALSE(scheduler.list().empty()); }),
            250.0);
  EXPECT_LT(elapsed_ms([&] { EXPECT_TRUE(scheduler.results("first")); }),
            250.0);
  second.join();
  EXPECT_EQ(scheduler.total_jobs(), 2u);
}

// A cancel stalled in its fsync'd job.json write holds no lock that
// status, list or results of another job need.
TEST_F(SchedulerTest, StalledCancelDoesNotBlockReaders) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  FailpointGuard guard;
  // Never started: no unit is in flight, so the cancel finalizes the job
  // and writes its terminal job.json itself.
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("doomed", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  ASSERT_EQ(scheduler.submit(validation_job("other", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  util::failpoint::configure("serve.job_record=sleep(500)#1");
  std::thread canceller([&] { EXPECT_TRUE(scheduler.cancel("doomed")); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (util::failpoint::hits("serve.job_record") < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(util::failpoint::hits("serve.job_record"), 3u);
  const auto elapsed_ms = [](const auto& call) {
    const auto start = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  EXPECT_LT(elapsed_ms([&] { EXPECT_TRUE(scheduler.status("other")); }),
            250.0);
  EXPECT_LT(elapsed_ms([&] { EXPECT_FALSE(scheduler.list().empty()); }),
            250.0);
  EXPECT_LT(elapsed_ms([&] { EXPECT_TRUE(scheduler.results("other")); }),
            250.0);
  canceller.join();
  EXPECT_EQ(scheduler.status("doomed")->state, JobState::kCancelled);
}

TEST_F(SchedulerTest, ExhaustedTransientRetriesFailTheJob) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  FailpointGuard guard;
  // Every write fails: the single default retry burns out and the job
  // fails with the injected error, after exactly 1 + unit_retries runs.
  util::failpoint::configure("result_store.validation=error(ENOSPC)");
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("doomed", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  const JobProgress done = wait_terminal(scheduler, "doomed");
  EXPECT_EQ(done.state, JobState::kFailed);
  EXPECT_NE(done.error.find("injected"), std::string::npos) << done.error;
  EXPECT_EQ(scheduler.execution_log().size(), 2u);
}

// A unit's completion trips the deadline while its sibling still runs;
// the watchdog then fails the job without counting the deadline again.
TEST_F(SchedulerTest, DeadlineTrippedByAUnitIsCountedOnce) {
  if (!util::failpoint::compiled_in()) {
    GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  }
  FailpointGuard guard;
  // The second unit's report write stalls across several watchdog polls.
  util::failpoint::configure("result_store.validation=sleep(800)#2");
  const double before = metric("wsnex_serve_deadline_exceeded_total");
  JobScheduler scheduler(options(/*slots=*/2));
  JobSpec spec =
      validation_job("rushed", {"hospital_ward_2", "hospital_ward_3"});
  spec.deadline_s = 1e-6;
  ASSERT_EQ(scheduler.submit(spec).code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "rushed").state, JobState::kFailed);
  scheduler.drain();  // the stalled unit lands on the failed job
  EXPECT_EQ(util::failpoint::hits("result_store.validation"), 2u);

  std::vector<util::events::Event> events;
  scheduler.events("rushed")->read_since(0, events, nullptr);
  std::size_t deadlines = 0;
  std::vector<std::string> finished;
  for (const util::events::Event& event : events) {
    if (event.kind == util::events::Kind::kDeadlineExceeded) ++deadlines;
    if (event.kind == util::events::Kind::kJobFinished) {
      finished.emplace_back(event.detail);
    }
  }
  EXPECT_EQ(deadlines, 1u);
  EXPECT_EQ(finished, std::vector<std::string>{"failed"});
  EXPECT_EQ(metric("wsnex_serve_deadline_exceeded_total") - before, 1.0);
}

// job.json is written at admission and at the verdict, nowhere else: 4
// fsyncs of store init (the frozen spec, scenarios/ and 2 for the
// campaign.json header), 2 for the admission record, 4 for
// validation.json and summary.json, and 2 for the verdict.
TEST_F(SchedulerTest, OneUnitJobIssuesTwelveFsyncs) {
  const double before = metric("wsnex_fsyncs_total");
  JobScheduler scheduler(options());
  ASSERT_EQ(scheduler.submit(validation_job("counted", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  scheduler.start();
  EXPECT_EQ(wait_terminal(scheduler, "counted").state, JobState::kComplete);
  scheduler.drain();  // the verdict write has landed
  EXPECT_EQ(metric("wsnex_fsyncs_total") - before, 12.0);
}

// A drained job's job.json is its admission record, untouched: recover()
// re-enqueues any non-terminal record, so drain has nothing to write.
TEST_F(SchedulerTest, DrainWritesNoRecord) {
  JobScheduler scheduler(options());  // never started
  ASSERT_EQ(scheduler.submit(validation_job("parked", {"hospital_ward_2"}))
                .code,
            JobScheduler::Admission::Code::kAccepted);
  const fs::path record = fs::path(scheduler.shard_dir("parked")) / "job.json";
  const std::string admitted = read_file(record);
  const double before = metric("wsnex_fsyncs_total");
  scheduler.drain();
  EXPECT_EQ(metric("wsnex_fsyncs_total") - before, 0.0);
  EXPECT_EQ(read_file(record), admitted);
}

// Older daemons rewrote job.json to "running" at a job's first claim; such
// a record still loads, re-enqueues and runs to its verdict.
TEST_F(SchedulerTest, RecoverRunsARecordLeftRunning) {
  fs::path record;
  {
    JobScheduler first(options());
    ASSERT_EQ(first
                  .submit(validation_job("legacy", {"hospital_ward_2",
                                                    "hospital_ward_3"}))
                  .code,
              JobScheduler::Admission::Code::kAccepted);
    first.drain();
    record = fs::path(first.shard_dir("legacy")) / "job.json";
  }
  util::Json json = util::Json::parse(read_file(record));
  json.set("state", "running");
  {
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out << json.dump(2) << "\n";
  }
  {
    JobScheduler second(options());
    EXPECT_EQ(second.recover(), 1u);
    EXPECT_EQ(second.status("legacy")->state, JobState::kQueued);
    second.start();
    const JobProgress done = wait_terminal(second, "legacy");
    EXPECT_EQ(done.state, JobState::kComplete);
    EXPECT_EQ(done.units_done, 2u);
    second.drain();
  }
  EXPECT_EQ(JobRecord::from_json(util::Json::parse(read_file(record))).state,
            JobState::kComplete);
}

}  // namespace
}  // namespace wsnex::serve
