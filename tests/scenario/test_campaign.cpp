// Campaign runner + result store integration: end-to-end runs over real
// presets (quick budgets), persistence layout, checkpoint/resume with
// bit-identical archives, campaign.json as a header written once, format-1
// headers, and store corruption handling.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "event_json_reference.hpp"
#include "scenario/registry.hpp"
#include "util/events.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace wsnex::scenario {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CampaignTest : public ::testing::Test {
 protected:
  // Unique per test case, so concurrently running ctest shards never
  // share a campaign directory.
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_campaign_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  std::string dir(const std::string& leaf) const {
    return (root_ / leaf).string();
  }

  static std::vector<ScenarioSpec> small_campaign() {
    return {preset("hospital_ward_2"), preset("hospital_ward_3"),
            preset("all_cs_6")};
  }

  static CampaignOptions options(const std::string& out_dir) {
    CampaignOptions o;
    o.out_dir = out_dir;
    o.quick = true;
    return o;
  }

  /// Both archives of every spec match between two stores byte for byte.
  static void expect_same_archives(const std::vector<ScenarioSpec>& specs,
                                   const std::string& a_dir,
                                   const std::string& b_dir) {
    ResultStore a(a_dir), b(b_dir);
    for (const auto& spec : specs) {
      EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
                read_file(b.pareto_csv_path(spec.name)))
          << spec.name;
      EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
                read_file(b.feasible_csv_path(spec.name)))
          << spec.name;
    }
  }
};

TEST_F(CampaignTest, RunProducesStoreLayoutAndReport) {
  const auto specs = small_campaign();
  std::vector<std::string> seen;
  const CampaignReport report =
      run_campaign(specs, options(dir("a")),
                   [&](const CampaignOutcome& o) { seen.push_back(o.name); });

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.executed, 3u);
  EXPECT_EQ(report.skipped, 0u);
  // At jobs 1 progress reports arrive in spec order.
  EXPECT_EQ(seen, (std::vector<std::string>{"hospital_ward_2",
                                            "hospital_ward_3", "all_cs_6"}));

  ResultStore store(dir("a"));
  ASSERT_TRUE(ResultStore::exists(store.root()));
  const CampaignManifest manifest = store.load_manifest();
  EXPECT_TRUE(manifest.quick);
  ASSERT_EQ(manifest.scenarios.size(), 3u);
  for (const auto& status : manifest.scenarios) {
    EXPECT_TRUE(status.complete);
    EXPECT_GT(status.evaluations, 0u);
    EXPECT_GT(status.front_size, 0u);
    EXPECT_TRUE(fs::exists(store.pareto_csv_path(status.name)));
    EXPECT_TRUE(fs::exists(store.feasible_csv_path(status.name)));
    EXPECT_TRUE(fs::exists(store.summary_path(status.name)));
    EXPECT_TRUE(fs::exists(store.spec_path(status.name)));
    // The frozen spec reloads to exactly the preset.
    EXPECT_EQ(store.load_spec(status.name), preset(status.name));
    // The archive CSV has header + front_size rows.
    const std::string csv = read_file(store.pareto_csv_path(status.name));
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              status.front_size + 1);
  }
}

TEST_F(CampaignTest, AbortAfterCheckpointsAndResumeIsBitIdentical) {
  const auto specs = small_campaign();

  // Uninterrupted reference run.
  run_campaign(specs, options(dir("full")));

  // Interrupted run: stop (as if killed) after the first scenario...
  CampaignOptions interrupted = options(dir("int"));
  interrupted.abort_after = 1;
  const CampaignReport first = run_campaign(specs, interrupted);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.executed, 1u);
  {
    const CampaignManifest manifest = ResultStore(dir("int")).load_manifest();
    EXPECT_TRUE(manifest.scenarios[0].complete);
    EXPECT_FALSE(manifest.scenarios[1].complete);
    EXPECT_FALSE(manifest.scenarios[2].complete);
  }

  // ... then resume from the store alone (no original specs needed).
  const CampaignReport resumed = resume_campaign(dir("int"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);

  // Archives must match the uninterrupted run byte for byte.
  ResultStore full(dir("full")), resumed_store(dir("int"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(full.pareto_csv_path(spec.name)),
              read_file(resumed_store.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(full.feasible_csv_path(spec.name)),
              read_file(resumed_store.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, RerunOnCompleteCampaignSkipsEverything) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("a")));
  const CampaignReport again = run_campaign(specs, options(dir("a")));
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.skipped, 3u);

  // Also with optimizer knobs the chosen kind ignores: the frozen spec
  // must reload == the original, so the rerun is still a clean skip.
  ScenarioSpec cross = preset("hospital_ward_2");
  cross.name = "cross_kind_knobs";
  cross.optimizer.iterations = 999;  // ignored by NSGA-II, but persisted
  run_campaign({cross}, options(dir("b")));
  const CampaignReport cross_again = run_campaign({cross}, options(dir("b")));
  EXPECT_EQ(cross_again.skipped, 1u);
}

TEST_F(CampaignTest, MismatchedReuseOfStoreIsRejected) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("a")));

  // Different scenario list.
  const auto other = std::vector<ScenarioSpec>{preset("hospital_ward_6")};
  EXPECT_THROW(run_campaign(other, options(dir("a"))), ScenarioError);

  // Same list, different options (quick mismatch).
  CampaignOptions full_budget;
  full_budget.out_dir = dir("a");
  full_budget.quick = false;
  EXPECT_THROW(run_campaign(specs, full_budget), ScenarioError);

  // Same names, edited spec contents.
  auto edited = specs;
  edited[0].constraints.max_delay_s = 0.5;
  EXPECT_THROW(run_campaign(edited, options(dir("a"))), ScenarioError);
}

TEST_F(CampaignTest, ManifestWithReassociationIsRefused) {
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2")};
  run_campaign(specs, options(dir("a")));
  const std::string manifest_path = ResultStore(dir("a")).manifest_path();
  const std::string fresh = read_file(manifest_path);
  EXPECT_EQ(util::Json::parse(fresh).find("simd_reassociation"), nullptr);

  const auto write_manifest = [&](const std::string& text) {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out << text;
  };
  const auto with_key = [&](bool value) {
    util::Json json = util::Json::parse(fresh);
    json.set("simd_reassociation", util::Json(value));
    return json.dump(2);
  };

  // A store written in reassociating mode can be neither extended nor
  // resumed: its archives are not byte-comparable with this build's.
  write_manifest(with_key(true));
  EXPECT_THROW(run_campaign(specs, options(dir("a"))), ScenarioError);
  EXPECT_THROW(resume_campaign(dir("a")), ScenarioError);

  // `false` (older manifests) and an absent key load as before.
  write_manifest(with_key(false));
  EXPECT_EQ(run_campaign(specs, options(dir("a"))).skipped, 1u);
  write_manifest(fresh);
  EXPECT_EQ(run_campaign(specs, options(dir("a"))).skipped, 1u);
  EXPECT_EQ(resume_campaign(dir("a")).skipped, 1u);
}

TEST_F(CampaignTest, FailingScenarioStopsTheCampaignAndStaysPending) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("clean")));

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::string out = dir("fail_j" + std::to_string(jobs));
    std::atomic<std::size_t> hook_calls{0};
    CampaignOptions o = options(out);
    o.jobs = jobs;
    o.post_scenario = [&](const ScenarioSpec& spec, const ScenarioRun&,
                          ResultStore&) {
      ++hook_calls;
      if (spec.name == specs[1].name) throw std::runtime_error("injected");
    };
    EXPECT_THROW(run_campaign(specs, o), std::runtime_error);
    const CampaignManifest manifest = ResultStore(out).load_manifest();
    EXPECT_FALSE(manifest.scenarios[1].complete);
    if (jobs == 1) {
      // Spec order, and no new start after the failure.
      EXPECT_EQ(hook_calls.load(), 2u);
      EXPECT_TRUE(manifest.scenarios[0].complete);
      EXPECT_FALSE(manifest.scenarios[2].complete);
    }
    const CampaignReport resumed = resume_campaign(out);
    EXPECT_TRUE(resumed.complete);
    expect_same_archives(specs, dir("clean"), out);
  }
}

// A progress report that throws fails the commit that makes it: the
// scenario it reports already has its summary.json, the scenario the lane
// computed meanwhile is not committed, and none starts after it.
TEST_F(CampaignTest, FailedCommitLeavesTheNextScenariosPending) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("clean")));

  std::vector<std::string> hooked;  // the hook runs on the lane
  CampaignOptions o = options(dir("a"));
  o.jobs = 1;
  o.post_scenario = [&](const ScenarioSpec& spec, const ScenarioRun&,
                        ResultStore&) { hooked.push_back(spec.name); };
  EXPECT_THROW(run_campaign(specs, o,
                            [&](const CampaignOutcome& outcome) {
                              if (outcome.name == specs[0].name) {
                                throw std::runtime_error("report failed");
                              }
                            }),
               std::runtime_error);
  const CampaignManifest manifest = ResultStore(dir("a")).load_manifest();
  EXPECT_TRUE(manifest.scenarios[0].complete);
  EXPECT_FALSE(manifest.scenarios[1].complete);
  EXPECT_FALSE(manifest.scenarios[2].complete);
  EXPECT_EQ(std::count(hooked.begin(), hooked.end(), specs[2].name), 0);

  const CampaignReport resumed = resume_campaign(dir("a"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);
  expect_same_archives(specs, dir("clean"), dir("a"));
}

// At jobs 1 the lane's commit worker commits scenario 0 (archives,
// summary.json, progress report) while the lane computes
// scenario 1, so scenario 0's report can wait for scenario 1's hook. A
// lane that committed scenario 0 itself would run hook 1 only after
// report 0 returned, and the wait would time out.
TEST_F(CampaignTest, NextScenarioRunsWhileTheLastCommits) {
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2"),
                                               preset("hospital_ward_3")};
  std::mutex mutex;
  std::condition_variable hooked;
  bool second_hooked = false;
  CampaignOptions o = options(dir("a"));
  o.jobs = 1;
  o.post_scenario = [&](const ScenarioSpec& spec, const ScenarioRun&,
                        ResultStore&) {
    if (spec.name != specs[1].name) return;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      second_hooked = true;
    }
    hooked.notify_all();
  };
  bool overlapped = false;
  std::vector<std::string> reported;
  const CampaignReport report =
      run_campaign(specs, o, [&](const CampaignOutcome& outcome) {
        reported.push_back(outcome.name);
        if (outcome.name != specs[0].name) return;
        std::unique_lock<std::mutex> lock(mutex);
        overlapped = hooked.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return second_hooked; });
      });
  EXPECT_TRUE(overlapped)
      << "scenario 1's hook did not run while scenario 0 committed";
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(reported, (std::vector<std::string>{specs[0].name,
                                                 specs[1].name}));
}

// Overlapping commits drop no fsync: initialize fsyncs each frozen spec
// file (1 each), then the scenarios/ directory once (1) and writes the
// campaign.json header (2), and each scenario adds pareto.csv (1),
// feasible.csv (1) and its summary.json (2: the file and results/<name>/).
TEST_F(CampaignTest, TwoScenarioCampaignIssuesThirteenFsyncs) {
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2"),
                                               preset("hospital_ward_3")};
  // Looked up by name; the help text of the first registration is kept.
  const util::metrics::Counter& fsyncs =
      util::metrics::Registry::instance().counter("wsnex_fsyncs_total", "");
  const double before = fsyncs.value();
  CampaignOptions o = options(dir("a"));
  o.jobs = 1;
  EXPECT_TRUE(run_campaign(specs, o).complete);
  EXPECT_EQ(fsyncs.value() - before, 2.0 + 1 + 2 + 4.0 * 2);
}

TEST_F(CampaignTest, JobsCapsScenariosInFlight) {
  const auto specs = std::vector<ScenarioSpec>{
      preset("hospital_ward_2"), preset("hospital_ward_3"), preset("all_cs_6"),
      preset("hospital_ward_4")};
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  CampaignOptions o = options(dir("a"));
  o.jobs = 2;
  o.post_scenario = [&](const ScenarioSpec&, const ScenarioRun&,
                        ResultStore&) {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    --in_flight;
  };
  const CampaignReport report = run_campaign(specs, o);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.executed, specs.size());
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST_F(CampaignTest, PoolIsNoWiderThanTheScenariosToRun) {
  // Lanes run scenarios, so more lanes than scenarios would only idle:
  // jobs 64 over two scenarios fans out exactly two (64 if the lane
  // count ignored the scenarios to run).
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2"),
                                               preset("hospital_ward_3")};
  // Looked up by name; the help text of the first registration is kept.
  const util::metrics::Counter& items =
      util::metrics::Registry::instance().counter(
          "wsnex_threadpool_items_total", "");
  const double before = items.value();
  CampaignOptions o = options(dir("a"));
  o.jobs = 64;
  const CampaignReport report = run_campaign(specs, o);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(items.value() - before, 2.0);
}

TEST_F(CampaignTest, ThreadsAboveOneIsRefusedNamingJobs) {
  const auto specs = std::vector<ScenarioSpec>{preset("hospital_ward_2")};
  const auto expect_refused = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "threads = 2 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos)
          << e.what();
    }
  };
  CampaignOptions o = options(dir("a"));
  o.threads = 2;
  expect_refused([&] { run_campaign(specs, o); });
  EXPECT_FALSE(ResultStore::exists(dir("a")));  // refused before any write
  ResultStore store(dir("b"));
  expect_refused(
      [&] { execute_scenario(specs[0], o, store, nullptr, nullptr); });
  // 0 and 1 both mean the calling thread.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    o = options(dir("t" + std::to_string(threads)));
    o.threads = threads;
    EXPECT_TRUE(run_campaign(specs, o).complete);
  }
}

// Stores written while optimizer.threads still sized an evaluation pool
// froze whatever value the spec carried; the field is a no-op now, so such
// a store resumes to the archives a fresh run writes.
TEST_F(CampaignTest, StoreWithThreadsInFrozenSpecsResumesToFreshArchives) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("fresh")));

  std::vector<ScenarioSpec> frozen = specs;
  for (ScenarioSpec& spec : frozen) spec.optimizer.threads = 4;
  CampaignOptions interrupted = options(dir("old"));
  interrupted.abort_after = 1;
  EXPECT_FALSE(run_campaign(frozen, interrupted).complete);
  const ResultStore store(dir("old"));
  EXPECT_EQ(util::Json::parse(read_file(store.spec_path(specs[1].name)))
                .at("optimizer")
                .at("threads")
                .as_int64(),
            4);

  const CampaignReport resumed = resume_campaign(dir("old"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.executed, 2u);
  expect_same_archives(specs, dir("fresh"), dir("old"));
}

TEST_F(CampaignTest, RejectsEmptyAndDuplicateCampaigns) {
  EXPECT_THROW(run_campaign({}, options(dir("a"))), ScenarioError);
  const auto dup = std::vector<ScenarioSpec>{preset("hospital_ward_2"),
                                             preset("hospital_ward_2")};
  EXPECT_THROW(run_campaign(dup, options(dir("a"))), ScenarioError);
  EXPECT_THROW(resume_campaign(dir("nothing_here")), ScenarioError);
}

// 2,000 distinct names and one repeat at the end: the error names the
// repeated name, and nothing is written.
TEST_F(CampaignTest, DuplicateAmongTwoThousandNamesIsNamed) {
  std::vector<ScenarioSpec> specs(2000, preset("hospital_ward_2"));
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    specs[i].name = "ward_" + std::to_string(i);
  }
  specs.back().name = "ward_1234";
  try {
    run_campaign(specs, options(dir("a")));
    ADD_FAILURE() << "a repeated name was accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("\"ward_1234\""), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(dir("a")));
}

TEST_F(CampaignTest, FeasibleCsvIsSortedByEnergyAndRespectsConstraints) {
  const auto spec = preset("hospital_ward_2");
  run_campaign({spec}, options(dir("a")));
  const std::string csv =
      read_file(ResultStore(dir("a")).feasible_csv_path(spec.name));
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // header
  double previous_energy = 0.0;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string energy, prd, delay;
    ASSERT_TRUE(std::getline(fields, energy, ','));
    ASSERT_TRUE(std::getline(fields, prd, ','));
    ASSERT_TRUE(std::getline(fields, delay, ','));
    EXPECT_GE(std::stod(energy), previous_energy);
    previous_energy = std::stod(energy);
    EXPECT_LE(std::stod(prd), spec.constraints.max_prd_percent);
    EXPECT_LE(std::stod(delay), spec.constraints.max_delay_s);
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(CampaignTest, RunScenarioMatchesDirectEngineInvocation) {
  // The campaign layer must add nothing to the numbers: running a spec
  // through run_scenario equals calling the optimizer directly with the
  // memoized objective.
  const ScenarioSpec spec = quick_variant(preset("hospital_ward_2"));
  const ScenarioRun run = run_scenario(spec);

  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const dse::DesignSpace space(spec.design_space_config());
  const auto objective =
      dse::make_memoized_full_model_objective(evaluator, space, 1);
  dse::Nsga2Options o;
  o.population = spec.optimizer.population;
  o.generations = spec.optimizer.generations;
  o.crossover_rate = spec.optimizer.crossover_rate;
  o.seed = spec.optimizer.seed;
  o.threads = 1;
  const dse::DseResult direct = dse::run_nsga2(space, *objective, o);

  EXPECT_EQ(run.result.evaluations, direct.evaluations);
  EXPECT_EQ(run.result.infeasible_count, direct.infeasible_count);
  EXPECT_TRUE(dse::same_entries(run.result.archive, direct.archive));
}

TEST_F(CampaignTest, SharedCacheMatchesFreshCacheAcrossAllPresets) {
  // The tentpole guarantee: lifting the app-layer table and MAC models
  // into the process-wide cache must not move a single bit, for any of
  // the shipped presets (they cover the ward-size, app-mix, channel,
  // battery and optimizer axes).
  dse::SharedEvalCache cache;
  for (const ScenarioSpec& spec : all_presets()) {
    const ScenarioRun shared = run_scenario(spec, /*quick=*/true, &cache);
    const ScenarioRun fresh = run_scenario(spec, /*quick=*/true);
    EXPECT_EQ(shared.result.evaluations, fresh.result.evaluations)
        << spec.name;
    EXPECT_EQ(shared.result.infeasible_count, fresh.result.infeasible_count)
        << spec.name;
    EXPECT_TRUE(dse::same_entries(shared.result.archive, fresh.result.archive))
        << spec.name;
  }
  // The presets genuinely share: far fewer tables than scenarios.
  const auto stats = cache.stats();
  EXPECT_GT(stats.app_table_hits, 0u);
  EXPECT_GT(stats.mac_model_hits, stats.mac_model_misses);
}

TEST_F(CampaignTest, ParallelJobsProduceByteIdenticalStores) {
  const auto specs = small_campaign();
  CampaignOptions serial = options(dir("j1"));
  serial.threads = 1;
  run_campaign(specs, serial);

  CampaignOptions parallel = options(dir("j2"));
  parallel.threads = 1;
  parallel.jobs = 2;
  const CampaignReport report = run_campaign(specs, parallel);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.executed, specs.size());
  ASSERT_EQ(report.outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].name, specs[i].name) << "outcome order";
  }

  ResultStore a(dir("j1")), b(dir("j2"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
              read_file(b.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
              read_file(b.feasible_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.spec_path(spec.name)),
              read_file(b.spec_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, ParallelAbortAfterKeepsSerialCheckpointSemantics) {
  const auto specs = small_campaign();
  CampaignOptions interrupted = options(dir("pint"));
  interrupted.jobs = 2;
  interrupted.abort_after = 1;
  const CampaignReport first = run_campaign(specs, interrupted);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.executed, 1u);
  {
    const CampaignManifest manifest = ResultStore(dir("pint")).load_manifest();
    EXPECT_TRUE(manifest.scenarios[0].complete);
    EXPECT_FALSE(manifest.scenarios[1].complete);
    EXPECT_FALSE(manifest.scenarios[2].complete);
  }
  // Resume in parallel too; archives must match a clean serial run.
  ResumeOverrides overrides;
  overrides.jobs = 2;
  const CampaignReport resumed = resume_campaign(dir("pint"), overrides);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.executed, 2u);

  run_campaign(specs, options(dir("pfull")));
  ResultStore full(dir("pfull")), store(dir("pint"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(full.pareto_csv_path(spec.name)),
              read_file(store.pareto_csv_path(spec.name)))
        << spec.name;
  }
}

TEST_F(CampaignTest, WarmCacheDirReproducesColdResultsByteForByte) {
  const auto specs = small_campaign();
  const std::string cache_dir = dir("prdcache");

  // "Cold": whatever calibration state this process has, plus a campaign
  // writing the warm cache. (set_default_prd_cache_dir may be a no-op if
  // another test already calibrated — results are identical either way;
  // here we exercise the campaign-level plumbing end to end.)
  CampaignOptions cold = options(dir("cold"));
  cold.cache_dir = cache_dir;
  run_campaign(specs, cold);

  // Warm rerun into a fresh store with the same cache dir.
  CampaignOptions warm = options(dir("warm"));
  warm.cache_dir = cache_dir;
  run_campaign(specs, warm);

  ResultStore a(dir("cold")), b(dir("warm"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(a.pareto_csv_path(spec.name)),
              read_file(b.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(a.feasible_csv_path(spec.name)),
              read_file(b.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

// Nothing rewrites campaign.json after initialize: an aborted and resumed
// campaign holds the bytes of an uninterrupted one.
TEST_F(CampaignTest, ManifestIsWrittenOnce) {
  const auto specs = small_campaign();
  CampaignOptions interrupted = options(dir("int"));
  interrupted.abort_after = 1;
  EXPECT_FALSE(run_campaign(specs, interrupted).complete);
  const std::string path = ResultStore(dir("int")).manifest_path();
  const std::string header = read_file(path);
  const util::Json json = util::Json::parse(header);
  EXPECT_EQ(json.at("format_version").as_int64(), 2);
  EXPECT_EQ(json.at("scenarios").as_array()[0].find("status"), nullptr);

  EXPECT_TRUE(resume_campaign(dir("int")).complete);
  EXPECT_EQ(read_file(path), header);
  run_campaign(specs, options(dir("full")));
  EXPECT_EQ(read_file(ResultStore(dir("full")).manifest_path()), header);
}

// A campaign.json written by older builds (format 1, rewritten after every
// scenario) still loads: a "complete" entry keeps its recorded statistics
// even without a summary, and any other entry is complete iff its
// summary.json exists.
TEST_F(CampaignTest, FormatOneManifestLoadsAndResumes) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("clean")));
  run_campaign(specs, options(dir("a")));
  const ResultStore store(dir("a"));
  const ScenarioStatus done = store.load_manifest().scenarios[0];

  util::Json scenarios = util::Json::array();
  const auto entry = [](const std::string& name, const char* status) {
    util::Json json = util::Json::object();
    json.set("name", name);
    json.set("status", status);
    return json;
  };
  // Crashed between its summary and the manifest record.
  scenarios.push_back(entry(specs[0].name, "pending"));
  // An older daemon's validation unit: recorded, no summary.
  util::Json recorded = entry(specs[1].name, "complete");
  recorded.set("evaluations", 0);
  recorded.set("infeasible", 0);
  recorded.set("front_size", 0);
  recorded.set("feasible_size", 0);
  recorded.set("wallclock_s", 1.25);
  scenarios.push_back(std::move(recorded));
  fs::remove(store.summary_path(specs[1].name));
  // Never finished.
  scenarios.push_back(entry(specs[2].name, "pending"));
  fs::remove_all(store.result_dir(specs[2].name));
  util::Json v1 = util::Json::object();
  v1.set("format_version", 1);
  v1.set("quick", true);
  v1.set("scenarios", std::move(scenarios));
  {
    std::ofstream out(store.manifest_path(),
                      std::ios::binary | std::ios::trunc);
    out << v1.dump(2);
  }
  const std::string header = read_file(store.manifest_path());

  const CampaignManifest manifest = store.load_manifest();
  EXPECT_EQ(manifest.format_version, 1);
  ASSERT_EQ(manifest.scenarios.size(), 3u);
  EXPECT_TRUE(manifest.scenarios[0].complete);
  EXPECT_EQ(manifest.scenarios[0].evaluations, done.evaluations);
  EXPECT_EQ(manifest.scenarios[0].front_size, done.front_size);
  EXPECT_EQ(manifest.scenarios[0].wallclock_s, done.wallclock_s);
  EXPECT_TRUE(manifest.scenarios[1].complete);
  EXPECT_EQ(manifest.scenarios[1].evaluations, 0u);
  EXPECT_EQ(manifest.scenarios[1].wallclock_s, 1.25);
  EXPECT_FALSE(manifest.scenarios[2].complete);

  const CampaignReport resumed = resume_campaign(dir("a"));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.skipped, 2u);
  EXPECT_EQ(resumed.executed, 1u);
  expect_same_archives(specs, dir("clean"), dir("a"));
  // The resume leaves a format-1 header as it is.
  EXPECT_EQ(read_file(store.manifest_path()), header);
}

// summary.json is a completion record: one that does not parse fails the
// resume naming it, as a corrupt manifest does.
TEST_F(CampaignTest, TornSummaryFailsResumeNamingIt) {
  const auto specs = small_campaign();
  run_campaign(specs, options(dir("a")));
  const std::string path = ResultStore(dir("a")).summary_path(specs[1].name);
  const std::string summary = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << summary.substr(0, summary.size() / 2);
  }
  try {
    resume_campaign(dir("a"));
    FAIL() << "resume should have refused the torn summary";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST_F(CampaignTest, CorruptManifestFailsWithClearError) {
  run_campaign({preset("hospital_ward_2")}, options(dir("a")));
  {
    std::ofstream out(ResultStore(dir("a")).manifest_path(),
                      std::ios::binary | std::ios::trunc);
    out << "{ not json";
  }
  EXPECT_THROW(resume_campaign(dir("a")), ScenarioError);
}

/// A scenario's progress.jsonl records, one parsed object per line.
std::vector<util::Json> read_progress(const ResultStore& store,
                                      const std::string& name) {
  const fs::path path = store.progress_jsonl_path(name);
  EXPECT_TRUE(fs::exists(path)) << path;
  std::ifstream in(path, std::ios::binary);
  std::vector<util::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty());
    records.push_back(util::Json::parse(line));
  }
  return records;
}

/// `record` without the per-stream keys `seq` and `t`.
util::Json without_seq_and_t(const util::Json& record) {
  util::Json out = util::Json::object();
  for (const auto& [key, value] : record.as_object()) {
    if (key != "seq" && key != "t") out.set(key, value);
  }
  return out;
}

TEST_F(CampaignTest, ProgressJsonlSchemaAndMonotoneHypervolume) {
  run_campaign({preset("hospital_ward_2")}, options(dir("a")));
  const std::vector<util::Json> records =
      read_progress(ResultStore(dir("a")), "hospital_ward_2");
  const std::vector<std::string> keys = {
      "seq", "t", "kind", "job", "scenario", "detail",
      "generation", "evaluations", "archive_size", "feasible",
      "hypervolume", "evals_per_s"};
  std::int64_t last_evaluations = 0;
  double last_t = 0.0;
  double last_hv = -1.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const util::Json& record = records[i];
    std::vector<std::string> record_keys;
    for (const auto& member : record.as_object()) {
      record_keys.push_back(member.first);
    }
    EXPECT_EQ(record_keys, keys) << i;
    EXPECT_EQ(record.at("kind").as_string(), "generation");
    // In the file, seq numbers the file's records from 1.
    EXPECT_EQ(record.at("seq").as_int64(), static_cast<std::int64_t>(i + 1));
    // t is the optimizer's elapsed time: it never runs backwards.
    const double t = record.at("t").as_double();
    EXPECT_GE(t, last_t) << i;
    last_t = t;
    EXPECT_EQ(record.at("job").as_string(), "");  // standalone campaign
    EXPECT_EQ(record.at("scenario").as_string(), "hospital_ward_2");
    // NSGA-II under 64 generations snapshots every generation, in order,
    // starting at generation 0.
    EXPECT_EQ(record.at("generation").as_int64(),
              static_cast<std::int64_t>(i));
    const std::int64_t evaluations = record.at("evaluations").as_int64();
    EXPECT_GT(evaluations, last_evaluations);
    last_evaluations = evaluations;
    EXPECT_GT(record.at("archive_size").as_int64(), 0);
    EXPECT_GE(record.at("feasible").as_int64(), 0);
    // The archive only grows toward the front: HV never decreases.
    const double hv = record.at("hypervolume").as_double();
    EXPECT_GE(hv, last_hv - 1e-12);
    last_hv = hv;
    EXPECT_GT(record.at("evals_per_s").as_double(), 0.0);
  }
  EXPECT_GT(records.size(), 1u);
  EXPECT_GT(last_hv, 0.0);
}

// progress.jsonl is the event stream's own serialization: with both
// outputs on, each file record equals the ring's generation event of the
// same snapshot on every key but the per-stream `seq` and `t`. The ring's
// events go through the former DOM builder, so this also checks the
// serializer against it on a real run.
TEST_F(CampaignTest, ProgressJsonlRecordsAreTheRingsGenerationEvents) {
  util::events::EventRing ring(1024);
  CampaignOptions o = options(dir("a"));
  o.events = &ring;
  o.event_job_id = "job-7";
  run_campaign({preset("hospital_ward_2")}, o);

  std::vector<util::events::Event> events;
  ring.read_since(0, events);
  std::vector<util::Json> published;
  for (const util::events::Event& event : events) {
    if (event.kind == util::events::Kind::kGeneration) {
      published.push_back(
          without_seq_and_t(test::reference_event_to_json(event)));
    }
  }
  const std::vector<util::Json> records =
      read_progress(ResultStore(dir("a")), "hospital_ward_2");
  ASSERT_EQ(records.size(), published.size());
  ASSERT_GT(records.size(), 1u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(without_seq_and_t(records[i]).dump(), published[i].dump())
        << "record " << i;
  }
}

TEST_F(CampaignTest, ProgressTelemetryNeverPerturbsArchives) {
  const auto specs = small_campaign();
  CampaignOptions with = options(dir("with"));
  with.progress = true;
  CampaignOptions without = options(dir("without"));
  without.progress = false;
  run_campaign(specs, with);
  run_campaign(specs, without);
  ResultStore store_with(dir("with")), store_without(dir("without"));
  for (const auto& spec : specs) {
    EXPECT_EQ(read_file(store_with.pareto_csv_path(spec.name)),
              read_file(store_without.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(store_with.feasible_csv_path(spec.name)),
              read_file(store_without.feasible_csv_path(spec.name)))
        << spec.name;
    EXPECT_TRUE(fs::exists(store_with.progress_jsonl_path(spec.name)));
    EXPECT_FALSE(fs::exists(store_without.progress_jsonl_path(spec.name)));
  }
}

TEST_F(CampaignTest, EventRingCapturesLifecycleAndGenerations) {
  util::events::EventRing ring(1024);
  CampaignOptions o = options(dir("a"));
  o.events = &ring;
  o.event_job_id = "job-42";
  run_campaign({preset("hospital_ward_2"), preset("hospital_ward_3")}, o);

  std::vector<util::events::Event> events;
  std::uint64_t dropped = 1;
  ring.read_since(0, events, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_FALSE(events.empty());

  std::uint64_t last_seq = 0;
  std::size_t started = 0, finished = 0, generations = 0;
  for (const auto& event : events) {
    EXPECT_GT(event.seq, last_seq);  // strictly monotone
    last_seq = event.seq;
    EXPECT_STREQ(event.job, "job-42");
    switch (event.kind) {
      case util::events::Kind::kScenarioStarted: ++started; break;
      case util::events::Kind::kScenarioFinished: ++finished; break;
      case util::events::Kind::kGeneration:
        ++generations;
        EXPECT_GT(event.evaluations, 0u);
        EXPECT_GT(event.archive_size, 0u);
        break;
      default: break;
    }
  }
  EXPECT_EQ(started, 2u);
  EXPECT_EQ(finished, 2u);
  // Quick NSGA-II runs 8 generations after the initial population — at
  // least that many generation events per scenario.
  EXPECT_GE(generations, 2u * 8u);
  // Each scenario's stream is ordered: started < all generations < finished.
  const auto find_kind = [&](util::events::Kind kind, const char* scenario) {
    for (const auto& event : events) {
      if (event.kind == kind &&
          std::string(event.scenario) == scenario) {
        return event.seq;
      }
    }
    return std::uint64_t{0};
  };
  for (const char* name : {"hospital_ward_2", "hospital_ward_3"}) {
    const std::uint64_t begin =
        find_kind(util::events::Kind::kScenarioStarted, name);
    const std::uint64_t end =
        find_kind(util::events::Kind::kScenarioFinished, name);
    ASSERT_GT(begin, 0u) << name;
    ASSERT_GT(end, begin) << name;
    for (const auto& event : events) {
      if (event.kind == util::events::Kind::kGeneration &&
          std::string(event.scenario) == name) {
        EXPECT_GT(event.seq, begin);
        EXPECT_LT(event.seq, end);
      }
    }
  }
}

/// One span of a Chrome trace file.
struct TraceSpan {
  std::string name;
  std::int64_t tid = 0;
  double ts = 0.0, dur = 0.0;

  /// `inner` lies within this span on the same thread.
  bool holds(const TraceSpan& inner) const {
    return inner.tid == tid && inner.ts >= ts &&
           inner.ts + inner.dur <= ts + dur + 1.0;
  }
};

/// Runs `specs` as a traced campaign at `jobs` and returns its spans.
std::vector<TraceSpan> traced_campaign(const fs::path& root,
                                       const std::vector<ScenarioSpec>& specs,
                                       std::size_t jobs) {
  const fs::path trace_path = root / "campaign.trace.json";
  fs::create_directories(root);
  EXPECT_TRUE(util::trace::start(trace_path.string()));
  CampaignOptions o;
  o.out_dir = (root / "a").string();
  o.quick = true;
  o.jobs = jobs;
  run_campaign(specs, o);
  EXPECT_TRUE(util::trace::stop());

  std::vector<TraceSpan> spans;
  const util::Json trace = util::Json::parse(read_file(trace_path));
  for (const util::Json& span : trace.at("traceEvents").as_array()) {
    spans.push_back({span.at("name").as_string(), span.at("tid").as_int64(),
                     span.at("ts").as_double(), span.at("dur").as_double()});
  }
  return spans;
}

// Trace spans must nest correctly even when two scenarios run
// concurrently: every `evaluate` span lies inside a `scenario:<name>` span
// on the same thread (the lane), every `lifetime` and `persist` span inside
// a `commit:<name>` span on the same thread (the lane's commit worker), and
// every scenario has both.
TEST_F(CampaignTest, TraceSpansNestUnderParallelJobs) {
  const std::vector<TraceSpan> spans = traced_campaign(
      root_, {preset("hospital_ward_2"), preset("hospital_ward_3")}, 2);
  std::vector<TraceSpan> scenario_spans, commit_spans, phase_spans;
  for (const TraceSpan& span : spans) {
    if (span.name.rfind("scenario:", 0) == 0) {
      scenario_spans.push_back(span);
    } else if (span.name.rfind("commit:", 0) == 0) {
      commit_spans.push_back(span);
    } else if (span.name == "evaluate" || span.name == "lifetime" ||
               span.name == "persist") {
      phase_spans.push_back(span);
    }
  }
  ASSERT_EQ(scenario_spans.size(), 2u);
  ASSERT_EQ(commit_spans.size(), 2u);
  ASSERT_EQ(phase_spans.size(), 6u);
  for (const TraceSpan& phase : phase_spans) {
    const std::vector<TraceSpan>& parents =
        phase.name == "evaluate" ? scenario_spans : commit_spans;
    EXPECT_TRUE(std::any_of(parents.begin(), parents.end(),
                            [&](const TraceSpan& parent) {
                              return parent.holds(phase);
                            }))
        << phase.name << " span not nested in a "
        << (phase.name == "evaluate" ? "scenario" : "commit")
        << " span on its thread";
  }
}

// A jobs-1 campaign records spans on two threads, whatever its length: the
// lane and its one commit worker, which commits every scenario.
TEST_F(CampaignTest, TracedSerialCampaignUsesTwoThreads) {
  const std::vector<ScenarioSpec> specs = {
      preset("hospital_ward_2"), preset("hospital_ward_3"),
      preset("hospital_ward_4"), preset("all_cs_6"),
      preset("low_battery_6"),   preset("relaxed_quality_mosa_6")};
  const std::vector<TraceSpan> spans = traced_campaign(root_, specs, 1);
  std::vector<std::int64_t> tids, commit_tids;
  for (const TraceSpan& span : spans) {
    tids.push_back(span.tid);
    if (span.name.rfind("commit:", 0) == 0) commit_tids.push_back(span.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 2u);
  ASSERT_EQ(commit_tids.size(), specs.size());
  EXPECT_EQ(std::count(commit_tids.begin(), commit_tids.end(),
                       commit_tids.front()),
            static_cast<std::ptrdiff_t>(specs.size()));
}

}  // namespace
}  // namespace wsnex::scenario
