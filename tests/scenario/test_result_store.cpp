// ResultStore::shard_id collision safety — the serve layer feeds it
// arbitrary campaign/job ids, so the mapping must (a) keep the historical
// layout for every already-safe name, (b) never let two distinct ids
// share a directory — even when their sanitized spellings coincide — and
// (c) never emit anything that can escape the store root — plus the
// leftover-temp-file hygiene of initialize() on an existing store and
// summary.json as the one completion record.
#include "scenario/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"

namespace wsnex::scenario {
namespace {

namespace fs = std::filesystem;

TEST(ShardId, SafeIdsMapToThemselves) {
  for (const std::string& id : std::vector<std::string>{
           "hospital_ward_2", "job-1", "a", "A.B-c_9", "x.y.z",
           std::string(64, 'k')}) {
    EXPECT_EQ(ResultStore::shard_id(id), id);
  }
}

TEST(ShardId, DistinctUnsafeIdsGetDistinctShards) {
  // All three sanitize to the spelling "a_b"; pre-fix they collided.
  const std::string slash = ResultStore::shard_id("a/b");
  const std::string colon = ResultStore::shard_id("a:b");
  const std::string space = ResultStore::shard_id("a b");
  const std::string literal = ResultStore::shard_id("a_b");
  EXPECT_EQ(literal, "a_b");  // the safe spelling keeps its directory
  const std::set<std::string> all{slash, colon, space, literal};
  EXPECT_EQ(all.size(), 4u) << slash << " " << colon << " " << space;
  // Sanitized ids stay recognizable: mapped prefix + 16-hex suffix.
  EXPECT_EQ(slash.substr(0, 4), "a_b-");
  EXPECT_EQ(slash.size(), 4u + 16u);
}

TEST(ShardId, HostileIdsCannotEscapeTheStoreRoot) {
  for (const std::string& id : std::vector<std::string>{
           "..", "../sibling", "/etc/passwd", ".hidden", "a/../../b",
           std::string("nul\0byte", 8), std::string(200, '/')}) {
    const std::string shard = ResultStore::shard_id(id);
    EXPECT_EQ(shard.find('/'), std::string::npos) << id;
    EXPECT_EQ(shard.find('\0'), std::string::npos) << id;
    EXPECT_FALSE(shard.empty()) << id;
    EXPECT_NE(shard.front(), '.') << id;
    EXPECT_NE(shard, "..") << id;
  }
}

TEST(ShardId, DegenerateIdsStillShard) {
  // Empty and all-unsafe ids fall back to an "id" prefix; 65+ char ids
  // leave the identity set and truncate their prefix.
  const std::string empty = ResultStore::shard_id("");
  EXPECT_EQ(empty.substr(0, 3), "id-");
  const std::string unprintable = ResultStore::shard_id("\x01\x02");
  EXPECT_EQ(unprintable.find("__-"), 0u);
  const std::string longest = ResultStore::shard_id(std::string(65, 'q'));
  EXPECT_NE(longest, std::string(65, 'q'));
  EXPECT_LE(longest.size(), 40u + 1u + 16u);
  // Distinct long ids with a common 40-char prefix still differ.
  const std::string long_a = ResultStore::shard_id(std::string(64, 'q') + "/a");
  const std::string long_b = ResultStore::shard_id(std::string(64, 'q') + "/b");
  EXPECT_NE(long_a, long_b);
}

TEST(ShardId, MappingIsStableAcrossCalls) {
  for (const std::string id : {"a/b", "", "hospital_ward_2", "..", "x y z"}) {
    EXPECT_EQ(ResultStore::shard_id(id), ResultStore::shard_id(id)) << id;
  }
}

TEST(ShardId, PathAccessorsUseTheShardedName) {
  const ResultStore store("/tmp/does-not-exist-root");
  // A hostile scenario name never produces a path outside the root:
  // the shard is a single component (no '/'), so a literal ".." inside
  // it names a directory, not a traversal.
  const std::string dir = store.result_dir("../../escape");
  const std::string results_prefix = "/tmp/does-not-exist-root/results/";
  EXPECT_EQ(dir.find(results_prefix), 0u);
  const std::string shard = dir.substr(results_prefix.size());
  EXPECT_EQ(shard.find('/'), std::string::npos) << shard;
  EXPECT_NE(shard.front(), '.') << shard;
  const std::string spec = store.spec_path("a/b");
  EXPECT_EQ(spec.find("/tmp/does-not-exist-root/scenarios/"), 0u);
  EXPECT_EQ(spec.find("a/b"), std::string::npos);
}

class StoreSweepTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_store_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  static void touch(const fs::path& path) {
    std::ofstream out(path, std::ios::binary);
    out << "debris";
  }
};

TEST_F(StoreSweepTest, ReinitializeSweepsCrashDebrisAndKeepsLiveArtifacts) {
  const std::vector<ScenarioSpec> specs{preset("hospital_ward_2")};
  ResultStore store(root_.string());
  store.initialize(specs, /*quick=*/true);

  // A writer that died between creating its temp file and renaming it
  // leaves `<file>.tmp.<thread>` debris — next to the manifest, inside
  // the scenarios dir, and deep inside a result shard.
  touch(root_ / "campaign.json.tmp.140213834082624");
  touch(root_ / "scenarios" / "hospital_ward_2.json.tmp.7");
  fs::create_directories(root_ / "results" / "hospital_ward_2");
  touch(root_ / "results" / "hospital_ward_2" / "summary.json.tmp.9");

  // Reissuing initialize() on the existing store (the run/resume path)
  // sweeps the debris before doing anything else.
  ResultStore reopened(root_.string());
  reopened.initialize(specs, /*quick=*/true);

  EXPECT_FALSE(fs::exists(root_ / "campaign.json.tmp.140213834082624"));
  EXPECT_FALSE(fs::exists(root_ / "scenarios" / "hospital_ward_2.json.tmp.7"));
  EXPECT_FALSE(
      fs::exists(root_ / "results" / "hospital_ward_2" / "summary.json.tmp.9"));

  // The live store is untouched: manifest, frozen spec and progress all
  // still load.
  const CampaignManifest manifest = reopened.load_manifest();
  ASSERT_EQ(manifest.scenarios.size(), 1u);
  EXPECT_EQ(manifest.scenarios[0].name, "hospital_ward_2");
  EXPECT_FALSE(manifest.scenarios[0].complete);
  EXPECT_EQ(reopened.load_spec("hospital_ward_2").name, "hospital_ward_2");
}

TEST_F(StoreSweepTest, SweepReportsCountAndLeavesNonDebrisAlone) {
  const std::vector<ScenarioSpec> specs{preset("hospital_ward_2")};
  ResultStore store(root_.string());
  store.initialize(specs, /*quick=*/true);

  touch(root_ / "campaign.json.tmp.1");
  touch(root_ / "scenarios" / "stale.tmp");
  EXPECT_EQ(store.sweep_stale_temp_files(), 2u);
  EXPECT_EQ(store.sweep_stale_temp_files(), 0u);
  EXPECT_TRUE(fs::exists(root_ / "campaign.json"));
  EXPECT_TRUE(fs::exists(root_ / "scenarios" / "hospital_ward_2.json"));
}

class StoreRecordTest : public StoreSweepTest {
 protected:
  static util::Json summary_with(std::size_t evaluations, double wallclock_s) {
    util::Json summary = util::Json::object();
    summary.set("name", "hospital_ward_2");
    summary.set("evaluations", evaluations);
    summary.set("infeasible", std::size_t{2});
    summary.set("front_size", std::size_t{3});
    summary.set("feasible_size", std::size_t{1});
    summary.set("wallclock_s", wallclock_s);
    return summary;
  }

  static std::string read(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// complete() on each header entry, and load_manifest(), both say
  /// `expected`.
  static void expect_completion(const ResultStore& store,
                                const std::vector<bool>& expected) {
    const CampaignManifest header = store.load_header();
    const CampaignManifest manifest = store.load_manifest();
    ASSERT_EQ(header.scenarios.size(), expected.size());
    ASSERT_EQ(manifest.scenarios.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(store.complete(header.scenarios[i]), expected[i]) << i;
      EXPECT_EQ(manifest.scenarios[i].complete, expected[i]) << i;
    }
  }
};

// A summary.json left by a deleted campaign must not pass as the result of
// a new campaign initialized over it.
TEST_F(StoreRecordTest, InitializeRefusesAStaleSummaryWithoutAHeader) {
  const std::vector<ScenarioSpec> specs{preset("hospital_ward_3"),
                                        preset("hospital_ward_2")};
  ResultStore store(root_.string());
  store.write_summary("hospital_ward_2", summary_with(10, 0.5));
  try {
    store.initialize(specs, /*quick=*/true);
    FAIL() << "initialize should have refused the stale summary";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(store.summary_path("hospital_ward_2")),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(fs::exists(store.manifest_path()));
  EXPECT_FALSE(fs::exists(store.scenario_dir()));
  EXPECT_TRUE(fs::exists(store.summary_path("hospital_ward_2")));
}

TEST_F(StoreRecordTest, RecordCompleteWritesNothingAndNeedsTheSummary) {
  ResultStore store(root_.string());
  store.initialize({preset("hospital_ward_2")}, /*quick=*/true);
  const std::string header = read(store.manifest_path());
  ScenarioStatus status;
  status.name = "hospital_ward_2";
  EXPECT_THROW(store.record_complete(status), ScenarioError);
  EXPECT_FALSE(store.load_manifest().scenarios[0].complete);

  store.write_summary("hospital_ward_2", summary_with(10, 0.5));
  EXPECT_NO_THROW(store.record_complete(status));
  EXPECT_EQ(read(store.manifest_path()), header);
  // The summary alone completes the scenario, with its statistics.
  const ScenarioStatus loaded = store.load_manifest().scenarios[0];
  EXPECT_TRUE(loaded.complete);
  EXPECT_EQ(loaded.evaluations, 10u);
  EXPECT_EQ(loaded.infeasible, 2u);
  EXPECT_EQ(loaded.front_size, 3u);
  EXPECT_EQ(loaded.feasible_size, 1u);
  EXPECT_EQ(loaded.wallclock_s, 0.5);
}

// complete() is load_manifest()'s completion rule, applied to the header
// alone (what `wsnex watch DIR` polls).
TEST_F(StoreRecordTest, CompleteAgreesWithLoadManifest) {
  const std::vector<ScenarioSpec> specs{
      preset("hospital_ward_2"), preset("hospital_ward_3"), preset("all_cs_6")};
  CampaignOptions half;
  half.out_dir = (root_ / "half").string();
  half.quick = true;
  half.abort_after = 1;
  EXPECT_FALSE(run_campaign(specs, half).complete);
  expect_completion(ResultStore(half.out_dir), {true, false, false});

  // A format-1 header: a "pending" entry whose summary landed, a
  // "complete" entry without a summary (an older daemon's validation
  // unit), and a scenario that never ran.
  ResultStore v1((root_ / "v1").string());
  v1.initialize(specs, /*quick=*/true);
  v1.write_summary("hospital_ward_2", summary_with(10, 0.5));
  util::Json scenarios = util::Json::array();
  for (const ScenarioSpec& spec : specs) {
    util::Json entry = summary_with(0, 1.25);
    entry.set("name", spec.name);
    entry.set("status", spec.name == "hospital_ward_3" ? "complete"
                                                       : "pending");
    scenarios.push_back(std::move(entry));
  }
  util::Json header = util::Json::object();
  header.set("format_version", 1);
  header.set("quick", true);
  header.set("scenarios", std::move(scenarios));
  {
    std::ofstream out(v1.manifest_path(), std::ios::binary | std::ios::trunc);
    out << header.dump(2);
  }
  expect_completion(v1, {true, true, false});
}

}  // namespace
}  // namespace wsnex::scenario
