// Crash-recovery soak at the library level (the shell-driven variant
// lives in tools/crash_soak.sh): for every persist-site failpoint a
// campaign evaluates, crash mid-persist in a forked child (EXPECT_EXIT),
// recover the way the CLI would — resume when campaign.json exists, rerun
// otherwise — and require the recovered archives byte-identical to an
// uninterrupted reference. Plus the PRD disk-cache degradation contract:
// torn or unreadable cache files recompute in memory, produce identical
// curves, and bump wsnex_cache_degraded_total.
//
// Everything here needs -DWSNEX_FAILPOINTS=ON; on default builds the
// tests skip (evaluate() is an inline no-op).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsp/prd_calibration.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/result_store.hpp"
#include "util/failpoint.hpp"
#include "util/fsio.hpp"
#include "util/metrics.hpp"

namespace wsnex {
namespace {

namespace fs = std::filesystem;
namespace fp = util::failpoint;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_crash_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void SetUp() override {
    fs::create_directories(root_);
    fp::reset();
  }
  void TearDown() override {
    fp::reset();
    fs::remove_all(root_);
  }

  std::string dir(const std::string& leaf) const {
    return (root_ / leaf).string();
  }

  static scenario::CampaignOptions options(const std::string& out_dir) {
    scenario::CampaignOptions o;
    o.out_dir = out_dir;
    o.quick = true;
    return o;
  }
};

TEST_F(CrashRecoveryTest, CrashAtEveryPersistSiteResumesBitIdentical) {
  if (!fp::compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  const std::string name = "hospital_ward_2";
  const std::vector<scenario::ScenarioSpec> specs{scenario::preset(name)};

  // Uninterrupted reference.
  ASSERT_TRUE(scenario::run_campaign(specs, options(dir("ref"))).complete);
  const scenario::ResultStore ref(dir("ref"));
  const std::string ref_pareto = read_file(ref.pareto_csv_path(name));
  const std::string ref_feasible = read_file(ref.feasible_csv_path(name));
  ASSERT_FALSE(ref_pareto.empty());

  // One arming per persist site the campaign evaluates, in persist-
  // protocol order. The manifest sites fire only at the campaign.json
  // header initialize() writes; a crash there leaves no header, so
  // recovery reruns.
  const std::vector<std::pair<std::string, std::string>> crash_sites = {
      {"spec", "result_store.spec=crash"},
      {"manifest", "result_store.manifest=crash"},
      {"manifest_rename", "result_store.manifest.rename=crash"},
      {"persist", "campaign.persist=crash"},
      {"summary", "result_store.summary=crash"},
      {"summary_rename", "result_store.summary.rename=crash"},
  };
  for (const auto& [label, arm] : crash_sites) {
    SCOPED_TRACE(label);
    const std::string out = dir(label);
    // The child arms the failpoint and must die with the crash sentinel;
    // reaching _Exit(0) means the site was never evaluated (a rotted
    // site name), which fails the exit-code assertion.
    EXPECT_EXIT(
        {
          fp::configure(arm);
          scenario::run_campaign(specs, options(out));
          std::_Exit(0);
        },
        ::testing::ExitedWithCode(fp::kCrashExitCode), "");

    // Recover exactly like the CLI: `wsnex resume` once campaign.json
    // exists, re-issued `wsnex run` when the crash predates it.
    const scenario::CampaignReport recovered =
        scenario::ResultStore::exists(out)
            ? scenario::resume_campaign(out)
            : scenario::run_campaign(specs, options(out));
    EXPECT_TRUE(recovered.complete);

    const scenario::ResultStore store(out);
    const scenario::CampaignManifest manifest = store.load_manifest();
    ASSERT_EQ(manifest.scenarios.size(), 1u);
    EXPECT_TRUE(manifest.scenarios[0].complete);
    EXPECT_EQ(read_file(store.pareto_csv_path(name)), ref_pareto);
    EXPECT_EQ(read_file(store.feasible_csv_path(name)), ref_feasible);
    // Recovery leaves no temp debris behind.
    EXPECT_EQ(store.sweep_stale_temp_files(), 0u);
  }
}

// A lane's commit worker commits scenario 0 while the lane computes
// scenario 1. When scenario 0's summary.json cannot be written (ENOSPC),
// run_campaign throws the FileError, scenario 1 is not committed either,
// and a resume writes the reference archives.
TEST_F(CrashRecoveryTest, FailedSummaryWriteLeavesBothScenariosPending) {
  if (!fp::compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  const std::vector<scenario::ScenarioSpec> specs{
      scenario::preset("hospital_ward_2"), scenario::preset("hospital_ward_3")};
  ASSERT_TRUE(scenario::run_campaign(specs, options(dir("ref"))).complete);

  scenario::CampaignOptions o = options(dir("a"));
  o.jobs = 1;
  fp::configure("result_store.summary=error(28)#1");
  EXPECT_THROW(scenario::run_campaign(specs, o), util::FileError);
  fp::reset();

  const scenario::ResultStore store(dir("a"));
  const scenario::CampaignManifest manifest = store.load_manifest();
  ASSERT_EQ(manifest.scenarios.size(), 2u);
  EXPECT_FALSE(manifest.scenarios[0].complete);
  EXPECT_FALSE(manifest.scenarios[1].complete);
  EXPECT_EQ(store.sweep_stale_temp_files(), 0u);

  EXPECT_TRUE(scenario::resume_campaign(dir("a")).complete);
  const scenario::ResultStore ref(dir("ref"));
  for (const scenario::ScenarioSpec& spec : specs) {
    EXPECT_EQ(read_file(store.pareto_csv_path(spec.name)),
              read_file(ref.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(store.feasible_csv_path(spec.name)),
              read_file(ref.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

// The lane's commit worker writes scenario 0's archives while the lane
// runs scenario 1's optimizer and hook. When scenario 0's persist fails
// (ENOSPC), run_campaign throws the FileError after both hooks ran,
// neither scenario is committed, and a resume writes the reference
// archives.
TEST_F(CrashRecoveryTest,
       FailedPersistOnTheCommitWorkerLeavesBothScenariosPending) {
  if (!fp::compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  const std::vector<scenario::ScenarioSpec> specs{
      scenario::preset("hospital_ward_2"), scenario::preset("hospital_ward_3")};
  ASSERT_TRUE(scenario::run_campaign(specs, options(dir("ref"))).complete);

  std::vector<std::string> hooked;  // the hooks run on the lane
  scenario::CampaignOptions o = options(dir("a"));
  o.jobs = 1;
  o.post_scenario = [&](const scenario::ScenarioSpec& spec,
                        const scenario::ScenarioRun&, scenario::ResultStore&) {
    hooked.push_back(spec.name);
  };
  fp::configure("campaign.persist=error(28)#1");
  EXPECT_THROW(scenario::run_campaign(specs, o), util::FileError);
  fp::reset();
  EXPECT_EQ(hooked, (std::vector<std::string>{specs[0].name, specs[1].name}));

  const scenario::ResultStore store(dir("a"));
  const scenario::CampaignManifest manifest = store.load_manifest();
  ASSERT_EQ(manifest.scenarios.size(), 2u);
  EXPECT_FALSE(manifest.scenarios[0].complete);
  EXPECT_FALSE(manifest.scenarios[1].complete);
  EXPECT_EQ(store.sweep_stale_temp_files(), 0u);

  EXPECT_TRUE(scenario::resume_campaign(dir("a")).complete);
  const scenario::ResultStore ref(dir("ref"));
  for (const scenario::ScenarioSpec& spec : specs) {
    EXPECT_EQ(read_file(store.pareto_csv_path(spec.name)),
              read_file(ref.pareto_csv_path(spec.name)))
        << spec.name;
    EXPECT_EQ(read_file(store.feasible_csv_path(spec.name)),
              read_file(ref.feasible_csv_path(spec.name)))
        << spec.name;
  }
}

/// Two calibrations are "the same" when every measured point and the
/// fitted polynomial agree exactly — the bit-identical contract the
/// disk cache promises.
void expect_curves_eq(const dsp::PrdCurve& a, const dsp::PrdCurve& b) {
  ASSERT_EQ(a.measurements.size(), b.measurements.size());
  for (std::size_t i = 0; i < a.measurements.size(); ++i) {
    EXPECT_EQ(a.measurements[i].cr, b.measurements[i].cr) << i;
    EXPECT_EQ(a.measurements[i].prd_percent, b.measurements[i].prd_percent)
        << i;
  }
  ASSERT_EQ(a.fitted.coefficients().size(), b.fitted.coefficients().size());
  for (std::size_t i = 0; i < a.fitted.coefficients().size(); ++i) {
    EXPECT_EQ(a.fitted.coefficients()[i], b.fitted.coefficients()[i]) << i;
  }
  EXPECT_EQ(a.fit_r_squared, b.fit_r_squared);
}

void expect_curves_eq(const dsp::DefaultPrdCurves& a,
                      const dsp::DefaultPrdCurves& b) {
  expect_curves_eq(a.dwt, b.dwt);
  expect_curves_eq(a.cs, b.cs);
}

TEST_F(CrashRecoveryTest, PrdCacheFaultsDegradeToInMemoryRecompute) {
  if (!fp::compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  auto& degraded_reads = util::metrics::Registry::instance().counter(
      "wsnex_cache_degraded_total",
      "Disk-cache failures degraded to in-memory recompute", "op=\"read\"");
  auto& degraded_writes = util::metrics::Registry::instance().counter(
      "wsnex_cache_degraded_total",
      "Disk-cache failures degraded to in-memory recompute", "op=\"write\"");
  const double reads_before = degraded_reads.value();
  const double writes_before = degraded_writes.value();

  const std::string cache = dir("cache");
  const dsp::DefaultPrdCurves ref =
      dsp::load_or_calibrate_default_prd_curves("");

  // A torn cache write reports success (the tear is silent by design) and
  // must not taint the curves the caller gets.
  fp::configure("prd_cache.write=torn@64");
  expect_curves_eq(ref, dsp::load_or_calibrate_default_prd_curves(cache));
  fp::reset();

  // The next load finds the torn file, degrades to recompute (counted as
  // a read degradation), still produces identical curves — and heals the
  // cache by rewriting it.
  expect_curves_eq(ref, dsp::load_or_calibrate_default_prd_curves(cache));

  // A healthy cache now serves hits...
  expect_curves_eq(ref, dsp::load_or_calibrate_default_prd_curves(cache));

  // ...but an injected read fault on it degrades to recompute again.
  fp::configure("prd_cache.read=error(EIO)");
  expect_curves_eq(ref, dsp::load_or_calibrate_default_prd_curves(cache));
  fp::reset();

  // A failing cache *write* (cold dir, ENOSPC) is a warning, never an
  // error: calibration still returns.
  fp::configure("prd_cache.write=error(ENOSPC)");
  expect_curves_eq(ref, dsp::load_or_calibrate_default_prd_curves(dir("c2")));
  fp::reset();

  EXPECT_GE(degraded_reads.value(), reads_before + 2.0);
  EXPECT_GE(degraded_writes.value(), writes_before + 1.0);
}

}  // namespace
}  // namespace wsnex
