// Monte Carlo validation subsystem: replicate-seed determinism, report
// contents/verdicts, byte-identity across worker counts, persistence and
// the campaign hook.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "validate/validation.hpp"

namespace wsnex::validate {
namespace {

namespace fs = std::filesystem;

/// A small ward that validates quickly: short replicates are enough for
/// the structural assertions here (CI-level tolerances are exercised by
/// the real presets in the workflow smoke).
scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec = scenario::preset("hospital_ward_4");
  return spec;
}

ValidationOptions quick_options(std::size_t replicates = 4,
                                double duration_s = 30.0) {
  ValidationOptions options;
  options.plan.replicates = replicates;
  options.plan.duration_s = duration_s;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("wsnex_validate_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(ReplicationPlan, SeedsAreCounterDerivedAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 1000; ++r) {
    seeds.insert(ReplicationPlan::replicate_seed(1, r));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions over a realistic range
  // Pure function: same inputs, same seed; different bases decorrelate.
  EXPECT_EQ(ReplicationPlan::replicate_seed(42, 7),
            ReplicationPlan::replicate_seed(42, 7));
  EXPECT_NE(ReplicationPlan::replicate_seed(42, 7),
            ReplicationPlan::replicate_seed(43, 7));
}

TEST(ReferenceDesign, IsDeterministicAndFeasible) {
  const scenario::ScenarioSpec spec = small_spec();
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const model::NetworkDesign a = reference_design(spec, evaluator);
  const model::NetworkDesign b = reference_design(spec, evaluator);
  EXPECT_TRUE(evaluator.evaluate(a).feasible);
  EXPECT_EQ(a.mac.payload_bytes, b.mac.payload_bytes);
  EXPECT_EQ(a.mac.bco, b.mac.bco);
  EXPECT_EQ(a.mac.sfo, b.mac.sfo);
  ASSERT_EQ(a.nodes.size(), spec.node_count);
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_DOUBLE_EQ(a.nodes[n].cr, b.nodes[n].cr);
    EXPECT_DOUBLE_EQ(a.nodes[n].mcu_freq_khz, b.nodes[n].mcu_freq_khz);
  }
}

TEST(Lowering, TdmaTakesSlotsFromAssignmentCsmaContendsEverywhere) {
  scenario::ScenarioSpec spec = small_spec();
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const model::NetworkDesign design = reference_design(spec, evaluator);

  const Lowering tdma = lower(spec, evaluator, design);
  ASSERT_EQ(tdma.sim.mac.gts_slots.size(), spec.node_count);
  std::size_t total = 0;
  for (std::size_t s : tdma.sim.mac.gts_slots) total += s;
  EXPECT_GT(total, 0u);
  EXPECT_TRUE(tdma.sim.access.empty());

  spec.access = scenario::ChannelAccess::kCsma;
  const Lowering csma = lower(spec, evaluator, design);
  for (std::size_t s : csma.sim.mac.gts_slots) EXPECT_EQ(s, 0u);
  ASSERT_EQ(csma.sim.access.size(), spec.node_count);
  for (sim::AccessMode m : csma.sim.access) {
    EXPECT_EQ(m, sim::AccessMode::kCsma);
  }
}

TEST(Lowering, BurstSpecMapsToTwoStateChain) {
  scenario::ScenarioSpec spec = small_spec();
  spec.channel.burst.burst_fer = 0.5;
  spec.channel.burst.mean_burst_frames = 8.0;
  spec.channel.burst.bad_fraction = 0.1;
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const model::NetworkDesign design = reference_design(spec, evaluator);
  const sim::BurstErrorModel burst = sim_burst_model(spec, design);
  EXPECT_TRUE(burst.active());
  EXPECT_DOUBLE_EQ(burst.fer_bad, 0.5);
  EXPECT_DOUBLE_EQ(burst.p_bad_to_good, 1.0 / 8.0);
  EXPECT_NEAR(burst.bad_fraction(), 0.1, 1e-12);
  // Long-run average must equal what the analytical model consumes.
  EXPECT_NEAR(burst.mean_fer(), spec.effective_frame_error_rate(), 1e-12);
}

TEST(RunValidation, IdealTdmaWardPassesAllVerdicts) {
  const ValidationReport report =
      run_validation(small_spec(), quick_options());
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.replicates, 4u);
  EXPECT_EQ(report.unstable_replicates, 0u);
  // The Eq. 9 bound is judged (lossless TDMA) and holds.
  const MetricSummary* worst = report.find_metric("latency_max_s");
  ASSERT_NE(worst, nullptr);
  EXPECT_EQ(worst->kind, VerdictKind::kUpperBound);
  EXPECT_EQ(worst->verdict, Verdict::kPass);
  EXPECT_LE(worst->sim_max, worst->analytic);
  // Per-node energy rows exist, are judged, and pass.
  for (std::size_t n = 0; n < 4; ++n) {
    const MetricSummary* energy =
        report.find_metric("node" + std::to_string(n) + "_energy_mj_per_s");
    ASSERT_NE(energy, nullptr);
    EXPECT_EQ(energy->kind, VerdictKind::kMape);
    EXPECT_EQ(energy->verdict, Verdict::kPass) << "MAPE "
                                               << energy->mape_percent;
  }
  // Ideal channel: no retries, no drops, no collisions.
  EXPECT_DOUBLE_EQ(report.find_metric("retry_rate")->sim_mean, 0.0);
  EXPECT_DOUBLE_EQ(report.find_metric("drop_rate")->sim_mean, 0.0);
  EXPECT_DOUBLE_EQ(report.find_metric("collisions_per_s")->sim_mean, 0.0);
}

TEST(RunValidation, ReportIsByteIdenticalAcrossWorkerCounts) {
  const scenario::ScenarioSpec spec = small_spec();
  ValidationOptions serial = quick_options();
  serial.plan.jobs = 1;
  ValidationOptions wide = quick_options();
  wide.plan.jobs = 4;
  const std::string a = run_validation(spec, serial).to_json().dump(2);
  const std::string b = run_validation(spec, wide).to_json().dump(2);
  EXPECT_EQ(a, b);
  // More workers than replicates: one replicate per worker.
  ValidationOptions wider = quick_options();
  wider.plan.jobs = wider.plan.replicates + 3;
  EXPECT_EQ(run_validation(spec, wider).to_json().dump(2), a);
}

TEST(RunValidation, LossyChannelDemotesBoundAndJudgesGeometricRetries) {
  scenario::ScenarioSpec spec = small_spec();
  spec.channel.frame_error_rate = 0.05;
  const ValidationReport report =
      run_validation(spec, quick_options(6, 60.0));
  // Under losses the Eq. 9 bound is informational (retransmissions may
  // legitimately exceed it)...
  EXPECT_EQ(report.find_metric("latency_max_s")->kind, VerdictKind::kInfo);
  // ...but the geometric retry structure is judged at the sim's rate.
  const MetricSummary* retry = report.find_metric("retry_rate");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->kind, VerdictKind::kMape);
  EXPECT_GT(retry->sim_mean, 0.0);
  EXPECT_GT(retry->analytic, 0.0);
  // Goodput judges *unique* deliveries: ACK-loss duplicates must not
  // inflate it past the model's useful-throughput prediction (they are
  // reported separately).
  const MetricSummary* goodput = report.find_metric("goodput_bytes_per_s");
  EXPECT_EQ(goodput->verdict, Verdict::kPass) << goodput->mape_percent;
  EXPECT_GT(report.find_metric("duplicates_per_s")->sim_mean, 0.0);
}

TEST(RunValidation, PerNodeFerCountsAsLossyChannel) {
  // Regression: node_fer losses must register in sim_fer, so the Eq. 9
  // bound demotes (retransmissions may exceed it) and the reliability
  // predictions are nonzero instead of judging a lossy run against a
  // lossless model.
  scenario::ScenarioSpec spec = small_spec();
  spec.channel.node_fer = {0.1, 0.0, 0.0, 0.0};
  const ValidationReport report =
      run_validation(spec, quick_options(6, 60.0));
  EXPECT_NEAR(report.sim_fer, 0.1 / 4.0, 1e-12);
  EXPECT_EQ(report.find_metric("latency_max_s")->kind, VerdictKind::kInfo);
  const MetricSummary* retry = report.find_metric("retry_rate");
  EXPECT_EQ(retry->kind, VerdictKind::kMape);
  EXPECT_GT(retry->analytic, 0.0);
  EXPECT_GT(retry->sim_mean, 0.0);
  EXPECT_EQ(retry->verdict, Verdict::kPass) << retry->mape_percent;
}

TEST(RunValidation, BurstChannelReportsBurstGapWithoutGating) {
  scenario::ScenarioSpec spec = scenario::preset("bursty_channel_6");
  const ValidationReport report = run_validation(spec, quick_options(4, 60.0));
  EXPECT_GT(report.sim_fer, 0.0);
  // Reliability rows demote under bursts (the geometric formulas assume
  // independent losses) but still carry both sides of the comparison.
  const MetricSummary* drop = report.find_metric("drop_rate");
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->kind, VerdictKind::kInfo);
  EXPECT_TRUE(drop->has_analytic);
}

TEST(RunValidation, CsmaScenarioObservesContention) {
  const scenario::ScenarioSpec spec = scenario::preset("contended_csma_6");
  const ValidationReport report = run_validation(spec, quick_options(4, 60.0));
  EXPECT_GT(report.find_metric("collisions_per_s")->sim_mean, 0.0);
  ASSERT_NE(report.find_metric("csma_busy_cca_probability"), nullptr);
  // No Eq. 9 bound under contention.
  EXPECT_EQ(report.find_metric("latency_max_s")->kind, VerdictKind::kInfo);
  // Energy rows are informational but still compare both sides.
  const MetricSummary* energy = report.find_metric("energy_net_mj_per_s");
  EXPECT_EQ(energy->kind, VerdictKind::kInfo);
  EXPECT_TRUE(energy->has_analytic);
}

TEST(RunValidation, SingleReplicateCannotPassViaInfiniteInterval) {
  // Regression: with one replicate the Student-t interval is infinite and
  // must not count as CI overlap — an absurdly tight tolerance has to
  // fail on MAPE alone.
  ValidationOptions options = quick_options(1, 30.0);
  options.tolerance_percent = 1e-6;
  const ValidationReport report = run_validation(small_spec(), options);
  const MetricSummary* energy = report.find_metric("energy_net_mj_per_s");
  ASSERT_NE(energy, nullptr);
  EXPECT_FALSE(energy->ci_overlap);
  EXPECT_EQ(energy->verdict, Verdict::kFail) << energy->mape_percent;
  EXPECT_FALSE(report.passed);
}

TEST(CampaignHook, UnvalidatableScenarioRecordsFailureInsteadOfWedging) {
  // A spec whose every design point is analytically infeasible (DWT at
  // 1 MHz exceeds 100 % duty cycle) has nothing to validate. The hook
  // must record that as a failed validation and let the campaign
  // complete — throwing would leave the scenario pending forever.
  scenario::ScenarioSpec spec = scenario::preset("hospital_ward_2");
  spec.name = "unvalidatable";
  spec.apps.assign(2, model::AppKind::kDwt);
  spec.mcu_freq_khz_grid = {1000.0};
  spec.validate();

  const TempDir dir;
  scenario::CampaignOptions options;
  options.out_dir = dir.path.string();
  options.quick = true;
  options.post_scenario = make_campaign_validation_hook({2, 10.0, 10.0});
  const scenario::CampaignReport report =
      scenario::run_campaign({spec}, options);
  EXPECT_TRUE(report.complete);

  scenario::ResultStore store(dir.path.string());
  ASSERT_TRUE(store.has_validation("unvalidatable"));
  const util::Json validation = store.load_validation("unvalidatable");
  EXPECT_FALSE(validation.at("passed").as_bool());
  EXPECT_NE(validation.at("error").as_string().find("feasible"),
            std::string::npos);
}

TEST(RunValidation, RejectsDegeneratePlans) {
  ValidationOptions no_replicates = quick_options(0);
  ValidationOptions no_duration = quick_options();
  no_duration.plan.duration_s = 0.0;
  EXPECT_THROW(run_validation(small_spec(), no_replicates), ValidationError);
  EXPECT_THROW(run_validation(small_spec(), no_duration), ValidationError);

  // Non-finite numbers fail up front: an infinite horizon would never
  // end, and an infinite tolerance would only fail at serialization.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double duration : {kInf, kNaN, -1.0}) {
    ValidationOptions options = quick_options();
    options.plan.duration_s = duration;
    EXPECT_THROW(run_validation(small_spec(), options), ValidationError)
        << duration;
  }
  for (const double tolerance : {kInf, kNaN, -1.0}) {
    ValidationOptions options = quick_options();
    options.tolerance_percent = tolerance;
    EXPECT_THROW(run_validation(small_spec(), options), ValidationError)
        << tolerance;
  }
}

TEST(Persistence, WritesJsonAndCsvIntoResultStore) {
  const TempDir dir;
  scenario::ResultStore store(dir.path.string());
  const ValidationReport report =
      run_validation(small_spec(), quick_options());
  EXPECT_FALSE(store.has_validation(report.scenario));
  persist_validation(store, report);
  EXPECT_TRUE(store.has_validation(report.scenario));

  const util::Json loaded = store.load_validation(report.scenario);
  EXPECT_EQ(loaded.at("scenario").as_string(), report.scenario);
  EXPECT_EQ(loaded.at("passed").as_bool(), report.passed);
  EXPECT_EQ(loaded.at("metrics").as_array().size(), report.metrics.size());
  // No wallclock leaks into the serialized report (byte-identity).
  EXPECT_EQ(loaded.find("wallclock_s"), nullptr);

  const std::string csv =
      read_file(store.validation_csv_path(report.scenario));
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, report.metrics.size() + 1);  // header + one row each
}

TEST(CampaignHook, ValidatesEachScenarioDeterministically) {
  std::vector<scenario::ScenarioSpec> specs = {
      scenario::preset("hospital_ward_2"), scenario::preset("hospital_ward_3")};

  CampaignValidation hook_options;
  hook_options.replicates = 3;
  hook_options.duration_s = 20.0;

  const auto run_campaign_with_hook = [&](const fs::path& out,
                                          std::size_t jobs) {
    scenario::CampaignOptions options;
    options.out_dir = out.string();
    options.quick = true;
    options.jobs = jobs;
    options.post_scenario = make_campaign_validation_hook(hook_options);
    scenario::run_campaign(specs, options);
  };

  const TempDir serial_dir, parallel_dir;
  run_campaign_with_hook(serial_dir.path, 1);
  run_campaign_with_hook(parallel_dir.path, 2);
  for (const auto& spec : specs) {
    scenario::ResultStore serial(serial_dir.path.string());
    scenario::ResultStore parallel(parallel_dir.path.string());
    ASSERT_TRUE(serial.has_validation(spec.name));
    ASSERT_TRUE(parallel.has_validation(spec.name));
    EXPECT_EQ(read_file(serial.validation_json_path(spec.name)),
              read_file(parallel.validation_json_path(spec.name)));
    EXPECT_EQ(read_file(serial.validation_csv_path(spec.name)),
              read_file(parallel.validation_csv_path(spec.name)));
    // Campaign validation is seeded from the spec's optimizer seed.
    EXPECT_EQ(serial.load_validation(spec.name).at("base_seed").as_int64(),
              static_cast<std::int64_t>(spec.optimizer.seed));
  }
}

}  // namespace
}  // namespace wsnex::validate
