// Cross-module integration tests: the analytical model, the hardware
// energy simulator and the packet-level network simulator must agree on
// the same design points — this is the paper's whole validation story.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <cmath>
#include <tuple>

#include "dse/optimizers.hpp"
#include "model/evaluator.hpp"
#include "sim/network.hpp"
#include "util/random.hpp"

namespace wsnex {
namespace {

const model::NetworkModelEvaluator& shared_evaluator() {
  static const model::NetworkModelEvaluator evaluator =
      model::NetworkModelEvaluator::make_default();
  return evaluator;
}

/// Builds a packet-simulator scenario from a model-evaluated design.
sim::NetworkScenario scenario_from(const model::NetworkDesign& design,
                                   const model::NetworkEvaluation& eval,
                                   double duration_s) {
  sim::NetworkScenario sc;
  sc.mac = design.mac;
  sc.mac.gts_slots.clear();
  for (const auto& nq : eval.assignment.nodes) {
    sc.mac.gts_slots.push_back(nq.slots);
  }
  const auto& chain = shared_evaluator().chain();
  for (const auto& node : design.nodes) {
    sc.traffic.push_back(
        {chain.phi_in_bytes_per_s() * node.cr, chain.window_period_s()});
  }
  sc.duration_s = duration_s;
  return sc;
}

using EndToEndParam = std::tuple<unsigned, std::size_t, double>;

class ModelVsSimulation : public ::testing::TestWithParam<EndToEndParam> {};

TEST_P(ModelVsSimulation, SlotAssignmentSustainsLoadAndBoundHolds) {
  const auto [bco, payload, cr] = GetParam();
  model::NetworkDesign design;
  design.mac.payload_bytes = payload;
  design.mac.bco = bco;
  design.mac.sfo = bco;
  design.nodes = {{model::AppKind::kDwt, cr, 8000.0},
                  {model::AppKind::kDwt, cr, 8000.0},
                  {model::AppKind::kDwt, cr, 8000.0},
                  {model::AppKind::kCs, cr, 8000.0},
                  {model::AppKind::kCs, cr, 8000.0},
                  {model::AppKind::kCs, cr, 8000.0}};

  const model::NetworkEvaluation eval = shared_evaluator().evaluate(design);
  if (!eval.feasible) {
    GTEST_SKIP() << "infeasible configuration: " << eval.infeasibility_reason;
  }

  const sim::NetworkResult result =
      sim::run_network(scenario_from(design, eval, 200.0));

  // 1. The Eq. 1-2 assignment sustains the offered load in simulation.
  EXPECT_TRUE(result.stable());
  EXPECT_EQ(result.channel_collisions, 0u);

  // 2. The Eq. 9 worst-case bound holds for every node's observed maximum.
  for (std::size_t n = 0; n < result.nodes.size(); ++n) {
    if (result.nodes[n].frame_latency.count() == 0) continue;
    EXPECT_LE(result.nodes[n].frame_latency.max(),
              eval.nodes[n].delay_bound_s + 1e-9)
        << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelVsSimulation,
    ::testing::Combine(::testing::Values(5u, 6u, 7u),
                       ::testing::Values(std::size_t{48}, std::size_t{80}),
                       ::testing::Values(0.17, 0.29, 0.38)));

TEST(EndToEnd, ModelTracksHardwareSimulatorAcrossFeasibleSpace) {
  // Sample the whole design space. Away from the calibration configuration
  // (L_payload = 64, BCO = SFO = 6) the calibrated per-bit radio constants
  // drift from the true traffic mix, so the band here is wider than the
  // <= 2% of the Fig. 3 configurations — but must stay within ~5%.
  const dse::DesignSpace space(dse::DesignSpaceConfig::case_study(6));
  util::Rng rng(2024);
  int checked = 0;
  for (int trial = 0; trial < 300 && checked < 20; ++trial) {
    const auto design = space.decode(space.random_genome(rng));
    const model::NetworkEvaluation eval = shared_evaluator().evaluate(design);
    if (!eval.feasible) continue;
    const auto measured = measure_network_energy(shared_evaluator(), design);
    for (std::size_t n = 0; n < design.nodes.size(); ++n) {
      ASSERT_TRUE(measured[n].feasible);
      const double err = std::abs(eval.nodes[n].energy.total() -
                                  measured[n].breakdown.total()) /
                         measured[n].breakdown.total();
      EXPECT_LT(err, 0.05) << "node " << n;
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(EndToEnd, DseFrontValidatesInSimulation) {
  // Run a short DSE, then replay three Pareto designs in the packet
  // simulator: every one must be schedulable and stable.
  const dse::DesignSpace space(dse::DesignSpaceConfig::case_study(6));
  const auto fn = dse::make_full_model_objective(shared_evaluator());
  dse::Nsga2Options opt;
  opt.population = 24;
  opt.generations = 12;
  const dse::DseResult result =
      dse::run_nsga2(space, *dse::make_batch_adapter(space, fn), opt);
  ASSERT_GE(result.archive.size(), 3u);

  int validated = 0;
  for (const dse::ArchiveEntry& entry : result.archive.entries()) {
    if (validated >= 3) break;
    const auto design = space.decode(entry.genome);
    const model::NetworkEvaluation eval = shared_evaluator().evaluate(design);
    ASSERT_TRUE(eval.feasible);
    const sim::NetworkResult sim_result =
        sim::run_network(scenario_from(design, eval, 120.0));
    EXPECT_TRUE(sim_result.stable()) << space.describe(entry.genome);
    EXPECT_EQ(sim_result.channel_collisions, 0u);
    ++validated;
  }
  EXPECT_EQ(validated, 3);
}

TEST(EndToEnd, ModelEvaluationVastlyFasterThanSimulation) {
  // Section 5.2's speedup claim, scaled down: evaluating the model must be
  // at least 1000x faster than simulating one minute of network time.
  model::NetworkDesign design;
  design.mac.payload_bytes = 64;
  design.mac.bco = 6;
  design.mac.sfo = 6;
  design.nodes.assign(6, {model::AppKind::kCs, 0.29, 8000.0});

  // Warm up: the first touch of the shared evaluator runs the one-off PRD
  // codec calibration, which must not be charged to the per-evaluation cost.
  (void)shared_evaluator().evaluate(design);

  // Best of three timing passes: the suite runs on a shared core, so a
  // single pass can be inflated by scheduler noise.
  double model_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 200; ++i) {
      (void)shared_evaluator().evaluate(design);
    }
    model_s = std::min(
        model_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() /
            200.0);
  }

  const model::NetworkEvaluation eval = shared_evaluator().evaluate(design);
  const sim::NetworkResult sim_result =
      sim::run_network(scenario_from(design, eval, 600.0));
  EXPECT_GT(sim_result.wallclock_s / model_s, 1e3);
}

}  // namespace
}  // namespace wsnex
