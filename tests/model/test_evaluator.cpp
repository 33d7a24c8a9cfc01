#include "model/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace wsnex::model {
namespace {

const NetworkModelEvaluator& shared_evaluator() {
  static const NetworkModelEvaluator evaluator =
      NetworkModelEvaluator::make_default();
  return evaluator;
}

NetworkDesign case_study_design(double cr = 0.29, double f_khz = 8000.0) {
  NetworkDesign d;
  d.mac.payload_bytes = 64;
  d.mac.bco = 6;
  d.mac.sfo = 6;
  d.nodes = {{AppKind::kDwt, cr, f_khz}, {AppKind::kDwt, cr, f_khz},
             {AppKind::kDwt, cr, f_khz}, {AppKind::kCs, cr, f_khz},
             {AppKind::kCs, cr, f_khz},  {AppKind::kCs, cr, f_khz}};
  return d;
}

TEST(Evaluator, NominalDesignFeasible) {
  const NetworkEvaluation e = shared_evaluator().evaluate(case_study_design());
  ASSERT_TRUE(e.feasible) << e.infeasibility_reason;
  EXPECT_EQ(e.nodes.size(), 6u);
  EXPECT_GT(e.energy_metric, 0.0);
  EXPECT_GT(e.prd_metric, 0.0);
  EXPECT_GT(e.delay_metric_s, 0.0);
}

TEST(Evaluator, NullOrMisKindedApplicationModelThrows) {
  const NetworkModelEvaluator& base = shared_evaluator();
  const auto dwt = make_shimmer_dwt_model();
  const auto cs = make_shimmer_cs_model();
  const auto build = [&](std::shared_ptr<const ApplicationModel> dwt_slot,
                         std::shared_ptr<const ApplicationModel> cs_slot) {
    return NetworkModelEvaluator(base.platform(), base.chain(),
                                 std::move(dwt_slot), std::move(cs_slot));
  };
  EXPECT_NO_THROW(build(dwt, cs));
  EXPECT_THROW(build(nullptr, cs), std::invalid_argument);
  EXPECT_THROW(build(dwt, nullptr), std::invalid_argument);
  EXPECT_THROW(build(cs, cs), std::invalid_argument);
  EXPECT_THROW(build(dwt, dwt), std::invalid_argument);
}

TEST(Evaluator, DwtAtOneMegahertzInfeasible) {
  const NetworkEvaluation e =
      shared_evaluator().evaluate(case_study_design(0.29, 1000.0));
  EXPECT_FALSE(e.feasible);
  EXPECT_NE(e.infeasibility_reason.find("duty cycle"), std::string::npos);
}

TEST(Evaluator, EmptyDesignRejected) {
  const NetworkEvaluation e = shared_evaluator().evaluate(NetworkDesign{});
  EXPECT_FALSE(e.feasible);
}

TEST(Evaluator, GtsOverflowInfeasible) {
  NetworkDesign d = case_study_design(0.38);
  d.mac.bco = 5;
  d.mac.sfo = 2;  // tiny active period: demand exceeds 7 slots
  const NetworkEvaluation e = shared_evaluator().evaluate(d);
  EXPECT_FALSE(e.feasible);
}

TEST(Evaluator, PerNodeQuantitiesPopulated) {
  const NetworkEvaluation e = shared_evaluator().evaluate(case_study_design());
  ASSERT_TRUE(e.feasible);
  for (const NodeEvaluation& n : e.nodes) {
    EXPECT_NEAR(n.phi_out_bytes_per_s, 375.0 * 0.29, 1e-9);
    EXPECT_GT(n.energy.total(), 0.5);
    EXPECT_GT(n.prd_percent, 0.0);
    EXPECT_GT(n.delay_bound_s, 0.0);
    EXPECT_GE(n.gts_slots, 1u);
  }
  // DWT nodes burn more MCU than CS nodes at the same clock.
  EXPECT_GT(e.nodes[0].energy.mcu, e.nodes[5].energy.mcu);
  // CS nodes lose more quality.
  EXPECT_GT(e.nodes[5].prd_percent, e.nodes[0].prd_percent);
}

TEST(Evaluator, EnergyMetricRespondsToClock) {
  const NetworkEvaluation fast =
      shared_evaluator().evaluate(case_study_design(0.29, 8000.0));
  const NetworkEvaluation slow =
      shared_evaluator().evaluate(case_study_design(0.29, 4000.0));
  ASSERT_TRUE(fast.feasible && slow.feasible);
  // DWT dominates the MCU bill and scales with the affine power curve:
  // halving f roughly halves the alpha1 term but duty doubles, leaving the
  // alpha1 contribution flat while the alpha0 share doubles — 4 MHz is
  // *cheaper* overall for DWT-heavy mixes at these constants.
  EXPECT_NE(fast.energy_metric, slow.energy_metric);
}

TEST(Evaluator, PrdMetricTracksCr) {
  const NetworkEvaluation coarse =
      shared_evaluator().evaluate(case_study_design(0.17));
  const NetworkEvaluation fine =
      shared_evaluator().evaluate(case_study_design(0.38));
  ASSERT_TRUE(coarse.feasible && fine.feasible);
  EXPECT_GT(coarse.prd_metric, fine.prd_metric);
  // More data to ship costs more radio energy.
  EXPECT_LT(coarse.energy_metric, fine.energy_metric);
}

TEST(Evaluator, ThetaPenalizesHeterogeneousNetworks) {
  EvaluatorOptions balanced_opts;
  balanced_opts.theta = 2.0;
  const NetworkModelEvaluator sensitive =
      NetworkModelEvaluator::make_default(balanced_opts);

  NetworkDesign skewed = case_study_design();
  skewed.nodes[0].cr = 0.38;  // one hot node
  const NetworkEvaluation with_theta = sensitive.evaluate(skewed);

  EvaluatorOptions plain_opts;
  plain_opts.theta = 0.0;
  const NetworkModelEvaluator plain =
      NetworkModelEvaluator::make_default(plain_opts);
  const NetworkEvaluation without_theta = plain.evaluate(skewed);

  ASSERT_TRUE(with_theta.feasible && without_theta.feasible);
  EXPECT_GT(with_theta.energy_metric, without_theta.energy_metric);
}

TEST(Evaluator, HeadlineAccuracy_ModelVsMeasuredUnderTwoPercent) {
  // The Fig. 3 claim: across the case-study configurations the analytical
  // model tracks the (simulated) hardware within ~2%.
  const NetworkModelEvaluator& evaluator = shared_evaluator();
  for (double cr : {0.17, 0.23, 0.32, 0.38}) {
    for (double f : {1000.0, 8000.0}) {
      NetworkDesign d = case_study_design(cr, f);
      const NetworkEvaluation est = evaluator.evaluate(d);
      if (!est.feasible) continue;  // DWT at 1 MHz
      const auto measured = measure_network_energy(evaluator, d);
      for (std::size_t n = 0; n < d.nodes.size(); ++n) {
        ASSERT_TRUE(measured[n].feasible);
        const double err =
            std::abs(est.nodes[n].energy.total() -
                     measured[n].breakdown.total()) /
            measured[n].breakdown.total();
        EXPECT_LT(err, 0.02) << "cr=" << cr << " f=" << f << " node=" << n;
      }
    }
  }
}

TEST(Evaluator, MeasuredFlagsInfeasibleConfigs) {
  const auto measured = measure_network_energy(
      shared_evaluator(), case_study_design(0.29, 1000.0));
  // DWT nodes overload the 1 MHz clock; CS nodes stay feasible.
  EXPECT_FALSE(measured[0].feasible);
  EXPECT_TRUE(measured[5].feasible);
}

TEST(Evaluator, DelayMetricIsMaxOfNodeBounds) {
  const NetworkEvaluation e = shared_evaluator().evaluate(case_study_design());
  ASSERT_TRUE(e.feasible);
  double max_bound = 0.0;
  for (const NodeEvaluation& n : e.nodes) {
    max_bound = std::max(max_bound, n.delay_bound_s);
  }
  EXPECT_DOUBLE_EQ(e.delay_metric_s, max_bound);
}

}  // namespace
}  // namespace wsnex::model
