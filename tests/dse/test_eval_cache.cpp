// SharedEvalCache: cross-scenario sharing must never change results
// (bit-identity between shared and private memo objectives), must
// actually share (hit/miss accounting), must bypass models without a
// cache identity, and must survive concurrent insertion (run under TSan
// via WSNEX_SANITIZE=thread to exercise the locking).
#include "dse/eval_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "dse/objectives.hpp"
#include "util/random.hpp"

namespace wsnex::dse {
namespace {

model::EvaluatorOptions options_with(double theta, double fer) {
  model::EvaluatorOptions options;
  options.theta = theta;
  options.frame_error_rate = fer;
  return options;
}

/// Sweeps `count` random genomes through both objectives and asserts
/// bit-identical objective vectors and feasibility verdicts.
void expect_bit_identical(const DesignSpace& space,
                          const BatchObjectiveFunction& a,
                          const BatchObjectiveFunction& b,
                          std::size_t count) {
  util::Rng rng(7);
  std::array<double, kMaxObjectives> va{}, vb{};
  for (std::size_t i = 0; i < count; ++i) {
    const Genome genome = space.random_genome(rng);
    const std::size_t na = a.evaluate(genome, va, 0);
    const std::size_t nb = b.evaluate(genome, vb, 0);
    ASSERT_EQ(na, nb);
    for (std::size_t k = 0; k < na; ++k) {
      ASSERT_EQ(va[k], vb[k]) << "objective " << k;
    }
  }
}

TEST(SharedEvalCache, SharedObjectiveBitIdenticalToPrivateOne) {
  // Several evaluator configurations (the preset axes: theta, channel)
  // against one shared cache — every configuration must match its
  // private-memo twin exactly, proving key construction never conflates
  // two configurations.
  SharedEvalCache cache;
  const DesignSpace space(DesignSpaceConfig::case_study(4));
  for (const auto& [theta, fer] :
       {std::pair<double, double>{0.5, 0.0}, {0.5, 0.1}, {0.0, 0.0}}) {
    const auto evaluator =
        model::NetworkModelEvaluator::make_default(options_with(theta, fer));
    const auto shared =
        make_memoized_full_model_objective(evaluator, space, 1, &cache);
    const auto fresh = make_memoized_full_model_objective(evaluator, space, 1);
    expect_bit_identical(space, *shared, *fresh, 200);
  }
}

TEST(SharedEvalCache, SecondIdenticalScenarioHitsBothCaches) {
  SharedEvalCache cache;
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto evaluator = model::NetworkModelEvaluator::make_default();
  (void)make_memoized_full_model_objective(evaluator, space, 1, &cache);
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.app_table_hits, 0u);
  EXPECT_EQ(after_first.app_table_misses, 1u);
  EXPECT_GT(after_first.mac_model_misses, 0u);
  EXPECT_EQ(after_first.mac_model_hits, 0u);

  (void)make_memoized_full_model_objective(evaluator, space, 1, &cache);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.app_table_hits, 1u);
  EXPECT_EQ(after_second.app_table_misses, 1u);
  EXPECT_EQ(after_second.mac_model_hits, after_first.mac_model_misses);
  EXPECT_EQ(after_second.mac_model_misses, after_first.mac_model_misses);
}

TEST(SharedEvalCache, DifferentChannelSharesMacModelsButNotByMistake) {
  // The app-layer table is channel-independent (FER applies downstream),
  // so two channels share one table only if every key component matches;
  // MAC models are keyed on (payload, BCO, SFO) alone. What matters is
  // results stay right — covered above — and sharing still happens.
  SharedEvalCache cache;
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto ideal = model::NetworkModelEvaluator::make_default();
  const auto lossy = model::NetworkModelEvaluator::make_default(
      options_with(0.5, 0.1));
  (void)make_memoized_full_model_objective(ideal, space, 1, &cache);
  const auto first = cache.stats();
  (void)make_memoized_full_model_objective(lossy, space, 1, &cache);
  const auto second = cache.stats();
  EXPECT_EQ(second.mac_model_misses, first.mac_model_misses);
  EXPECT_GT(second.mac_model_hits, 0u);
}

TEST(SharedEvalCache, ModelWithoutIdentityBypassesTheCache) {
  /// An application model that keeps the default empty cache_key().
  class OpaqueModel final : public model::ApplicationModel {
   public:
    explicit OpaqueModel(model::AppKind kind) : kind_(kind) {}
    model::AppKind kind() const override { return kind_; }
    double output_bytes_per_s(double phi_in,
                              const model::NodeConfig& node) const override {
      return phi_in * node.cr;
    }
    model::ResourceUsage resource_usage(
        double, const model::NodeConfig& node) const override {
      model::ResourceUsage usage;
      usage.duty_cycle = 100.0 / node.mcu_freq_khz;
      usage.cycles_per_s = 1e5;
      return usage;
    }
    double quality_loss(double, const model::NodeConfig&) const override {
      return 5.0;
    }

   private:
    model::AppKind kind_;
  };
  EXPECT_TRUE(OpaqueModel(model::AppKind::kDwt).cache_key().empty());

  const auto base = model::NetworkModelEvaluator::make_default();
  const model::NetworkModelEvaluator evaluator(
      base.platform(), base.chain(),
      std::make_shared<OpaqueModel>(model::AppKind::kDwt),
      std::make_shared<OpaqueModel>(model::AppKind::kCs));
  SharedEvalCache cache;
  const DesignSpace space(DesignSpaceConfig::case_study(2));
  (void)make_memoized_full_model_objective(evaluator, space, 1, &cache);
  (void)make_memoized_full_model_objective(evaluator, space, 1, &cache);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.app_table_bypasses, 2u);
  EXPECT_EQ(stats.app_table_hits, 0u);
  EXPECT_EQ(stats.app_table_misses, 0u);
}

TEST(SharedEvalCache, ConcurrentInsertStress) {
  // Many threads hammer one cache with the same and different keys; every
  // returned table/model must be usable and same-key requests must
  // resolve to one shared instance.
  SharedEvalCache cache;
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto evaluator = model::NetworkModelEvaluator::make_default();
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const model::AppLayerTable>> tables(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        tables[t] = cache.app_table(evaluator, space.config().cr_grid,
                                    space.config().mcu_freq_khz_grid);
        (void)cache.mac_model(64, 6, 6 - static_cast<unsigned>(t % 3));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]) << "same key, different table";
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.app_table_misses, 1u);
  EXPECT_EQ(stats.app_table_hits, kThreads * 50 - 1);
}

}  // namespace
}  // namespace wsnex::dse
