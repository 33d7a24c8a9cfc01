// Allocation gate for whole simulator replicates: the packet simulation of
// a validation preset, lowered exactly as `wsnex validate` lowers it,
// allocates a small fixed number of times to set up and grow its tables,
// and never per event. Doubling the simulated horizon doubles the events
// but adds at most the one extra doubling of the growing deliveries
// vector (plus one of slack).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "allocation_counter.hpp"
#include "model/evaluator.hpp"
#include "scenario/registry.hpp"
#include "sim/network.hpp"
#include "validate/lowering.hpp"
#include "validate/validation.hpp"

namespace wsnex::sim {
namespace {

/// Upper bound on a 240-s replicate's allocations. A replicate makes
/// about 55: the network's nodes, receiver table, event heap and slot
/// table, transmit rings, deliveries and result. The bound fails long
/// before anything allocates per event (~3,200 allocations at 120 s when
/// closures or the transmit FIFO used the heap).
constexpr std::size_t kMaxReplicateAllocations = 80;

struct Measured {
  std::size_t allocations = 0;
  std::uint64_t events = 0;
};

Measured measure(const NetworkScenario& scenario) {
  const std::size_t before = g_allocations.load();
  const NetworkResult result = run_network(scenario);
  return {g_allocations.load() - before, result.events_executed};
}

class ReplicateAllocations : public ::testing::TestWithParam<const char*> {};

TEST_P(ReplicateAllocations, DoNotGrowWithSimulatedTime) {
  const scenario::ScenarioSpec spec = scenario::preset(GetParam());
  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const validate::Lowering low = validate::lower(
      spec, evaluator, validate::reference_design(spec, evaluator));
  NetworkScenario scenario = low.sim;
  scenario.seed = validate::ReplicationPlan::replicate_seed(7, 0);

  scenario.duration_s = 120.0;
  const Measured short_run = measure(scenario);
  scenario.duration_s = 240.0;
  const Measured long_run = measure(scenario);

  EXPECT_GT(long_run.events, 19 * short_run.events / 10);
  EXPECT_LE(long_run.allocations, short_run.allocations + 2)
      << short_run.allocations << " allocations at 120 s";
  EXPECT_LE(long_run.allocations, kMaxReplicateAllocations);
}

INSTANTIATE_TEST_SUITE_P(ValidationPresets, ReplicateAllocations,
                         ::testing::Values("hospital_ward_6",
                                           "bursty_channel_6",
                                           "contended_csma_6"));

}  // namespace
}  // namespace wsnex::sim
