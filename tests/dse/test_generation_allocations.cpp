// Allocation gate for NSGA-II generations: once the first generation has
// grown the ranker's and the archive's buffers, a generation allocates
// nothing. Variation writes each child into a genome buffer handed over
// from an individual the previous selection dropped, and ranking and
// selection reuse their key and scratch vectors. A constant objective
// keeps the archive at its first point, so the only difference between a
// 20- and a 40-generation run is 20 steady-state generations — which must
// add no allocation at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>

#include "allocation_counter.hpp"
#include "dse/design_space.hpp"
#include "dse/objectives.hpp"
#include "dse/optimizers.hpp"

namespace wsnex::dse {
namespace {

/// Every design is feasible and scores the same: the archive keeps its
/// first point and rejects every later one as a duplicate.
class ConstantObjective final : public BatchObjectiveFunction {
 public:
  std::size_t arity() const override { return 3; }
  std::size_t worker_slots() const override { return 1; }
  std::size_t evaluate(const Genome&, std::span<double> out,
                       std::size_t) const override {
    out[0] = 1.0;
    out[1] = 2.0;
    out[2] = 3.0;
    return 3;
  }
};

struct Measured {
  std::size_t allocations = 0;
  std::size_t evaluations = 0;
  std::size_t archive_size = 0;
};

Measured measure(std::size_t generations) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const ConstantObjective objective;
  Nsga2Options options;
  options.population = 64;
  options.generations = generations;
  options.threads = 1;
  options.seed = 11;
  const std::size_t before = g_allocations.load();
  const DseResult result = run_nsga2(space, objective, options);
  return {g_allocations.load() - before, result.evaluations,
          result.archive.size()};
}

TEST(GenerationAllocations, WarmedUpGenerationsAllocateNothing) {
  const Measured short_run = measure(20);
  const Measured long_run = measure(40);
  EXPECT_EQ(short_run.evaluations, 64u * 21u);
  EXPECT_EQ(long_run.evaluations, 64u * 41u);
  EXPECT_EQ(short_run.archive_size, 1u);
  EXPECT_EQ(long_run.archive_size, 1u);
  EXPECT_EQ(long_run.allocations, short_run.allocations)
      << "20 more generations allocated "
      << long_run.allocations - short_run.allocations << " times";
}

}  // namespace
}  // namespace wsnex::dse
