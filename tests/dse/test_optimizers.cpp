#include "dse/optimizers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace wsnex::dse {
namespace {

/// A small, fully enumerable slice of the case-study space so heuristic
/// fronts can be compared against exhaustive ground truth.
DesignSpaceConfig tiny_space_config() {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(2);
  cfg.cr_grid = {0.17, 0.26, 0.38};
  cfg.mcu_freq_khz_grid = {1000, 8000};
  cfg.payload_grid = {64};
  cfg.bco_grid = {5, 6};
  cfg.sfo_gap_grid = {0};
  return cfg;  // 3^2 * 2^2 * 1 * 2 * 1 = 72 designs
}

const model::NetworkModelEvaluator& shared_evaluator() {
  static const model::NetworkModelEvaluator evaluator =
      model::NetworkModelEvaluator::make_default();
  return evaluator;
}

TEST(Exhaustive, EnumeratesEntireSpace) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult r = run_exhaustive(space, fn);
  EXPECT_EQ(r.evaluations, static_cast<std::size_t>(space.cardinality()));
  EXPECT_GT(r.archive.size(), 0u);
  EXPECT_GT(r.infeasible_count, 0u);  // DWT at 1 MHz appears in the space
}

TEST(Exhaustive, RefusesHugeSpaces) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  const auto fn = make_full_model_objective(shared_evaluator());
  EXPECT_THROW(run_exhaustive(space, fn), std::invalid_argument);
}

TEST(Nsga2, FindsTrueFrontOnTinySpace) {
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult truth = run_exhaustive(space, fn);

  Nsga2Options opt;
  opt.population = 32;
  opt.generations = 30;
  const DseResult heuristic =
      run_nsga2(space, *make_batch_adapter(space, fn), opt);

  // Every heuristic front point must be truly non-dominated.
  for (const ArchiveEntry& e : heuristic.archive.entries()) {
    EXPECT_TRUE(truth.archive.covered(e.objectives));
    for (const ArchiveEntry& t : truth.archive.entries()) {
      ASSERT_FALSE(dominates(t.objectives, e.objectives) &&
                   !(t.objectives == e.objectives))
          << "heuristic point dominated by ground truth";
    }
  }
  // And it should recover most of the true front on a 72-point space.
  std::vector<Objectives> heuristic_front;
  for (const auto& e : heuristic.archive.entries()) {
    heuristic_front.push_back(e.objectives);
  }
  std::vector<Objectives> true_front;
  for (const auto& e : truth.archive.entries()) {
    true_front.push_back(e.objectives);
  }
  EXPECT_GT(coverage_fraction(heuristic_front, true_front), 0.9);
}

TEST(Nsga2, DeterministicPerSeed) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  Nsga2Options opt;
  opt.population = 16;
  opt.generations = 10;
  const DseResult a = run_nsga2(space, *fn, opt);
  const DseResult b = run_nsga2(space, *fn, opt);
  ASSERT_EQ(a.archive.size(), b.archive.size());
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Nsga2, RejectsDegeneratePopulation) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  Nsga2Options opt;
  opt.population = 2;
  EXPECT_THROW(run_nsga2(space, *fn, opt), std::invalid_argument);
}

TEST(Optimizers, ThreadsAboveOneAreRefusedNamingJobs) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  Nsga2Options nsga2;
  nsga2.population = 16;
  nsga2.generations = 2;
  MosaOptions mosa;
  mosa.iterations = 16;
  // 0 and 1 both mean the calling thread.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    nsga2.threads = mosa.threads = threads;
    EXPECT_NO_THROW((void)run_nsga2(space, *fn, nsga2));
    EXPECT_NO_THROW((void)run_mosa(space, *fn, mosa));
  }
  nsga2.threads = mosa.threads = 2;
  const auto expect_refused = [](const auto& run) {
    try {
      (void)run();
      ADD_FAILURE() << "threads = 2 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos)
          << e.what();
    }
  };
  expect_refused([&] { return run_nsga2(space, *fn, nsga2); });
  expect_refused([&] { return run_mosa(space, *fn, mosa); });
}

TEST(Mosa, ProducesFeasibleFront) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  MosaOptions opt;
  opt.iterations = 800;
  const DseResult r = run_mosa(space, *fn, opt);
  EXPECT_GT(r.archive.size(), 0u);
  // iterations plus however many restarts it took to find a feasible seed.
  EXPECT_GE(r.evaluations, 801u);
  EXPECT_LE(r.evaluations, 801u + 512u);
  // Archive members mutually non-dominated (archive invariant).
  for (const auto& a : r.archive.entries()) {
    for (const auto& b : r.archive.entries()) {
      if (&a == &b) continue;
      ASSERT_FALSE(dominates(a.objectives, b.objectives));
    }
  }
}

TEST(Mosa, ComparableQualityToNsga2) {
  // Section 5.2: GA and SA show "no relevant difference in terms of
  // quality of the solutions". Check both reach >70% of the true front on
  // the tiny space.
  const DesignSpace space(tiny_space_config());
  const auto fn = make_full_model_objective(shared_evaluator());
  const DseResult truth = run_exhaustive(space, fn);
  std::vector<Objectives> true_front;
  for (const auto& e : truth.archive.entries()) {
    true_front.push_back(e.objectives);
  }

  MosaOptions mosa_opt;
  mosa_opt.iterations = 1500;
  const DseResult mosa =
      run_mosa(space, *make_batch_adapter(space, fn), mosa_opt);
  std::vector<Objectives> mosa_front;
  for (const auto& e : mosa.archive.entries()) {
    mosa_front.push_back(e.objectives);
  }
  EXPECT_GT(coverage_fraction(mosa_front, true_front), 0.7);
}

TEST(RandomSearch, FindsSomethingAndCountsEvaluations) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  RandomSearchOptions opt;
  opt.samples = 200;
  const DseResult r = run_random_search(space, *fn, opt);
  EXPECT_EQ(r.evaluations, 200u);
  EXPECT_GT(r.archive.size(), 0u);
}

TEST(Optimizers, BaselineObjectiveHasTwoDimensions) {
  const DesignSpace space(tiny_space_config());
  const model::BaselineEnergyDelayModel baseline(shared_evaluator());
  const auto fn = make_batch_adapter(space, make_baseline_objective(baseline));
  RandomSearchOptions opt;
  opt.samples = 50;
  const DseResult r = run_random_search(space, *fn, opt);
  ASSERT_GT(r.archive.size(), 0u);
  for (const auto& e : r.archive.entries()) {
    ASSERT_EQ(e.objectives.size(), 2u);
  }
}

/// The part of a snapshot that must be a pure function of the options.
struct SnapshotRecord {
  std::size_t generation = 0;
  std::size_t evaluations = 0;
  std::size_t archive_size = 0;
  double hypervolume = 0.0;

  bool operator==(const SnapshotRecord&) const = default;
};

ProgressSink recording_sink(std::vector<SnapshotRecord>& into) {
  return [&into](const ProgressSnapshot& snap) {
    into.push_back({snap.generation, snap.evaluations, snap.archive_size,
                    hypervolume(*snap.archive, {1e4, 1e3, 1e3})});
  };
}

void expect_strictly_increasing(const std::vector<SnapshotRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].generation, records[i - 1].generation) << i;
    EXPECT_GT(records[i].evaluations, records[i - 1].evaluations) << i;
  }
}

TEST(ProgressSink, DefaultNsga2FiresOncePerGenerationAtAnyThreadCount) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  Nsga2Options opt;  // default budget: 64 x (60 + 1) evaluations
  const DseResult silent = run_nsga2(space, *memo, opt);
  std::vector<SnapshotRecord> serial;
  opt.progress = recording_sink(serial);
  const DseResult observed = run_nsga2(space, *memo, opt);

  // stride = max(64, 3904 / 64) = 64: the start plus every generation.
  ASSERT_EQ(serial.size(), 61u);
  EXPECT_EQ(serial.front().generation, 0u);
  EXPECT_EQ(serial.front().evaluations, 64u);
  EXPECT_EQ(serial.back().generation, 60u);
  EXPECT_EQ(serial.back().evaluations, observed.evaluations);
  expect_strictly_increasing(serial);
  EXPECT_EQ(silent.evaluations, observed.evaluations);
  EXPECT_TRUE(same_entries(silent.archive, observed.archive));
}

TEST(ProgressSink, DefaultMosaFiresOnIterationCadenceAtAnyThreadCount) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  MosaOptions opt;  // default budget: 4000 iterations
  const DseResult silent = run_mosa(space, *memo, opt);
  std::vector<SnapshotRecord> serial;
  opt.progress = recording_sink(serial);
  const DseResult observed = run_mosa(space, *memo, opt);

  // stride = max(1, 4000 / 64) = 62: iteration 0, 62, ..., 3968, 4000.
  ASSERT_EQ(serial.size(), 66u);
  for (std::size_t i = 0; i + 1 < serial.size(); ++i) {
    EXPECT_EQ(serial[i].generation, 62u * i);
  }
  EXPECT_EQ(serial.back().generation, 4000u);
  EXPECT_EQ(serial.back().evaluations, observed.evaluations);
  expect_strictly_increasing(serial);
  EXPECT_EQ(silent.evaluations, observed.evaluations);
  EXPECT_TRUE(same_entries(silent.archive, observed.archive));
}

TEST(ProgressSink, LargeNsga2BudgetStaysNearSixtyFourSnapshots) {
  const DesignSpace space(tiny_space_config());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(shared_evaluator()));
  Nsga2Options opt;
  opt.population = 16;
  opt.generations = 100;  // budget 1616: stride max(16, 25) = 25
  std::vector<SnapshotRecord> records;
  opt.progress = recording_sink(records);
  const DseResult r = run_nsga2(space, *fn, opt);
  // The start, the 64 generations that cross a multiple of 25, the end.
  EXPECT_EQ(records.size(), 66u);
  EXPECT_EQ(records.back().evaluations, r.evaluations);
  expect_strictly_increasing(records);
}

}  // namespace
}  // namespace wsnex::dse
