// Determinism and bit-identity guarantees of the batched DSE engine:
//  * the memoized batch objective returns results bit-identical to the
//    uncached scalar path across a sweep of the case-study design space,
//  * the scalar oracle (through make_batch_adapter) and the memoized
//    objective drive NSGA-II, MOSA and random search to the same archive,
//  * the flat non-dominated sort matches a reference implementation.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "dse/optimizers.hpp"
#include "model/evaluator.hpp"
#include "util/random.hpp"

namespace wsnex::dse {
namespace {

const model::NetworkModelEvaluator& shared_evaluator() {
  static const model::NetworkModelEvaluator evaluator =
      model::NetworkModelEvaluator::make_default();
  return evaluator;
}

DesignSpaceConfig tiny_space_config() {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(2);
  cfg.cr_grid = {0.17, 0.26, 0.38};
  cfg.mcu_freq_khz_grid = {1000, 8000};
  cfg.payload_grid = {64};
  cfg.bco_grid = {5, 6};
  cfg.sfo_gap_grid = {0};
  return cfg;  // 72 designs, exhaustively sweepable
}

TEST(MemoizedObjective, BitIdenticalToUncachedAcrossTinySpaceSweep) {
  const DesignSpace space(tiny_space_config());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  ASSERT_EQ(memo->arity(), 3u);

  // Exhaustive odometer sweep of the reduced space.
  Genome genome(space.genome_length(), 0);
  std::size_t checked = 0;
  for (;;) {
    const std::optional<Objectives> expect = scalar(space.decode(genome));
    std::array<double, kMaxObjectives> out{};
    const std::size_t count = memo->evaluate(genome, out, 0);
    if (expect) {
      ASSERT_EQ(count, expect->size());
      for (std::size_t k = 0; k < count; ++k) {
        // Bit-identical, not merely close: the memo caches inputs only.
        ASSERT_EQ(out[k], (*expect)[k]) << "objective " << k;
      }
    } else {
      ASSERT_EQ(count, 0u);
    }
    ++checked;
    std::size_t g = 0;
    for (; g < genome.size(); ++g) {
      if (genome[g] + 1u < space.domain_size(g)) {
        ++genome[g];
        break;
      }
      genome[g] = 0;
    }
    if (g == genome.size()) break;
  }
  EXPECT_EQ(checked, static_cast<std::size_t>(space.cardinality()));
}

TEST(MemoizedObjective, BitIdenticalOnCaseStudySamples) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Genome genome = space.random_genome(rng);
    const std::optional<Objectives> expect = scalar(space.decode(genome));
    std::array<double, kMaxObjectives> out{};
    const std::size_t count = memo->evaluate(genome, out, 0);
    ASSERT_EQ(count, expect ? expect->size() : 0u);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(out[k], (*expect)[k]);
    }
  }
}

TEST(MemoizedObjective, InvalidMacGridCombinationsMatchScalarInfeasibility) {
  // A design space may legally carry protocol-invalid grid points (the
  // DesignSpace only validates non-emptiness); the memoized objective
  // must survive construction and agree with the scalar path that such
  // designs are infeasible.
  DesignSpaceConfig cfg = tiny_space_config();
  cfg.payload_grid = {64, 200};  // 200 > max MAC payload (114)
  cfg.bco_grid = {6, 15};        // 15 > max beacon order (14)
  const DesignSpace space(cfg);
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  Genome genome(space.genome_length(), 0);
  for (;;) {
    const std::optional<Objectives> expect = scalar(space.decode(genome));
    std::array<double, kMaxObjectives> out{};
    const std::size_t count = memo->evaluate(genome, out, 0);
    ASSERT_EQ(count, expect ? expect->size() : 0u);
    for (std::size_t k = 0; k < count; ++k) ASSERT_EQ(out[k], (*expect)[k]);
    std::size_t g = 0;
    for (; g < genome.size(); ++g) {
      if (genome[g] + 1u < space.domain_size(g)) {
        ++genome[g];
        break;
      }
      genome[g] = 0;
    }
    if (g == genome.size()) break;
  }
}

TEST(Nsga2, ScalarAndMemoizedBatchProduceTheSameArchive) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  Nsga2Options opt;
  opt.population = 32;
  opt.generations = 8;
  opt.seed = 1234;
  opt.threads = 1;
  const DseResult via_scalar =
      run_nsga2(space, *make_batch_adapter(space, scalar), opt);
  const DseResult via_memo = run_nsga2(space, *memo, opt);
  EXPECT_EQ(via_scalar.evaluations, via_memo.evaluations);
  EXPECT_EQ(via_scalar.infeasible_count, via_memo.infeasible_count);
  EXPECT_TRUE(same_entries(via_scalar.archive, via_memo.archive));
}

TEST(Mosa, ScalarAndMemoizedBatchProduceTheSameArchive) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  MosaOptions opt;
  opt.iterations = 600;
  opt.seed = 5;
  opt.threads = 1;
  const DseResult via_scalar =
      run_mosa(space, *make_batch_adapter(space, scalar), opt);
  const DseResult via_memo = run_mosa(space, *memo, opt);
  EXPECT_EQ(via_scalar.evaluations, via_memo.evaluations);
  EXPECT_TRUE(same_entries(via_scalar.archive, via_memo.archive));
}

TEST(RandomSearch, ScalarAndMemoizedBatchProduceTheSameArchive) {
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto memo =
      make_memoized_full_model_objective(shared_evaluator(), space, 1);
  RandomSearchOptions opt;
  opt.samples = 600;
  opt.seed = 11;
  const DseResult via_scalar =
      run_random_search(space, *make_batch_adapter(space, scalar), opt);
  const DseResult via_memo = run_random_search(space, *memo, opt);
  EXPECT_EQ(via_scalar.evaluations, via_memo.evaluations);
  EXPECT_EQ(via_scalar.infeasible_count, via_memo.infeasible_count);
  EXPECT_GT(via_memo.archive.size(), 0u);
  EXPECT_TRUE(same_entries(via_scalar.archive, via_memo.archive));
}

TEST(BatchAdapter, MatchesScalarResults) {
  const DesignSpace space(tiny_space_config());
  const auto scalar = make_full_model_objective(shared_evaluator());
  const auto batch = make_batch_adapter(space, scalar, 2);
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Genome genome = space.random_genome(rng);
    const std::optional<Objectives> expect = scalar(space.decode(genome));
    std::array<double, kMaxObjectives> out{};
    const std::size_t count = batch->evaluate(genome, out, 0);
    ASSERT_EQ(count, expect ? expect->size() : 0u);
    for (std::size_t k = 0; k < count; ++k) ASSERT_EQ(out[k], (*expect)[k]);
  }
}

TEST(EvalScratch, RepeatedEvaluationsMatchFreshOnes) {
  // The allocation-free overload must not leak state between calls, even
  // across feasible/infeasible transitions.
  const model::NetworkModelEvaluator& evaluator = shared_evaluator();
  const DesignSpace space(DesignSpaceConfig::case_study());
  util::Rng rng(11);
  model::EvalScratch scratch;
  for (int i = 0; i < 200; ++i) {
    const model::NetworkDesign design =
        space.decode(space.random_genome(rng));
    const model::NetworkEvaluation fresh = evaluator.evaluate(design);
    const model::NetworkEvaluation& reused =
        evaluator.evaluate(design, scratch);
    ASSERT_EQ(fresh.feasible, reused.feasible);
    ASSERT_EQ(fresh.infeasibility_reason, reused.infeasibility_reason);
    ASSERT_EQ(fresh.nodes.size(), reused.nodes.size());
    ASSERT_EQ(fresh.energy_metric, reused.energy_metric);
    ASSERT_EQ(fresh.prd_metric, reused.prd_metric);
    ASSERT_EQ(fresh.delay_metric_s, reused.delay_metric_s);
    for (std::size_t n = 0; n < fresh.nodes.size(); ++n) {
      ASSERT_EQ(fresh.nodes[n].phi_out_bytes_per_s,
                reused.nodes[n].phi_out_bytes_per_s);
      ASSERT_EQ(fresh.nodes[n].prd_percent, reused.nodes[n].prd_percent);
      ASSERT_EQ(fresh.nodes[n].delay_bound_s,
                reused.nodes[n].delay_bound_s);
      ASSERT_EQ(fresh.nodes[n].energy.total(),
                reused.nodes[n].energy.total());
      ASSERT_EQ(fresh.nodes[n].gts_slots, reused.nodes[n].gts_slots);
    }
  }
}

/// Reference non-dominated sort (the classic Deb peeling, kept
/// independent of the production implementation).
std::vector<std::size_t> reference_fronts(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  std::vector<std::size_t> front(n, 0);
  std::vector<bool> assigned(n, false);
  std::size_t remaining = n;
  std::size_t rank = 0;
  while (remaining > 0) {
    std::vector<std::size_t> current;
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < n && !dominated; ++j) {
        if (!assigned[j] && j != i &&
            dominates(points[j], points[i])) {
          dominated = true;
        }
      }
      if (!dominated) current.push_back(i);
    }
    for (const std::size_t i : current) {
      assigned[i] = true;
      front[i] = rank;
      --remaining;
    }
    ++rank;
  }
  return front;
}

TEST(Fronts, MatchesReferenceOnRandomAndTiedPointSets) {
  util::Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.index(60);
    std::vector<Objectives> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // A coarse value grid provokes exact ties and duplicates — the
      // regime where staircase tie-handling has to be exact.
      pts.push_back({rng.index(5) * 0.25, rng.index(5) * 0.25,
                     rng.index(5) * 0.25});
    }
    EXPECT_EQ(non_dominated_fronts(pts), reference_fronts(pts))
        << "trial " << trial << " n=" << n;
  }
}

TEST(Fronts, MatchesReferenceOnTwoAndFourObjectives) {
  util::Rng rng(29);
  for (const std::size_t m : {std::size_t{2}, std::size_t{4}}) {
    for (int trial = 0; trial < 15; ++trial) {
      const std::size_t n = 1 + rng.index(40);
      std::vector<Objectives> pts;
      for (std::size_t i = 0; i < n; ++i) {
        Objectives p;
        for (std::size_t k = 0; k < m; ++k) {
          p.push_back(rng.index(4) * 0.5);
        }
        pts.push_back(std::move(p));
      }
      EXPECT_EQ(non_dominated_fronts(pts), reference_fronts(pts));
    }
  }
}

TEST(Archive, SpanInsertMatchesVectorInsert) {
  util::Rng rng(31);
  ParetoArchive a;
  ParetoArchive b;
  for (int i = 0; i < 400; ++i) {
    const Objectives obj{rng.index(6) * 0.2, rng.index(6) * 0.2,
                         rng.index(6) * 0.2};
    const Genome g{static_cast<std::uint16_t>(i)};
    const bool ra = a.insert(g, obj);
    const bool rb = b.insert(g, std::span<const double>(obj));
    ASSERT_EQ(ra, rb);
  }
  EXPECT_TRUE(same_entries(a, b));
}

TEST(Archive, SameEntriesIsOrderInsensitive) {
  ParetoArchive a;
  ParetoArchive b;
  a.insert({1}, {1.0, 2.0});
  a.insert({2}, {2.0, 1.0});
  b.insert({2}, {2.0, 1.0});
  b.insert({1}, {1.0, 2.0});
  EXPECT_TRUE(same_entries(a, b));
  b.insert({3}, {0.5, 0.5});
  EXPECT_FALSE(same_entries(a, b));
}

}  // namespace
}  // namespace wsnex::dse
