#include "dse/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.hpp"

namespace wsnex::dse {
namespace {

TEST(Dominance, TruthTable) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}));   // weakly better + one strict
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(dominates({2.0, 2.0}, {2.0, 2.0}));  // equal: no domination
  EXPECT_FALSE(dominates({3.0, 3.0}, {2.0, 2.0}));
}

TEST(Dominance, IsAntisymmetricAndTransitiveOnSamples) {
  util::Rng rng(1);
  std::vector<Objectives> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  for (const auto& a : pts) {
    for (const auto& b : pts) {
      EXPECT_FALSE(dominates(a, b) && dominates(b, a));
      for (const auto& c : pts) {
        if (dominates(a, b) && dominates(b, c)) {
          EXPECT_TRUE(dominates(a, c));
        }
      }
    }
  }
}

TEST(Fronts, KnownLayering) {
  const std::vector<Objectives> pts{
      {1.0, 4.0},  // front 0
      {2.0, 2.0},  // front 0
      {4.0, 1.0},  // front 0
      {2.0, 5.0},  // dominated by (1,4) -> front 1
      {5.0, 5.0},  // dominated by everything -> front 2
  };
  const auto fronts = non_dominated_fronts(pts);
  EXPECT_EQ(fronts[0], 0u);
  EXPECT_EQ(fronts[1], 0u);
  EXPECT_EQ(fronts[2], 0u);
  EXPECT_EQ(fronts[3], 1u);
  EXPECT_EQ(fronts[4], 2u);
}

TEST(Fronts, AllEqualPointsShareFrontZero) {
  const std::vector<Objectives> pts(5, Objectives{1.0, 1.0});
  for (std::size_t f : non_dominated_fronts(pts)) EXPECT_EQ(f, 0u);
}

TEST(Fronts, EmptyObjectiveVectorsShareFrontZero) {
  // Zero-arity points are all mutually equal; they must land in front 0
  // (and the sort must not read past the empty rows).
  const std::vector<Objectives> pts(3, Objectives{});
  const auto fronts = non_dominated_fronts(pts);
  ASSERT_EQ(fronts.size(), 3u);
  for (std::size_t f : fronts) EXPECT_EQ(f, 0u);
}

TEST(Crowding, BoundaryPointsInfinite) {
  const std::vector<Objectives> front{{1.0, 4.0}, {2.0, 2.0}, {4.0, 1.0}};
  const auto crowd = crowding_distances(front);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[2]));
  EXPECT_TRUE(std::isfinite(crowd[1]));
  EXPECT_GT(crowd[1], 0.0);
}

TEST(Crowding, DenserPointsScoreLower) {
  const std::vector<Objectives> front{
      {0.0, 10.0}, {1.0, 8.9}, {1.2, 8.8}, {5.0, 5.0}, {10.0, 0.0}};
  const auto crowd = crowding_distances(front);
  // Points 1 and 2 sit close together; point 3 is isolated.
  EXPECT_LT(crowd[1], crowd[3]);
  EXPECT_LT(crowd[2], crowd[3]);
}

TEST(Archive, KeepsOnlyNonDominated) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({}, {2.0, 2.0}));
  EXPECT_FALSE(archive.insert({}, {3.0, 3.0}));  // dominated
  EXPECT_TRUE(archive.insert({}, {1.0, 3.0}));   // incomparable
  EXPECT_TRUE(archive.insert({}, {0.5, 0.5}));   // dominates everything
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_TRUE(archive.covered({0.6, 0.6}));
  EXPECT_FALSE(archive.covered({0.4, 0.6}));
}

TEST(Archive, RejectsDuplicates) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({}, {1.0, 2.0}));
  EXPECT_FALSE(archive.insert({}, {1.0, 2.0}));
  EXPECT_EQ(archive.size(), 1u);
}

TEST(Archive, InvariantUnderRandomInsertions) {
  ParetoArchive archive;
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    archive.insert({}, {rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 1)});
  }
  // Property: members are mutually non-dominated.
  const auto& entries = archive.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i == j) continue;
      ASSERT_FALSE(dominates(entries[i].objectives, entries[j].objectives));
    }
  }
  EXPECT_GT(archive.size(), 5u);
}

// --- Reference equivalence for the key-sorted ranking paths -------------

/// Crowding distances as they were computed before the key sorts: an
/// index permutation sorted through the value matrix.
std::vector<double> reference_crowding(const std::vector<double>& vals,
                                       std::size_t n, std::size_t m) {
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return vals[a * m + obj] < vals[b * m + obj];
    });
    const double lo = vals[order.front() * m + obj];
    const double hi = vals[order.back() * m + obj];
    out[order.front()] = std::numeric_limits<double>::infinity();
    out[order.back()] = std::numeric_limits<double>::infinity();
    if (hi == lo) continue;
    for (std::size_t k = 1; k + 1 < n; ++k) {
      out[order[k]] += (vals[order[k + 1] * m + obj] -
                        vals[order[k - 1] * m + obj]) /
                       (hi - lo);
    }
  }
  return out;
}

/// Tie-heavy rows: values drawn from a few levels, whole rows repeated.
std::vector<double> tie_heavy_rows(util::Rng& rng, std::size_t n,
                                   std::size_t m) {
  std::vector<double> vals;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.25)) {
      const std::size_t j = rng.index(i);  // duplicate an earlier row
      for (std::size_t k = 0; k < m; ++k) vals.push_back(vals[j * m + k]);
      continue;
    }
    for (std::size_t k = 0; k < m; ++k) {
      vals.push_back(0.25 * static_cast<double>(rng.index(5)));
    }
  }
  return vals;
}

TEST(Crowding, KeySortMatchesIndexSortReferenceBitForBit) {
  util::Rng rng(2024);
  std::vector<detail::CrowdingKey> keys;
  std::vector<double> got;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = rng.index(40);
    const std::size_t m = 1 + rng.index(4);
    const std::vector<double> vals = tie_heavy_rows(rng, n, m);
    detail::crowding_distances_flat(vals.data(), n, m, keys, got);
    const std::vector<double> want = reference_crowding(vals, n, m);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "trial " << trial << " row " << i;
    }
  }
}

/// A population member as the environmental selection sorted it before
/// the key sort: the whole individual, compared field by field.
struct ReferenceIndividual {
  std::vector<std::uint16_t> genome;
  bool feasible = true;
  std::size_t front = 0;
  double crowding = 0.0;
  std::size_t id = 0;
};

bool reference_better(const ReferenceIndividual& a,
                      const ReferenceIndividual& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) return false;
  if (a.front != b.front) return a.front < b.front;
  return a.crowding > b.crowding;
}

TEST(RankKeys, PopulationSortMatchesWholeIndividualSortPermutation) {
  util::Rng rng(77);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 4 + rng.index(200);
    std::vector<ReferenceIndividual> pop(n);
    std::vector<detail::RankKey> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      ReferenceIndividual& ind = pop[i];
      ind.id = i;
      ind.genome.assign(15, static_cast<std::uint16_t>(i));
      if (i > 0 && rng.bernoulli(0.2)) {
        // A duplicate of an earlier individual: same rank, same crowding.
        const ReferenceIndividual& src = pop[rng.index(i)];
        ind.feasible = src.feasible;
        ind.front = src.front;
        ind.crowding = src.crowding;
      } else {
        ind.feasible = !rng.bernoulli(0.15);
        // Infeasible members carry the ranker's sentinel values.
        ind.front = ind.feasible ? rng.index(4)
                                 : std::numeric_limits<std::size_t>::max();
        const double levels[] = {0.0, 0.5, 1.0, inf, inf};
        ind.crowding = ind.feasible ? levels[rng.index(5)] : 0.0;
      }
      keys[i] = {ind.feasible ? static_cast<std::uint32_t>(ind.front)
                              : detail::RankKey::kInfeasibleFront,
                 static_cast<std::uint32_t>(i), ind.crowding};
    }
    std::sort(pop.begin(), pop.end(), reference_better);
    std::sort(keys.begin(), keys.end(),
              [](const detail::RankKey& a, const detail::RankKey& b) {
                return detail::ranks_before(a, b);
              });
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(keys[k].index, pop[k].id) << "trial " << trial << " rank " << k;
    }
  }
}

// --- Reference equivalence for the two-pass archive insert -------------

/// The single-pass archive insert the two-pass scan replaced: members
/// newest first, rejection or swap-erase eviction decided per member.
class ReferenceArchive {
 public:
  bool insert(const Objectives& c) {
    const std::size_t m = c.size();
    if (last_rejector_ < rows_.size() && !worse(rows_[last_rejector_], c)) {
      return false;
    }
    std::size_t i = rows_.size();
    while (i-- > 0) {
      if (!worse(rows_[i], c)) {
        last_rejector_ = i;
        return false;
      }
      bool c_worse = false;
      for (std::size_t k = 0; k < m; ++k) c_worse |= c[k] > rows_[i][k];
      if (!c_worse) {
        rows_[i] = rows_.back();
        rows_.pop_back();
      }
    }
    rows_.push_back(c);
    return true;
  }
  const std::vector<Objectives>& rows() const { return rows_; }

 private:
  static bool worse(const Objectives& e, const Objectives& c) {
    for (std::size_t k = 0; k < c.size(); ++k) {
      if (e[k] > c[k]) return true;
    }
    return false;
  }
  std::vector<Objectives> rows_;
  std::size_t last_rejector_ = static_cast<std::size_t>(-1);
};

TEST(Archive, TwoPassInsertMatchesSinglePassReference) {
  util::Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 2 + rng.index(3);  // arity 2, 3 and 4
    ParetoArchive archive;
    ReferenceArchive reference;
    const Genome genome(15, 0);
    for (int step = 0; step < 400; ++step) {
      Objectives c(m);
      for (double& v : c) v = 0.125 * static_cast<double>(rng.index(9));
      ASSERT_EQ(archive.insert(genome, std::span<const double>(c)),
                reference.insert(c))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(archive.size() * m, archive.objectives_flat().size());
    }
    // Same members; entry order is outside the contract.
    std::vector<Objectives> got, want = reference.rows();
    for (std::size_t i = 0; i < archive.size(); ++i) {
      got.push_back(archive.entries()[i].objectives);
      ASSERT_TRUE(std::equal(got.back().begin(), got.back().end(),
                             archive.objectives_flat().begin() +
                                 static_cast<std::ptrdiff_t>(i * m)))
          << "flat mirror out of step at entry " << i;
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(Coverage, FullAndEmpty) {
  const std::vector<Objectives> ref{{1.0, 1.0}, {2.0, 0.5}};
  EXPECT_DOUBLE_EQ(coverage_fraction(ref, ref), 1.0);  // equal counts
  EXPECT_DOUBLE_EQ(coverage_fraction({}, ref), 0.0);
  EXPECT_DOUBLE_EQ(coverage_fraction(ref, {}), 0.0);
}

TEST(Coverage, PartialCoverage) {
  const std::vector<Objectives> ref{{1.0, 1.0}, {5.0, 0.2}};
  const std::vector<Objectives> cand{{0.5, 0.9}};  // covers only (1,1)
  EXPECT_DOUBLE_EQ(coverage_fraction(cand, ref), 0.5);
}

TEST(Hypervolume, KnownTwoD) {
  // Single point (1,1) with reference (3,3): box 2x2.
  EXPECT_NEAR(hypervolume({{1.0, 1.0}}, {3.0, 3.0}), 4.0, 1e-12);
  // Staircase {(1,2),(2,1)} ref (3,3): 2*1 + 1*... = area 3.
  EXPECT_NEAR(hypervolume({{1.0, 2.0}, {2.0, 1.0}}, {3.0, 3.0}), 3.0, 1e-12);
}

TEST(Hypervolume, PointsOutsideReferenceIgnored) {
  EXPECT_NEAR(hypervolume({{4.0, 4.0}}, {3.0, 3.0}), 0.0, 1e-12);
  // A point past the reference in x dominates nothing inside the box.
  EXPECT_NEAR(hypervolume({{1.0, 1.0}, {4.0, 0.0}}, {3.0, 3.0}), 4.0, 1e-12);
}

TEST(Hypervolume, KnownThreeD) {
  // Single point (1,1,1), reference (2,2,2): unit cube.
  EXPECT_NEAR(hypervolume({{1.0, 1.0, 1.0}}, {2.0, 2.0, 2.0}), 1.0, 1e-12);
  // Two disjointly-dominating points.
  const double hv =
      hypervolume({{0.0, 1.0, 1.0}, {1.0, 0.0, 1.0}}, {2.0, 2.0, 2.0});
  // Each dominates a 2x1x1... region; union = 2*1*1 + 2*1*1 - 1*1*1 = 3.
  EXPECT_NEAR(hv, 3.0, 1e-12);
}

TEST(Hypervolume, MonotoneUnderAddingPoints) {
  util::Rng rng(11);
  std::vector<Objectives> front;
  const Objectives ref{1.0, 1.0, 1.0};
  double previous = 0.0;
  for (int i = 0; i < 30; ++i) {
    front.push_back({rng.uniform(0, 1), rng.uniform(0, 1),
                     rng.uniform(0, 1)});
    const double hv = hypervolume(front, ref);
    ASSERT_GE(hv, previous - 1e-12);
    previous = hv;
  }
}

// Monte Carlo cross-check: sample the reference box uniformly and count the
// fraction of samples dominated by the front. With 200k samples the standard
// error of the estimate is ~1e-3 of the box volume, so a 1% tolerance is a
// strong check that the exact sweep-line routine integrates the right region.
TEST(Hypervolume, MatchesBruteForceMonteCarloIn3D) {
  util::Rng rng(42);
  std::vector<Objectives> front;
  for (int i = 0; i < 40; ++i) {
    front.push_back(
        {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const Objectives ref{1.0, 1.0, 1.0};
  const double exact = hypervolume(front, ref);

  util::Rng sampler(43);
  const int kSamples = 200000;
  int dominated = 0;
  for (int s = 0; s < kSamples; ++s) {
    const Objectives probe{sampler.uniform(0, 1), sampler.uniform(0, 1),
                           sampler.uniform(0, 1)};
    for (const Objectives& point : front) {
      if (point[0] <= probe[0] && point[1] <= probe[1] &&
          point[2] <= probe[2]) {
        ++dominated;
        break;
      }
    }
  }
  const double estimate = static_cast<double>(dominated) / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01);
  EXPECT_GT(exact, 0.5);  // a 40-point front dominates most of the unit box
}

TEST(Hypervolume, MonteCarloWithNonUnitReferenceBox) {
  util::Rng rng(7);
  std::vector<Objectives> front;
  for (int i = 0; i < 12; ++i) {
    front.push_back({rng.uniform(0, 4), rng.uniform(0, 50),
                     rng.uniform(0, 0.5)});
  }
  const Objectives ref{4.0, 50.0, 0.5};
  const double box = 4.0 * 50.0 * 0.5;
  const double exact = hypervolume(front, ref);

  util::Rng sampler(8);
  const int kSamples = 200000;
  int dominated = 0;
  for (int s = 0; s < kSamples; ++s) {
    const Objectives probe{sampler.uniform(0, 4), sampler.uniform(0, 50),
                           sampler.uniform(0, 0.5)};
    for (const Objectives& point : front) {
      if (point[0] <= probe[0] && point[1] <= probe[1] &&
          point[2] <= probe[2]) {
        ++dominated;
        break;
      }
    }
  }
  const double estimate = box * dominated / kSamples;
  EXPECT_NEAR(exact, estimate, 0.01 * box);
}

TEST(Hypervolume, DuplicatesAndDominatedRowsContributeNothingExtra) {
  const std::vector<Objectives> base{{0.2, 0.8, 0.5}, {0.6, 0.3, 0.4}};
  const Objectives ref{1.0, 1.0, 1.0};
  const double clean = hypervolume(base, ref);
  std::vector<Objectives> noisy = base;
  noisy.push_back(base[0]);            // exact duplicate
  noisy.push_back({0.7, 0.9, 0.9});    // dominated by both
  noisy.push_back({2.0, 0.1, 0.1});    // beyond reference in x
  EXPECT_NEAR(hypervolume(noisy, ref), clean, 1e-12);
}

TEST(Hypervolume, FlatRoutineMatchesVectorOverloadOnStridedRows) {
  util::Rng rng(13);
  std::vector<Objectives> front;
  // Strided storage with a junk fourth column, as the archive mirror would
  // never produce but the flat API permits.
  std::vector<double> flat;
  const std::size_t stride = 4;
  for (int i = 0; i < 25; ++i) {
    Objectives point{rng.uniform(0, 1), rng.uniform(0, 1),
                     rng.uniform(0, 1)};
    flat.insert(flat.end(), point.begin(), point.end());
    flat.push_back(-99.0);
    front.push_back(std::move(point));
  }
  const double ref[3] = {1.0, 1.0, 1.0};
  Hypervolume3Scratch scratch;
  const double via_flat =
      hypervolume3_flat(flat.data(), front.size(), stride, ref, scratch);
  EXPECT_NEAR(via_flat, hypervolume(front, {1.0, 1.0, 1.0}), 1e-12);
  // Scratch reuse across calls must not change the answer.
  EXPECT_NEAR(
      hypervolume3_flat(flat.data(), front.size(), stride, ref, scratch),
      via_flat, 1e-15);
}

TEST(Hypervolume, ArchiveOverloadUsesFlatMirror) {
  ParetoArchive archive;
  util::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    archive.insert({}, {rng.uniform(0, 1), rng.uniform(0, 1),
                        rng.uniform(0, 1)});
  }
  std::vector<Objectives> front;
  for (const auto& entry : archive.entries()) {
    front.push_back(entry.objectives);
  }
  const Objectives ref{1.0, 1.0, 1.0};
  EXPECT_NEAR(hypervolume(archive, ref), hypervolume(front, ref), 1e-12);
  EXPECT_DOUBLE_EQ(hypervolume(ParetoArchive{}, ref), 0.0);
}

TEST(Hypervolume, RejectsUnsupportedDimensions) {
  EXPECT_THROW(hypervolume({{1.0}}, {2.0}), std::invalid_argument);
  EXPECT_THROW(hypervolume({{1, 1, 1, 1}}, {2, 2, 2, 2}),
               std::invalid_argument);
  EXPECT_THROW(hypervolume({{1.0, 1.0, 1.0}}, {2.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsnex::dse
