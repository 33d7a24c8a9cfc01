#include "dse/design_space.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/registry.hpp"

namespace wsnex::dse {
namespace {

TEST(DesignSpace, CaseStudySplitsAppsHalfAndHalf) {
  const DesignSpaceConfig cfg = DesignSpaceConfig::case_study(6);
  ASSERT_EQ(cfg.apps.size(), 6u);
  int dwt = 0;
  for (auto app : cfg.apps) dwt += (app == model::AppKind::kDwt);
  EXPECT_EQ(dwt, 3);
}

TEST(DesignSpace, ConstructionRejectsInvalidConfigs) {
  // Zero nodes.
  {
    DesignSpaceConfig cfg = DesignSpaceConfig::case_study(6);
    cfg.node_count = 0;
    cfg.apps.clear();
    EXPECT_THROW(DesignSpace{cfg}, std::invalid_argument);
  }
  // apps.size() != node_count (both directions).
  {
    DesignSpaceConfig cfg = DesignSpaceConfig::case_study(6);
    cfg.apps.pop_back();
    EXPECT_THROW(DesignSpace{cfg}, std::invalid_argument);
    cfg.apps.resize(8, model::AppKind::kCs);
    EXPECT_THROW(DesignSpace{cfg}, std::invalid_argument);
  }
  // Every grid must be non-empty, and the message must name the grid.
  const auto clearing = {
      +[](DesignSpaceConfig& c) { c.cr_grid.clear(); },
      +[](DesignSpaceConfig& c) { c.mcu_freq_khz_grid.clear(); },
      +[](DesignSpaceConfig& c) { c.payload_grid.clear(); },
      +[](DesignSpaceConfig& c) { c.bco_grid.clear(); },
      +[](DesignSpaceConfig& c) { c.sfo_gap_grid.clear(); },
  };
  const char* names[] = {"cr_grid", "mcu_freq_khz_grid", "payload_grid",
                         "bco_grid", "sfo_gap_grid"};
  std::size_t i = 0;
  for (const auto clear : clearing) {
    DesignSpaceConfig cfg = DesignSpaceConfig::case_study(6);
    clear(cfg);
    try {
      DesignSpace space(cfg);
      FAIL() << "expected std::invalid_argument for empty " << names[i];
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(names[i]), std::string::npos)
          << e.what();
    }
    ++i;
  }
}

TEST(DesignSpace, CardinalityStaysFiniteFarBeyondIntegerOverflow) {
  // cardinality() accumulates in double on purpose: a 7-node space with
  // widened grids already exceeds 2^64; the result must stay a finite
  // magnitude estimate instead of wrapping.
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(7);
  cfg.cr_grid.assign(100, 0.3);
  cfg.mcu_freq_khz_grid.assign(100, 1000.0);
  const DesignSpace space(cfg);
  EXPECT_GT(space.cardinality(), 1.8e19);  // > 2^64
  EXPECT_TRUE(std::isfinite(space.cardinality()));
}

TEST(DesignSpace, GenomeLength) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  EXPECT_EQ(space.genome_length(), 15u);  // 2 * 6 + 3
}

TEST(DesignSpace, CardinalityExceedsTensOfMillions) {
  // Section 4.1: "the number of possible network configurations of this
  // case study exceeds the tens of millions".
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  EXPECT_GT(space.cardinality(), 1e7);
}

TEST(DesignSpace, RandomGenomesRespectDomains) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const Genome g = space.random_genome(rng);
    ASSERT_EQ(g.size(), space.genome_length());
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_LT(g[i], space.domain_size(i));
    }
  }
}

TEST(DesignSpace, DecodeProducesValidDesigns) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const model::NetworkDesign d = space.decode(space.random_genome(rng));
    ASSERT_EQ(d.nodes.size(), 6u);
    for (const model::NodeConfig& n : d.nodes) {
      ASSERT_GE(n.cr, 0.17);
      ASSERT_LE(n.cr, 0.38);
      ASSERT_GE(n.mcu_freq_khz, 1000.0);
      ASSERT_LE(n.mcu_freq_khz, 8000.0);
    }
    ASSERT_LE(d.mac.sfo, d.mac.bco);
    ASSERT_LE(d.mac.bco, 14u);
    ASSERT_GE(d.mac.payload_bytes, 32u);
    ASSERT_LE(d.mac.payload_bytes, 114u);
  }
}

TEST(DesignSpace, MutationStaysInDomainAndChangesGenes) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  util::Rng rng(3);
  Genome g = space.random_genome(rng);
  Genome original = g;
  int changed_runs = 0;
  for (int trial = 0; trial < 50; ++trial) {
    space.mutate(g, rng, 0.5);
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_LT(g[i], space.domain_size(i));
    }
    if (g != original) ++changed_runs;
  }
  EXPECT_GT(changed_runs, 40);
}

TEST(DesignSpace, ZeroRateMutationIsIdentity) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  util::Rng rng(4);
  Genome g = space.random_genome(rng);
  const Genome before = g;
  space.mutate(g, rng, 0.0);
  EXPECT_EQ(g, before);
}

TEST(DesignSpace, CrossoverMixesParents) {
  const DesignSpace space(DesignSpaceConfig::case_study(6));
  util::Rng rng(5);
  const Genome a(space.genome_length(), 0);
  Genome b(space.genome_length());
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint16_t>(space.domain_size(i) - 1);
  }
  const Genome child = space.crossover(a, b, rng);
  for (std::size_t i = 0; i < child.size(); ++i) {
    ASSERT_TRUE(child[i] == a[i] || child[i] == b[i]);
  }
}

TEST(DesignSpace, DescribeMentionsEveryNode) {
  const DesignSpace space(DesignSpaceConfig::case_study(4));
  util::Rng rng(6);
  const std::string text = space.describe(space.random_genome(rng));
  EXPECT_NE(text.find("DWT"), std::string::npos);
  EXPECT_NE(text.find("CS"), std::string::npos);
  EXPECT_NE(text.find("BCO"), std::string::npos);
}

TEST(DesignSpace, RejectsMalformedConfig) {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(6);
  cfg.apps.pop_back();
  EXPECT_THROW(DesignSpace{cfg}, std::invalid_argument);
  DesignSpaceConfig empty_domain = DesignSpaceConfig::case_study(6);
  empty_domain.cr_grid.clear();
  EXPECT_THROW(DesignSpace{empty_domain}, std::invalid_argument);
}

TEST(DesignSpace, SfoGapClampsAtZero) {
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(2);
  cfg.bco_grid = {0};
  cfg.sfo_gap_grid = {2};
  const DesignSpace space(cfg);
  util::Rng rng(7);
  const model::NetworkDesign d = space.decode(space.random_genome(rng));
  EXPECT_EQ(d.mac.sfo, 0u);
}

/// describe() as it was written before the label table: decode, then
/// stream every field with the stream's default formatting.
std::string reference_describe(const DesignSpace& space, const Genome& genome) {
  const model::NetworkDesign design = space.decode(genome);
  std::ostringstream os;
  os << "L=" << design.mac.payload_bytes << " BCO=" << design.mac.bco
     << " SFO=" << design.mac.sfo << " |";
  for (const model::NodeConfig& node : design.nodes) {
    os << ' ' << model::to_string(node.app) << "(CR=" << node.cr
       << ",f=" << node.mcu_freq_khz / 1000.0 << "MHz)";
  }
  return os.str();
}

/// Every genome of the space when it is small, else random ones plus the
/// all-first and all-last corners.
void expect_describe_matches_reference(const DesignSpace& space,
                                       const std::string& label) {
  util::Rng rng(5);
  std::vector<Genome> genomes = {Genome(space.genome_length(), 0)};
  Genome last(space.genome_length());
  for (std::size_t g = 0; g < last.size(); ++g) {
    last[g] = static_cast<std::uint16_t>(space.domain_size(g) - 1);
  }
  genomes.push_back(last);
  for (int i = 0; i < 500; ++i) genomes.push_back(space.random_genome(rng));
  std::string appended = "prefix";
  for (const Genome& genome : genomes) {
    const std::string want = reference_describe(space, genome);
    EXPECT_EQ(space.describe(genome), want) << label;
    appended.resize(6);
    space.describe_to(genome, appended);
    EXPECT_EQ(appended, "prefix" + want) << label;
  }
}

TEST(DesignSpace, DescribeMatchesStreamReferenceOnEveryPreset) {
  for (const auto& spec : scenario::all_presets()) {
    expect_describe_matches_reference(DesignSpace(spec.design_space_config()),
                                      spec.name);
  }
}

TEST(DesignSpace, DescribeMatchesStreamReferenceInExponentForm) {
  // Values whose %g form is exponential or rounded to six digits, and an
  // SFO gap larger than the BCO (clamped at 0).
  DesignSpaceConfig cfg = DesignSpaceConfig::case_study(7);
  cfg.cr_grid = {1e-5, 0.123456789, 0.5, 2.5e-7, 1234567.0, 0.1, 1e21};
  cfg.mcu_freq_khz_grid = {12345678.0, 0.001, 1000.0, 8000.0, 1e-2};
  cfg.payload_grid = {1, 114, 65535};
  cfg.bco_grid = {0, 1, 14};
  cfg.sfo_gap_grid = {0, 2, 15};
  expect_describe_matches_reference(DesignSpace(cfg), "exponent grids");
}

}  // namespace
}  // namespace wsnex::dse
