// Discrete design space of the case study (Section 4.1).
//
// Tunables: per node the compression ratio CR and the MCU clock f_uC; for
// the network the payload size L_payload, the beacon order BCO and the
// superframe order SFO. With six nodes this space exceeds tens of millions
// of configurations (the paper's motivation for model-based evaluation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/evaluator.hpp"
#include "util/random.hpp"

namespace wsnex::dse {

/// A design point encoded as integer genes (indices into the domains
/// below). Fixed length: 2 genes per node + 3 MAC genes.
using Genome = std::vector<std::uint16_t>;

/// Discrete domains for every decision variable.
struct DesignSpaceConfig {
  std::size_t node_count = 6;
  /// Which application runs on each node (fixed, not explored — half DWT,
  /// half CS as in Section 4.1). Sized node_count.
  std::vector<model::AppKind> apps;
  std::vector<double> cr_grid = {0.17, 0.20, 0.23, 0.26,
                                 0.29, 0.32, 0.35, 0.38};
  std::vector<double> mcu_freq_khz_grid = {1000, 2000, 4000, 8000};
  std::vector<std::size_t> payload_grid = {32, 48, 64, 80, 96, 114};
  std::vector<unsigned> bco_grid = {4, 5, 6, 7, 8};
  /// SFO is encoded relative to BCO: sfo = bco - sfo_gap, clamped at 0.
  std::vector<unsigned> sfo_gap_grid = {0, 1, 2};

  /// Default: half the nodes run DWT, the rest CS (Section 4.1).
  static DesignSpaceConfig case_study(std::size_t node_count = 6);
};

/// Genome <-> design translation and genome generation/variation.
class DesignSpace {
 public:
  /// Validates the configuration: node_count >= 1, one application per
  /// node, and no empty decision-variable grid. Throws
  /// std::invalid_argument with an actionable message otherwise (empty
  /// grids or a zero node count would otherwise surface as downstream
  /// modulo-by-zero / out-of-bounds UB in genome generation).
  explicit DesignSpace(DesignSpaceConfig config);

  const DesignSpaceConfig& config() const { return config_; }

  std::size_t genome_length() const { return 2 * config_.node_count + 3; }

  /// Cardinality of the whole space (product of domain sizes), computed
  /// in double so large spaces report an approximate magnitude instead of
  /// overflowing an integer type.
  double cardinality() const;

  /// Uniformly random genome.
  Genome random_genome(util::Rng& rng) const;

  /// Single-gene uniform mutation with per-gene probability `rate`.
  void mutate(Genome& genome, util::Rng& rng, double rate) const;

  /// Uniform crossover of two parents.
  Genome crossover(const Genome& a, const Genome& b, util::Rng& rng) const;

  /// Allocation-free uniform crossover into an existing genome buffer
  /// (resized to the genome length). Identical gene draws to crossover().
  void crossover_into(const Genome& a, const Genome& b, util::Rng& rng,
                      Genome& child) const;

  /// Decodes a genome into an evaluable design.
  model::NetworkDesign decode(const Genome& genome) const;

  /// Human-readable form of a genome for reports, e.g.
  /// "L=64 BCO=6 SFO=5 | DWT(CR=0.17,f=8MHz) CS(CR=0.2,f=1MHz)": the
  /// grids' values as an ostream prints them by default (%.6g).
  std::string describe(const Genome& genome) const;

  /// Appends describe(genome) to `out` (the archive writer's row buffer).
  void describe_to(const Genome& genome, std::string& out) const;

  /// Domain size of gene `i` (for enumeration and property tests).
  std::size_t domain_size(std::size_t gene_index) const;

 private:
  DesignSpaceConfig config_;
  /// Domain size of every gene, in genome order.
  std::vector<std::size_t> domain_sizes_;
  /// describe()'s per-gene labels: each grid value formatted once.
  std::vector<std::string> cr_labels_;
  std::vector<std::string> mhz_labels_;
};

}  // namespace wsnex::dse
