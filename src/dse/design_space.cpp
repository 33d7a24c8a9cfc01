#include "dse/design_space.hpp"

#include <cassert>
#include <charconv>
#include <stdexcept>

namespace wsnex::dse {
namespace {

/// `value` as an ostream prints a double by default: %.6g.
std::string format_default(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 6);
  return std::string(buf, result.ptr);
}

void append_unsigned(std::string& out, std::size_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

}  // namespace

DesignSpaceConfig DesignSpaceConfig::case_study(std::size_t node_count) {
  DesignSpaceConfig cfg;
  cfg.node_count = node_count;
  cfg.apps.resize(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    cfg.apps[i] = i < (node_count + 1) / 2 ? model::AppKind::kDwt
                                           : model::AppKind::kCs;
  }
  return cfg;
}

DesignSpace::DesignSpace(DesignSpaceConfig config)
    : config_(std::move(config)) {
  if (config_.node_count == 0) {
    throw std::invalid_argument(
        "DesignSpace: node_count must be >= 1 (an empty network has no "
        "genome to explore)");
  }
  if (config_.apps.size() != config_.node_count) {
    throw std::invalid_argument(
        "DesignSpace: apps has " + std::to_string(config_.apps.size()) +
        " entries but node_count is " + std::to_string(config_.node_count) +
        " (every node needs exactly one application assignment)");
  }
  const auto require_non_empty = [](bool empty, const char* grid) {
    if (empty) {
      throw std::invalid_argument(
          std::string("DesignSpace: ") + grid +
          " is empty — every decision variable needs at least one value");
    }
  };
  require_non_empty(config_.cr_grid.empty(), "cr_grid");
  require_non_empty(config_.mcu_freq_khz_grid.empty(), "mcu_freq_khz_grid");
  require_non_empty(config_.payload_grid.empty(), "payload_grid");
  require_non_empty(config_.bco_grid.empty(), "bco_grid");
  require_non_empty(config_.sfo_gap_grid.empty(), "sfo_gap_grid");
  const std::size_t n = config_.node_count;
  for (std::size_t i = 0; i < n; ++i) {
    domain_sizes_.push_back(config_.cr_grid.size());
    domain_sizes_.push_back(config_.mcu_freq_khz_grid.size());
  }
  domain_sizes_.push_back(config_.payload_grid.size());
  domain_sizes_.push_back(config_.bco_grid.size());
  domain_sizes_.push_back(config_.sfo_gap_grid.size());
  for (const double cr : config_.cr_grid) {
    cr_labels_.push_back(format_default(cr));
  }
  for (const double khz : config_.mcu_freq_khz_grid) {
    mhz_labels_.push_back(format_default(khz / 1000.0));
  }
}

std::size_t DesignSpace::domain_size(std::size_t gene_index) const {
  if (gene_index >= domain_sizes_.size()) {
    throw std::out_of_range("DesignSpace::domain_size");
  }
  return domain_sizes_[gene_index];
}

double DesignSpace::cardinality() const {
  // Deliberately accumulated in double: the product overflows 64-bit
  // integers already at ~13 nodes with the default grids (32 per-node
  // combinations each, times the MAC axes), while double holds the
  // magnitude exactly long past any explorable size (exact up to 2^53,
  // approximate — never wrapping — beyond).
  double total = 1.0;
  for (std::size_t g = 0; g < genome_length(); ++g) {
    total *= static_cast<double>(domain_size(g));
  }
  return total;
}

Genome DesignSpace::random_genome(util::Rng& rng) const {
  Genome genome(genome_length());
  for (std::size_t g = 0; g < genome.size(); ++g) {
    genome[g] = static_cast<std::uint16_t>(rng.index(domain_sizes_[g]));
  }
  return genome;
}

void DesignSpace::mutate(Genome& genome, util::Rng& rng, double rate) const {
  assert(genome.size() == genome_length());
  for (std::size_t g = 0; g < genome.size(); ++g) {
    if (rng.bernoulli(rate)) {
      genome[g] = static_cast<std::uint16_t>(rng.index(domain_sizes_[g]));
    }
  }
}

Genome DesignSpace::crossover(const Genome& a, const Genome& b,
                              util::Rng& rng) const {
  Genome child;
  crossover_into(a, b, rng, child);
  return child;
}

void DesignSpace::crossover_into(const Genome& a, const Genome& b,
                                 util::Rng& rng, Genome& child) const {
  assert(a.size() == genome_length() && b.size() == genome_length());
  child.resize(a.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    child[g] = rng.bernoulli(0.5) ? a[g] : b[g];
  }
}

model::NetworkDesign DesignSpace::decode(const Genome& genome) const {
  assert(genome.size() == genome_length());
  model::NetworkDesign design;
  const std::size_t n = config_.node_count;
  design.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    model::NodeConfig& node = design.nodes[i];
    node.app = config_.apps[i];
    node.cr = config_.cr_grid[genome[2 * i]];
    node.mcu_freq_khz = config_.mcu_freq_khz_grid[genome[2 * i + 1]];
  }
  design.mac.payload_bytes = config_.payload_grid[genome[2 * n]];
  design.mac.bco = config_.bco_grid[genome[2 * n + 1]];
  const unsigned gap = config_.sfo_gap_grid[genome[2 * n + 2]];
  design.mac.sfo = design.mac.bco >= gap ? design.mac.bco - gap : 0;
  return design;
}

std::string DesignSpace::describe(const Genome& genome) const {
  std::string out;
  describe_to(genome, out);
  return out;
}

void DesignSpace::describe_to(const Genome& genome, std::string& out) const {
  assert(genome.size() == genome_length());
  // Straight from the grids, with decode()'s SFO clamp.
  const std::size_t n = config_.node_count;
  const unsigned bco = config_.bco_grid[genome[2 * n + 1]];
  const unsigned gap = config_.sfo_gap_grid[genome[2 * n + 2]];
  out += "L=";
  append_unsigned(out, config_.payload_grid[genome[2 * n]]);
  out += " BCO=";
  append_unsigned(out, bco);
  out += " SFO=";
  append_unsigned(out, bco >= gap ? bco - gap : 0);
  out += " |";
  for (std::size_t i = 0; i < n; ++i) {
    out += ' ';
    out += model::to_string(config_.apps[i]);
    out += "(CR=";
    out += cr_labels_[genome[2 * i]];
    out += ",f=";
    out += mhz_labels_[genome[2 * i + 1]];
    out += "MHz)";
  }
}

}  // namespace wsnex::dse
