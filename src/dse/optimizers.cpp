#include "dse/optimizers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/clock.hpp"

namespace wsnex::dse {
namespace {

/// Population member. Objectives live inline (no per-individual heap
/// vector): obj_count == 0 marks infeasibility, mirroring the former
/// empty-vector convention.
struct Individual {
  Genome genome;
  std::array<double, kMaxObjectives> obj{};
  std::uint8_t obj_count = 0;
  bool feasible() const { return obj_count != 0; }
};

/// NSGA-II ranking of a population: front ranks by the flat non-dominated
/// sort, crowding distances per front, then the environmental-selection
/// order as a std::sort over compact RankKeys. All working memory is
/// reused across generations.
class PopulationRanker {
 public:
  /// Ranks `pop` and returns its RankKeys best first (see
  /// detail::ranks_before); key k names the population index of the k-th
  /// best individual.
  const std::vector<detail::RankKey>& rank(const std::vector<Individual>& pop) {
    feasible_idx_.clear();
    flat_.clear();
    std::size_t m = 0;
    keys_.resize(pop.size());
    row_of_.resize(pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
      keys_[i] = {detail::RankKey::kInfeasibleFront,
                  static_cast<std::uint32_t>(i), 0.0};
      if (pop[i].feasible()) {
        row_of_[i] = feasible_idx_.size();
        feasible_idx_.push_back(i);
        m = pop[i].obj_count;
        flat_.insert(flat_.end(), pop[i].obj.begin(),
                     pop[i].obj.begin() + pop[i].obj_count);
      }
    }
    const std::size_t n = feasible_idx_.size();
    // The carried-over rows are the population's first feasible rows
    // (0..k-1), already in lexicographic order; ENS sorts only the rest.
    prefix_rows_.clear();
    for (const std::uint32_t i : carried_) {
      prefix_rows_.push_back(static_cast<std::uint32_t>(row_of_[i]));
    }
    detail::non_dominated_fronts_flat(flat_.data(), n, m, prefix_rows_,
                                      front_scratch_, fronts_);
    // Group the feasible rows by front with a stable counting sort, so
    // each front's members keep ascending population order — the order
    // its crowding sorts see.
    std::size_t front_count = 0;
    for (const std::size_t f : fronts_) {
      front_count = std::max(front_count, f + 1);
    }
    front_start_.assign(front_count + 1, 0);
    for (const std::size_t f : fronts_) ++front_start_[f + 1];
    for (std::size_t f = 0; f < front_count; ++f) {
      front_start_[f + 1] += front_start_[f];
    }
    members_.resize(n);
    fill_.assign(front_start_.begin(), front_start_.end() - 1);
    for (std::size_t k = 0; k < n; ++k) members_[fill_[fronts_[k]]++] = k;
    for (std::size_t rank = 0; rank < front_count; ++rank) {
      const std::size_t first = front_start_[rank];
      const std::size_t count = front_start_[rank + 1] - first;
      member_vals_.clear();
      for (std::size_t j = first; j < first + count; ++j) {
        const double* row = flat_.data() + members_[j] * m;
        member_vals_.insert(member_vals_.end(), row, row + m);
      }
      detail::crowding_distances_flat(member_vals_.data(), count, m,
                                      crowding_keys_, crowd_);
      for (std::size_t j = 0; j < count; ++j) {
        detail::RankKey& key = keys_[feasible_idx_[members_[first + j]]];
        key.front = static_cast<std::uint32_t>(rank);
        key.crowding = crowd_[j];
      }
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const detail::RankKey& a, const detail::RankKey& b) {
                return detail::ranks_before(a, b);
              });
    return keys_;
  }

  /// Carries the last rank()'s lexicographic order over to the next
  /// call, whose population starts with this one's first `survivors`
  /// individuals in RankKey order (or, with `reordered` false, this
  /// population unchanged).
  void carry_over(std::size_t survivors, bool reordered) {
    new_index_.assign(keys_.size(), kDropped);
    for (std::size_t k = 0; k < survivors && k < keys_.size(); ++k) {
      new_index_[reordered ? keys_[k].index : k] =
          static_cast<std::uint32_t>(k);
    }
    carried_.clear();
    for (const detail::FrontScratch::LexKey& key : front_scratch_.order) {
      const std::uint32_t i = new_index_[feasible_idx_[key.index]];
      if (i != kDropped) carried_.push_back(i);
    }
  }

 private:
  static constexpr std::uint32_t kDropped = 0xFFFFFFFFu;

  std::vector<std::size_t> feasible_idx_;
  std::vector<double> flat_;
  std::vector<std::size_t> fronts_;
  detail::FrontScratch front_scratch_;
  std::vector<std::size_t> front_start_;
  std::vector<std::size_t> fill_;
  std::vector<std::size_t> members_;
  std::vector<double> member_vals_;
  std::vector<detail::CrowdingKey> crowding_keys_;
  std::vector<double> crowd_;
  std::vector<detail::RankKey> keys_;
  std::vector<std::size_t> row_of_;     ///< population index → flat row
  std::vector<std::uint32_t> new_index_;
  std::vector<std::uint32_t> carried_;  ///< next population, lex order
  std::vector<std::uint32_t> prefix_rows_;
};

/// Evaluation state shared by the optimizers: the flat value/count
/// buffers (on the calling thread, worker slot 0) and the bookkeeping
/// that turns raw rows into archive entries and counters in index order.
class BatchRunner {
 public:
  explicit BatchRunner(const BatchObjectiveFunction& fn)
      : fn_(&fn), stride_(fn.arity()) {
    if (stride_ == 0 || stride_ > kMaxObjectives) {
      // Individuals hold objectives inline; an out-of-contract arity
      // must fail loudly, not overrun those arrays.
      throw std::invalid_argument(
          "BatchObjectiveFunction::arity() must be in 1.." +
          std::to_string(kMaxObjectives));
    }
  }

  /// Evaluates all genomes; results land in row order in row()/count().
  void evaluate(std::span<const Genome> genomes) {
    values_.resize(genomes.size() * stride_);
    counts_.resize(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      counts_[i] = static_cast<std::uint8_t>(fn_->evaluate(
          genomes[i], std::span<double>(values_).subspan(i * stride_, stride_),
          0));
    }
  }

  const double* row(std::size_t i) const {
    return values_.data() + i * stride_;
  }
  std::size_t count(std::size_t i) const { return counts_[i]; }

  /// Books row i into the result: bumps the evaluation counter and either
  /// archives the point or bumps the infeasible counter.
  bool book(std::size_t i, const Genome& genome, DseResult& result) const {
    ++result.evaluations;
    if (counts_[i] == 0) {
      ++result.infeasible_count;
      return false;
    }
    result.archive.insert(genome,
                          std::span<const double>(row(i), counts_[i]));
    return true;
  }

  /// Evaluates one genome into row 0 and books it.
  bool evaluate_one(const Genome& genome, DseResult& result) {
    evaluate(std::span<const Genome>(&genome, 1));
    return book(0, genome, result);
  }

 private:
  const BatchObjectiveFunction* fn_;
  std::size_t stride_;
  std::vector<double> values_;
  std::vector<std::uint8_t> counts_;
};

/// The optimizers run on the calling thread; `threads` above 1 is refused
/// rather than silently ignored.
void require_calling_thread(std::size_t threads, const char* optimizer) {
  if (threads > 1) {
    throw std::invalid_argument(
        std::string(optimizer) + ": threads must be 0 or 1 (the calling "
        "thread); run independent scenarios concurrently with jobs instead");
  }
}

/// When the progress sink fires: at the start, whenever the optimizer's
/// own budget counter crosses a multiple of
/// `stride = max(population, budget / 64)`, and when it reaches the budget.
/// A run therefore emits at most 2 + budget / stride snapshots (about 66
/// for any large budget, never more than 129), and which ones is a pure
/// function of the options.
class ProgressCadence {
 public:
  ProgressCadence(std::size_t budget, std::size_t population)
      : budget_(budget), stride_(std::max(population, budget / 64)) {}

  /// True when advancing the counter from `before` to `after` crosses a
  /// stride multiple or reaches the budget.
  bool due(std::size_t before, std::size_t after) const {
    return after / stride_ != before / stride_ || after == budget_;
  }

 private:
  std::size_t budget_;
  std::size_t stride_;
};

/// Fires the progress sink with a read-only snapshot of the run. Called
/// outside all PRNG draws and archive mutations, and only reads `result`,
/// so attaching a sink never perturbs the run.
void notify_progress(const ProgressSink& sink, std::size_t generation,
                     const DseResult& result, const util::Stopwatch& watch) {
  if (!sink) return;
  ProgressSnapshot snap;
  snap.generation = generation;
  snap.evaluations = result.evaluations;
  snap.archive_size = result.archive.size();
  snap.elapsed_s = watch.elapsed_s();
  snap.evals_per_s = snap.elapsed_s > 1e-9
                         ? static_cast<double>(result.evaluations) /
                               snap.elapsed_s
                         : 0.0;
  snap.archive = &result.archive;
  sink(snap);
}

}  // namespace

DseResult run_nsga2(const DesignSpace& space, const BatchObjectiveFunction& fn,
                    const Nsga2Options& options) {
  if (options.population < 4) {
    throw std::invalid_argument("run_nsga2: population must be >= 4");
  }
  require_calling_thread(options.threads, "run_nsga2");
  const util::Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  BatchRunner runner(fn);
  PopulationRanker ranker;

  // The whole generation is drawn before any evaluation. Objective calls
  // consume no PRNG state, so pulling them out of the draw loop leaves
  // the random stream — and therefore the run — bit-identical to the
  // former draw-evaluate interleaving, and the genome buffers are reused
  // from generation to generation.
  std::vector<Genome> pending(options.population);
  std::vector<Individual> population;
  std::vector<Individual> survivors;
  population.reserve(2 * options.population);
  survivors.reserve(2 * options.population);

  const auto absorb_pending = [&] {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Individual& ind = population.emplace_back();
      const std::size_t count = runner.count(i);
      runner.book(i, pending[i], result);
      ind.obj_count = static_cast<std::uint8_t>(count);
      std::copy_n(runner.row(i), count, ind.obj.begin());
      ind.genome = std::move(pending[i]);
    }
  };

  // The budget counter is the evaluation count: population individuals
  // per generation, plus the initial population.
  const ProgressCadence cadence(
      options.population * (options.generations + 1), options.population);

  for (Genome& genome : pending) genome = space.random_genome(rng);
  runner.evaluate(pending);
  absorb_pending();
  // The initial population keeps its draw order; its ranks only order
  // the first tournaments.
  std::vector<detail::RankKey> rank_of(options.population);
  for (const detail::RankKey& key : ranker.rank(population)) {
    rank_of[key.index] = key;
  }
  ranker.carry_over(options.population, false);
  notify_progress(options.progress, 0, result, watch);

  auto tournament = [&]() -> const Individual& {
    const std::size_t a = rng.index(population.size());
    const std::size_t b = rng.index(population.size());
    return detail::ranks_before(rank_of[a], rank_of[b]) ? population[a]
                                                        : population[b];
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    for (Genome& child : pending) {
      if (rng.bernoulli(options.crossover_rate)) {
        // Parent draw order is pinned explicitly: the historical
        // crossover(tournament(), tournament(), rng) call left it to the
        // (unspecified) argument evaluation order, which gcc resolves
        // right-to-left — the second tournament winner is parent `a`.
        const Individual& parent_b = tournament();
        const Individual& parent_a = tournament();
        space.crossover_into(parent_a.genome, parent_b.genome, rng, child);
      } else {
        child = tournament().genome;
      }
      space.mutate(child, rng, options.mutation_rate);
    }
    runner.evaluate(pending);
    // Environmental selection over parents + offspring.
    const std::size_t evaluations_before = result.evaluations;
    absorb_pending();
    const std::vector<detail::RankKey>& order = ranker.rank(population);
    survivors.clear();
    for (std::size_t k = 0; k < options.population; ++k) {
      survivors.push_back(std::move(population[order[k].index]));
      rank_of[k] = order[k];
    }
    // The dropped individuals' genome buffers become the next children,
    // so a warmed-up generation allocates nothing.
    for (std::size_t k = options.population; k < order.size(); ++k) {
      pending[k - options.population].swap(population[order[k].index].genome);
    }
    population.swap(survivors);
    ranker.carry_over(options.population, true);
    if (cadence.due(evaluations_before, result.evaluations)) {
      notify_progress(options.progress, gen + 1, result, watch);
    }
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

DseResult run_mosa(const DesignSpace& space, const BatchObjectiveFunction& fn,
                   const MosaOptions& options) {
  require_calling_thread(options.threads, "run_mosa");
  const util::Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  BatchRunner runner(fn);

  // Start from a feasible point (bounded retries).
  Genome current = space.random_genome(rng);
  bool have_current = runner.evaluate_one(current, result);
  for (int tries = 0; !have_current && tries < 512; ++tries) {
    current = space.random_genome(rng);
    have_current = runner.evaluate_one(current, result);
  }
  if (!have_current) {
    result.wallclock_s = watch.elapsed_s();
    return result;  // space appears infeasible everywhere sampled
  }
  const std::size_t m = runner.count(0);
  std::array<double, kMaxObjectives> current_obj{};
  std::copy_n(runner.row(0), m, current_obj.begin());

  // A neighbour the current point does not dominate is always accepted; a
  // dominated one with probability exp(-relative worsening / T), the only
  // case that draws the acceptance uniform.
  double temperature = options.initial_temperature;
  const auto accepts = [&](const double* neighbour_obj) {
    if (!detail::dominates_row(current_obj.data(), neighbour_obj, m)) {
      return true;
    }
    double worsening = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      const double denom = std::abs(current_obj[k]) + 1e-12;
      worsening += (neighbour_obj[k] - current_obj[k]) / denom;
    }
    return rng.uniform01() <
           std::exp(-worsening / std::max(temperature, 1e-9));
  };

  // The budget counter is the iteration count, one proposal per step.
  const ProgressCadence cadence(options.iterations, 1);
  Genome neighbour;
  notify_progress(options.progress, 0, result, watch);
  for (std::size_t it = 1; it <= options.iterations; ++it) {
    neighbour = current;
    space.mutate(neighbour, rng, options.mutation_rate);
    const bool feasible = runner.evaluate_one(neighbour, result);
    temperature *= options.cooling;
    if (feasible && accepts(runner.row(0))) {
      current.swap(neighbour);
      std::copy_n(runner.row(0), m, current_obj.begin());
    }
    if (cadence.due(it - 1, it)) {
      notify_progress(options.progress, it, result, watch);
    }
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

DseResult run_random_search(const DesignSpace& space,
                            const BatchObjectiveFunction& fn,
                            const RandomSearchOptions& options) {
  const util::Stopwatch watch;
  util::Rng rng(options.seed);
  DseResult result;
  BatchRunner runner(fn);
  Genome genome;
  for (std::size_t i = 0; i < options.samples; ++i) {
    genome = space.random_genome(rng);
    runner.evaluate_one(genome, result);
  }
  result.wallclock_s = watch.elapsed_s();
  return result;
}

DseResult run_exhaustive(const DesignSpace& space, const ObjectiveFunction& fn,
                         const ExhaustiveOptions& options) {
  if (space.cardinality() > options.max_cardinality) {
    throw std::invalid_argument(
        "run_exhaustive: design space too large to enumerate");
  }
  const util::Stopwatch watch;
  DseResult result;
  Genome genome(space.genome_length(), 0);
  for (;;) {
    const auto obj = fn(space.decode(genome));
    ++result.evaluations;
    if (obj) {
      result.archive.insert(genome, *obj);
    } else {
      ++result.infeasible_count;
    }
    // Odometer increment over the mixed-radix genome.
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
  result.wallclock_s = watch.elapsed_s();
  return result;
}

}  // namespace wsnex::dse
