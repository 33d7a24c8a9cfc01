// Multi-objective optimizers over the discrete design space.
//
// The paper drives its model with genetic algorithms and multi-objective
// simulated annealing "without experiencing any relevant difference in
// terms of quality of the solutions" (Section 5.2); a random sampler is
// included as the ablation baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dse/objectives.hpp"
#include "dse/pareto.hpp"

namespace wsnex::dse {

/// Common result of one DSE run.
///
/// `archive` holds every feasible non-dominated point discovered during
/// the run. Objective layout and units are whatever the supplied objective
/// returns: (E_net [mJ/s], PRD_net [%], D_net [s]) for the full model
/// (make_memoized_full_model_objective, make_full_model_objective),
/// (energy, delay [s]) for the two-metric baseline.
struct DseResult {
  ParetoArchive archive;
  std::size_t evaluations = 0;       ///< objective calls issued
  std::size_t infeasible_count = 0;  ///< designs rejected as infeasible
  double wallclock_s = 0.0;          ///< wall-clock time of the run, seconds
};

/// Read-only view of a run's state handed to a ProgressSink at each point
/// of the snapshot cadence (see ProgressSink): the run's counters plus the
/// live archive, from which a sink derives anything else it reports (the
/// campaign sink turns each snapshot into one util::events `generation`
/// event with the feasible count and hypervolume). Everything in here is
/// a copy except `archive`, which is valid only for the duration of the
/// callback.
struct ProgressSnapshot {
  /// NSGA-II: generation index (0 is the evaluated initial population).
  /// MOSA: iterations completed (0 is the feasible start point).
  std::size_t generation = 0;
  std::size_t evaluations = 0;  ///< objective calls issued so far
  std::size_t archive_size = 0;
  double elapsed_s = 0.0;    ///< seconds since the optimizer started
  double evals_per_s = 0.0;  ///< evaluations / elapsed_s (0 while elapsed ~ 0)
  /// Live archive (never null); its arity() is the objective count. Do
  /// not retain past the callback.
  const ParetoArchive* archive = nullptr;
};

/// Convergence observer. The optimizers fire it on a cadence counted in
/// their own budget: at the start, every
/// `stride = max(population, budget / 64)` steps, and at the end. NSGA-II
/// counts evaluations (budget population * (generations + 1)), so it fires
/// after whole generations; MOSA counts iterations (population 1, budget
/// `iterations`). A run thus fires at most 2 + budget / stride times — 61
/// for the default NSGA-II, 66 for the default MOSA, never more than 129 —
/// and which snapshots it delivers depends only on the options.
///
/// Strictly read-only: the optimizers invoke it outside all PRNG draws and
/// archive mutations, so attaching a sink (or not) never changes results —
/// archives stay byte-identical either way. The sink runs on the thread
/// that called the optimizer; concurrent runs (campaign lanes, serve
/// slots) each invoke their own sink from their own thread.
using ProgressSink = std::function<void(const ProgressSnapshot&)>;

/// Tuning knobs for run_nsga2(). All defaults reproduce the paper's setup
/// (a few thousand evaluations explore the ~10^4-10^6 point case-study
/// space in well under a second).
struct Nsga2Options {
  /// Individuals per generation. Must be >= 4 (binary tournament plus
  /// elitist truncation need a non-degenerate pool); run_nsga2 throws
  /// std::invalid_argument otherwise. Typical range: 16-256.
  std::size_t population = 64;
  /// Number of generation steps; >= 1. Total objective calls are roughly
  /// population * (generations + 1).
  std::size_t generations = 60;
  /// Probability in [0, 1] that two parents exchange genes (uniform
  /// crossover); at 0 offspring are pure mutants of one parent.
  double crossover_rate = 0.9;
  /// Per-gene resampling probability in [0, 1]. Values around 1/genome
  /// length give the classic one-flip-per-child behaviour.
  double mutation_rate = 0.08;  ///< per gene
  /// PRNG seed; identical seeds give bit-identical runs.
  std::uint64_t seed = 1;
  /// 0 or 1; both evaluate on the calling thread (worker slot 0). A
  /// generation's ~0.4 us evaluations are too small to split across
  /// threads, so parallelism lives one level up: run independent
  /// scenarios concurrently (campaign `jobs`, serve `slots`). Any larger
  /// value throws std::invalid_argument naming `jobs`.
  std::size_t threads = 0;
  /// Optional convergence observer, called after the initial population is
  /// ranked (generation 0) and after each generation whose evaluations
  /// cross a cadence stride or end the run — every generation when
  /// generations <= 63, as at the default budget. See ProgressSink for the
  /// cadence and the no-perturbation contract.
  ProgressSink progress;
};

/// NSGA-II (Deb et al. 2002): fast non-dominated sorting, crowding-distance
/// diversity, binary tournament selection. All discovered non-dominated
/// feasible points are accumulated into the returned archive. Pass
/// make_memoized_full_model_objective for the memoized, allocation-free
/// evaluator, or wrap a scalar ObjectiveFunction with make_batch_adapter.
DseResult run_nsga2(const DesignSpace& space, const BatchObjectiveFunction& fn,
                    const Nsga2Options& options);

/// Tuning knobs for run_mosa().
struct MosaOptions {
  /// Neighbour proposals (= objective calls); >= 1. 4000 matches the
  /// default NSGA-II evaluation budget.
  std::size_t iterations = 4000;
  /// Starting temperature of the acceptance rule, > 0. Temperatures are
  /// unitless: domination amounts are normalized per objective before the
  /// Boltzmann test, so 1.0 is a sensible default for any unit mix.
  double initial_temperature = 1.0;
  /// Geometric cooling factor in (0, 1]; temperature after k iterations is
  /// initial_temperature * cooling^k. 1.0 disables cooling.
  double cooling = 0.999;  ///< geometric cooling per iteration
  /// Per-gene resampling probability in [0, 1] used to propose neighbours.
  double mutation_rate = 0.15;
  /// PRNG seed; identical seeds give bit-identical runs.
  std::uint64_t seed = 1;
  /// 0 or 1, as Nsga2Options::threads: the annealing chain is sequential
  /// and runs on the calling thread. Any larger value throws
  /// std::invalid_argument naming `jobs`.
  std::size_t threads = 0;
  /// Optional convergence observer, called at the feasible start point
  /// (generation 0), every max(1, iterations / 64) iterations and after
  /// the last one — 66 times at the default budget. See ProgressSink for
  /// the no-perturbation contract.
  ProgressSink progress;
};

/// Archive-based multi-objective simulated annealing: a mutated neighbour
/// is accepted if it is not dominated by the current point; dominated
/// neighbours are accepted with a temperature-controlled probability
/// driven by the normalized domination amount (in the spirit of Nam/Park's
/// multiobjective SA, the algorithm the paper cites [27]). The acceptance
/// uniform is drawn only for a feasible, dominated neighbour.
DseResult run_mosa(const DesignSpace& space, const BatchObjectiveFunction& fn,
                   const MosaOptions& options);

/// Tuning knobs for run_random_search().
struct RandomSearchOptions {
  /// Uniform draws from the design space (= objective calls); >= 1.
  std::size_t samples = 4000;
  /// PRNG seed; identical seeds give bit-identical runs.
  std::uint64_t seed = 1;
};

/// Uniform random sampling baseline; evaluates inline on worker slot 0.
DseResult run_random_search(const DesignSpace& space,
                            const BatchObjectiveFunction& fn,
                            const RandomSearchOptions& options);

struct ExhaustiveOptions {
  /// Safety valve: run_exhaustive throws std::invalid_argument when
  /// space.cardinality() exceeds this (2e6 points is a few seconds of
  /// model-based evaluation; a packet simulation at the paper's reported
  /// 5-10 minutes per point would take ~38 years).
  double max_cardinality = 2e6;
};

/// Full enumeration (only for reduced spaces, e.g. correctness tests that
/// compare heuristic fronts against ground truth, with
/// make_full_model_objective as the oracle).
DseResult run_exhaustive(const DesignSpace& space, const ObjectiveFunction& fn,
                         const ExhaustiveOptions& options = {});

}  // namespace wsnex::dse
