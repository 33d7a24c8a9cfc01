// Pareto dominance, non-dominated sorting and the Pareto archive.
//
// All objectives are minimized. Infeasible points never enter an archive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dse/design_space.hpp"

namespace wsnex::dse {

/// Objective vector (minimization).
using Objectives = std::vector<double>;

/// True iff `a` dominates `b`: a <= b componentwise with at least one
/// strict improvement. Vectors must be equal length.
bool dominates(const Objectives& a, const Objectives& b);

/// Fast non-dominated sort (Deb et al.): returns the front index (0 =
/// non-dominated) of each point.
std::vector<std::size_t> non_dominated_fronts(
    const std::vector<Objectives>& points);

namespace detail {

/// Reusable buffers for the flat non-dominated sort (the NSGA-II inner
/// loop calls it once per generation; persistent scratch keeps the hot
/// path allocation-free after warm-up).
struct FrontScratch {
  struct LexKey {
    double first_objective;
    std::uint32_t index;
  };
  /// One step of a front's 2D dominance staircase (three-objective fast
  /// path): the minimal (o1, o2) corners of its members, sorted by o1
  /// ascending / o2 strictly descending. o0_min carries the smallest
  /// first objective seen at an exactly-equal (o1, o2) corner, needed to
  /// resolve full-tie dominance.
  struct StairStep {
    double o1;
    double o2;
    double o0_min;
  };
  std::vector<LexKey> order;  // lexicographic processing order
  std::vector<LexKey> merged;  // merge buffer for a presorted prefix
  std::vector<std::vector<std::uint32_t>> front_members;
  std::vector<std::vector<StairStep>> staircases;
};

/// Flat-memory non-dominated sort over n points of arity m stored
/// row-major in `flat`. Writes the front index of each point into
/// `front` (resized to n). Identical output to non_dominated_fronts(),
/// which delegates here — front indices are a well-defined property of
/// the point set, independent of the algorithm. On return
/// `scratch.order` lists the rows in the lexicographic order processed.
void non_dominated_fronts_flat(const double* flat, std::size_t n,
                               std::size_t m, FrontScratch& scratch,
                               std::vector<std::size_t>& front);

/// The same, when rows 0..k-1 are already known in lexicographic order:
/// `sorted_prefix` lists exactly those k rows in that order (NSGA-II's
/// survivors, ordered by the previous generation's sort). Only rows
/// k..n-1 are sorted, then merged in. Ties between a prefix row and a
/// sorted row may land in either order, which ENS is free to process.
void non_dominated_fronts_flat(const double* flat, std::size_t n,
                               std::size_t m,
                               std::span<const std::uint32_t> sorted_prefix,
                               FrontScratch& scratch,
                               std::vector<std::size_t>& front);

/// Crowding sort key: one objective value and its row index.
struct CrowdingKey {
  double value;
  std::uint32_t index;
};

/// Crowding distances over n contiguous rows of arity m, written into
/// `out` (resized to n); `keys` is reused across calls. Shared core of
/// crowding_distances() and the optimizers' ranking path. Each objective
/// is ordered by std::sort over (value, index) keys compared on the value
/// alone, so the permutation — and with it which of several tied rows
/// gets a boundary's infinite distance — is exactly that of an index sort
/// with the same comparator: std::sort's moves depend only on comparison
/// outcomes. Ties are deliberately not broken by index.
void crowding_distances_flat(const double* vals, std::size_t n,
                             std::size_t m, std::vector<CrowdingKey>& keys,
                             std::vector<double>& out);

/// NSGA-II's environmental-selection key: an individual's front rank
/// (kInfeasibleFront when infeasible), its crowding distance (0 when
/// infeasible) and its population index.
struct RankKey {
  static constexpr std::uint32_t kInfeasibleFront = 0xFFFFFFFFu;
  std::uint32_t front;
  std::uint32_t index;
  double crowding;
};

/// NSGA-II's "better" order over RankKeys: feasible first, then lower
/// front, then larger crowding distance. Equal to the feasibility /
/// front / crowding comparison over whole individuals: an infeasible key
/// carries the largest front and crowding 0, so it loses to every
/// feasible key and ties every infeasible one. The population is sorted
/// with std::sort under this order and no tie-breaker — tie order decides
/// which equal individuals survive and thus the tournament picks.
inline bool ranks_before(const RankKey& a, const RankKey& b) {
  return (a.front < b.front) |
         ((a.front == b.front) & (a.crowding > b.crowding));
}

/// dominates() over flat rows (does q dominate p?) — the shared hot-path
/// predicate behind the front sort and the optimizers; same semantics as
/// the Objectives overload, with a branchless three-objective fast path.
inline bool dominates_row(const double* q, const double* p, std::size_t m) {
  if (m == 3) {
    const bool q_worse = (q[0] > p[0]) | (q[1] > p[1]) | (q[2] > p[2]);
    const bool strict = (q[0] < p[0]) | (q[1] < p[1]) | (q[2] < p[2]);
    return !q_worse && strict;
  }
  bool strict = false;
  for (std::size_t k = 0; k < m; ++k) {
    if (q[k] > p[k]) return false;
    if (q[k] < p[k]) strict = true;
  }
  return strict;
}

}  // namespace detail

/// Crowding distance of each point within one front (NSGA-II diversity).
std::vector<double> crowding_distances(const std::vector<Objectives>& front);

/// One archived solution.
struct ArchiveEntry {
  Genome genome;
  Objectives objectives;
};

/// Maintains a set of mutually non-dominated solutions. Duplicate
/// objective vectors are kept only once (first wins).
///
/// The member *set* is a pure function of the insertion sequence, but the
/// order of entries() is not part of the contract: eviction swaps the
/// last entry into the vacated slot, and a member that rejects a
/// candidate moves to the newest slot, where the next scan starts.
/// Use same_entries() for order-insensitive comparisons. All members must
/// share one objective arity.
class ParetoArchive {
 public:
  /// Attempts to insert; returns true if the point entered the archive
  /// (i.e. it is not dominated by and not identical to any member).
  /// Members dominated by the new point are evicted.
  bool insert(Genome genome, Objectives objectives);

  /// Allocation-free-on-rejection variant: the genome is copied and the
  /// objective vector materialized only if the point is accepted. Same
  /// decisions and final contents as insert() for the same sequence.
  bool insert(const Genome& genome, std::span<const double> objectives);

  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Contiguous row-major mirror of the members' objective vectors
  /// (arity()-strided, same order as entries()). Exposed for read-only
  /// whole-archive statistics (hypervolume, ideal point) without per-entry
  /// indirection.
  const std::vector<double>& objectives_flat() const { return flat_; }
  /// Objective arity shared by all members; 0 while the archive is empty.
  std::size_t arity() const { return arity_; }

  /// True iff `objectives` is dominated by (or equal to) a member.
  bool covered(const Objectives& objectives) const;

 private:
  /// Rejects (false) when a member equals/dominates the candidate, else
  /// evicts every member the candidate dominates and accepts (true).
  bool scan_and_evict(std::span<const double> objectives);

  std::vector<ArchiveEntry> entries_;
  /// Contiguous mirror of the members' objective vectors (arity_-strided,
  /// same order as entries_) so insert()/covered() scan flat memory.
  std::vector<double> flat_;
  std::size_t arity_ = 0;
};

/// Order-insensitive comparison of two archives: true iff they hold the
/// same multiset of (genome, objectives) entries, compared exactly. This
/// is the equality the optimizers' thread-count determinism guarantee is
/// stated in, since entry order depends on eviction internals.
bool same_entries(const ParetoArchive& a, const ParetoArchive& b);

/// Fraction of `reference` front points that are covered (dominated or
/// matched) by `candidate` — the C-metric used to compare the Pareto sets
/// of the full model and the energy/delay baseline (Fig. 5: the baseline
/// reaches only ~7% of the tradeoffs).
double coverage_fraction(const std::vector<Objectives>& candidate,
                         const std::vector<Objectives>& reference);

/// Hypervolume (minimization) dominated by `front` w.r.t. `reference_point`,
/// exact for 2 and 3 objectives. Points at or beyond the reference point
/// in any coordinate contribute nothing. Returns 0 for an empty front.
/// The 3-objective case delegates to hypervolume3_flat().
double hypervolume(const std::vector<Objectives>& front,
                   const Objectives& reference_point);

/// Reusable buffers for hypervolume3_flat() — the campaign progress sink
/// calls it once per snapshot, and persistent scratch keeps that
/// allocation-free after warm-up.
struct Hypervolume3Scratch {
  std::vector<std::uint32_t> order;
  std::vector<double> stair_x;
  std::vector<double> stair_y;
};

/// Exact hypervolume of n three-objective rows stored `stride`-strided in
/// `flat` (row i is flat[i*stride .. i*stride+2]), w.r.t. `reference`
/// (length 3). Sweeps the points in ascending third-objective order while
/// maintaining the 2D dominance staircase of the first two objectives
/// incrementally — O(n log n) sort plus O(n·k) staircase maintenance where
/// k is the staircase width, replacing the level-slicing routine's
/// per-level front rebuild. Dominated rows, duplicates and rows at or
/// beyond the reference point are handled (they contribute nothing).
double hypervolume3_flat(const double* flat, std::size_t n, std::size_t stride,
                         const double* reference, Hypervolume3Scratch& scratch);

/// Convenience over an archive's flat objective mirror; `reference_point`
/// must have length 3 and the archive arity must be 3 (or the archive
/// empty). Allocates its own scratch.
double hypervolume(const ParetoArchive& archive,
                   const Objectives& reference_point);

}  // namespace wsnex::dse
