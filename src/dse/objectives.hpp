// Objective adapters: design -> objective vector.
//
// The optimizers evaluate through one surface, BatchObjectiveFunction:
// genome-indexed and allocation-free after warm-up. The optimizers call
// it on their own thread with worker slot 0; the slots let other callers
// evaluate one objective from several threads at once (one scratch slot
// per worker). The scalar ObjectiveFunction (design -> optional objective
// vector) remains the reference form: make_full_model_objective is the
// oracle the memoized objective is tested against and the input of
// run_exhaustive, and make_batch_adapter lifts any ObjectiveFunction onto
// the batch surface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "dse/design_space.hpp"
#include "model/baseline.hpp"

namespace wsnex::dse {

class SharedEvalCache;  // eval_cache.hpp — optional cross-scenario cache

using Objectives = std::vector<double>;

/// Evaluation callback: returns the (minimization) objective vector for a
/// design, or nullopt when the design is infeasible. Through
/// make_batch_adapter the optimizers store objectives inline, so vectors
/// are limited to kMaxObjectives components (the paper uses 3); longer
/// ones raise std::length_error on first evaluation.
using ObjectiveFunction =
    std::function<std::optional<Objectives>(const model::NetworkDesign&)>;

/// The paper's three-metric objective: (E_net [mJ/s], PRD_net [%],
/// D_net [s]) from the full multi-layer model.
ObjectiveFunction make_full_model_objective(
    const model::NetworkModelEvaluator& evaluator);

/// The state-of-the-art two-metric baseline [26]: (energy, delay) only.
ObjectiveFunction make_baseline_objective(
    const model::BaselineEnergyDelayModel& baseline);

/// Upper bound on objective-vector length supported by the batch path —
/// sized so optimizer individuals carry objectives inline (the paper's
/// full model has 3, the energy/delay baseline 2).
inline constexpr std::size_t kMaxObjectives = 4;

/// Batched, genome-indexed objective. Implementations own one scratch
/// slot per worker; calls with distinct `worker` values (each below
/// worker_slots()) may run concurrently, calls sharing a slot must not.
/// The optimizers evaluate on slot 0 only.
class BatchObjectiveFunction {
 public:
  virtual ~BatchObjectiveFunction() = default;

  /// Maximum objective values written per design — the stride callers use
  /// for batch value buffers. Never exceeds kMaxObjectives.
  virtual std::size_t arity() const = 0;

  /// Number of concurrent worker slots available.
  virtual std::size_t worker_slots() const = 0;

  /// Evaluates the design encoded by `genome`. Writes the objective
  /// vector into `out` (whose size must be >= arity()) and returns its
  /// length, or returns 0 for an infeasible design (`out` is then
  /// unspecified).
  virtual std::size_t evaluate(const Genome& genome, std::span<double> out,
                               std::size_t worker) const = 0;
};

/// Memoized full-model batch objective — the DSE fast path.
///
/// Construction precomputes (a) the application-layer stage (phi_out, PRD,
/// resource usage) for every (codec, CR, f_uC) grid point of `space` via
/// model::AppLayerTable, and (b) one Ieee802154MacModel per (payload, BCO,
/// SFO-gap) combination. evaluate() then runs only the design-dependent
/// remainder (slot assignment, radio energy, delay bounds, Eq. 8 metrics)
/// through NetworkModelEvaluator::evaluate_with_app_stage, with zero
/// steady-state allocations.
///
/// Invariants: results are bit-identical to
/// make_full_model_objective(evaluator) applied to space.decode(genome) —
/// the memo only caches inputs, every arithmetic operation happens in the
/// same model-layer functions. Both `evaluator` and `space` must outlive
/// the returned object, and the space's grids must not change.
///
/// With `cache` set, the app-layer table and the MAC models are fetched
/// from (or published to) that SharedEvalCache instead of being built
/// privately, so scenarios with overlapping grids compute each entry once
/// per process. Cached artifacts are immutable and key-matched on the
/// full configuration, so results stay bit-identical; the cache must
/// outlive the returned object.
std::unique_ptr<BatchObjectiveFunction> make_memoized_full_model_objective(
    const model::NetworkModelEvaluator& evaluator, const DesignSpace& space,
    std::size_t worker_slots = 1, SharedEvalCache* cache = nullptr);

/// Adapts a scalar ObjectiveFunction to the batch interface by decoding
/// each genome and forwarding. The adapter keeps a copy of `fn`; `space`
/// must outlive it. With more than one worker slot the wrapped function
/// is called from multiple threads at once and must be thread-safe (the
/// model-backed objectives above are; beware of stateful lambdas).
std::unique_ptr<BatchObjectiveFunction> make_batch_adapter(
    const DesignSpace& space, const ObjectiveFunction& fn,
    std::size_t worker_slots = 1);

}  // namespace wsnex::dse
