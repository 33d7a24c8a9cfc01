// Full-network model-based evaluation — the paper's primary contribution.
//
// Given a complete design point (per-node chi_node + chi_mac), the
// evaluator runs the analytical pipeline:
//   1. application models    -> phi_out, duty, PRD per node
//   2. MAC model             -> Omega/Psi terms + slot assignment (Eq. 1-2)
//   3. node energy model     -> E_node per node (Eq. 3-7)
//   4. delay bound           -> d^(n) per node (Eq. 9)
//   5. system-level metrics  -> E_net, PRD_net, D_net (Eq. 8)
// This is the function a DSE loop calls thousands of times per second in
// place of a 5-10 minute packet simulation (Section 5.2).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/hw_simulator.hpp"
#include "hw/power.hpp"
#include "model/app_model.hpp"
#include "model/mac_model.hpp"
#include "model/metrics.hpp"
#include "model/node_model.hpp"
#include "model/types.hpp"

namespace wsnex::model {

/// A complete design point of the case study.
///
/// Per-node knobs (`NodeConfig`): codec choice (DWT or CS), compression
/// ratio CR in (0, 1] (case study sweeps 0.17-0.38), and microcontroller
/// frequency f_uC in kHz (Shimmer MSP430: 1000-8000 kHz). MAC knobs
/// (`mac::MacConfig`): payload length in bytes (1-114 for IEEE 802.15.4),
/// beacon order BCO and superframe order SFO in 0-14 with SFO <= BCO, and
/// a per-node GTS grant vector summing to at most 7 slots.
struct NetworkDesign {
  std::vector<NodeConfig> nodes;  ///< chi_node per node
  mac::MacConfig mac;             ///< L_payload, BCO, SFO (slots computed)
};

/// Per-node outputs of one evaluation.
struct NodeEvaluation {
  double phi_out_bytes_per_s = 0.0;  ///< compressed output stream, bytes/s
  NodeEnergyEstimate energy;         ///< E_node breakdown, mJ per second
  double prd_percent = 0.0;   ///< percentage RMS difference, 0-100 %
  double delay_bound_s = 0.0; ///< worst-case sample-to-sink delay, seconds
  std::size_t gts_slots = 0;  ///< guaranteed time slots granted (0-7)
};

/// Network-level outputs.
struct NetworkEvaluation {
  bool feasible = false;
  std::string infeasibility_reason;
  std::vector<NodeEvaluation> nodes;
  double energy_metric = 0.0;  ///< E_net (Eq. 8), mJ/s
  double prd_metric = 0.0;     ///< PRD_net (Eq. 8 combinator), percent
  double delay_metric_s = 0.0; ///< D_net, seconds
  SlotAssignment assignment;
};

/// Evaluator options.
struct EvaluatorOptions {
  /// Balance weight of the Eq. 8 network combinator (metric =
  /// per-node mean + theta * sample stddev), theta >= 0: 0 scores the
  /// plain network average; larger values increasingly penalize designs
  /// that load nodes unevenly.
  double theta = 0.5;  ///< balance weight of Eq. 8
  DelayAggregation delay_aggregation = DelayAggregation::kMax;
  TxTimeAccounting accounting = TxTimeAccounting::kFullExchange;
  /// Expected frame error rate of the channel. A node retransmits until
  /// acknowledged — and an exchange succeeds only when the data frame and
  /// its ACK both survive — so the on-air stream is inflated to
  /// phi_out / (1 - p)^2 before MAC sizing and radio-energy accounting
  /// (Section 3.3). Must be in [0, 1).
  double frame_error_rate = 0.0;
};

/// One node's application-layer stage: everything the evaluator derives
/// from (codec, CR, f_uC) alone, independent of the MAC configuration.
/// This is the memoization unit of the DSE fast path — the tuple lives on
/// a small discrete grid, so the whole axis fits in a flat lookup table.
struct AppStageResult {
  AppKind app = AppKind::kDwt;       ///< codec (for diagnostics)
  double mcu_freq_khz = 0.0;         ///< f_uC of the node
  double phi_out_bytes_per_s = 0.0;  ///< h(phi_in, chi_node)
  double prd_percent = 0.0;          ///< e(phi_in, chi_node)
  ResourceUsage usage;               ///< k(phi_in, chi_node)
};

/// Reusable buffers for the allocation-free evaluate() overload. One
/// scratch per thread: the returned NetworkEvaluation reference points
/// into the scratch, so each concurrent caller needs its own instance.
/// After warm-up (first call at a given node count) no steady-state
/// allocations occur.
struct EvalScratch {
  NetworkEvaluation eval;
  std::vector<AppStageResult> app_stage;
  std::vector<double> phi_tx;
  std::vector<double> energies;
  std::vector<double> prds;
  std::vector<double> delays;
  mac::MacConfig probe;  ///< MAC validity probe buffer
};

/// Reusable model-based evaluator for a fixed platform/signal chain and a
/// fixed pair of application models. Thread-compatible: evaluate() is
/// const and allocation-light.
///
/// Unit conventions used throughout: power in mW, energy in mJ and energy
/// rates in mJ/s (hw::PlatformPower holds the datasheet coefficients), ECG
/// signal amplitudes in mV, data rates in bytes/s, frequencies in kHz
/// (f_uC) or Hz (sampling), delays in seconds, PRD in percent. Only the
/// constructor throws (std::invalid_argument, for a null or mis-kinded
/// application model); evaluation never does: out-of-range options (e.g.
/// frame_error_rate outside [0, 1)) surface as feasible == false with a
/// reason string on every evaluate() call.
class NetworkModelEvaluator {
 public:
  /// Throws std::invalid_argument when `dwt` is not a non-null kDwt model
  /// or `cs` not a non-null kCs one.
  NetworkModelEvaluator(const hw::PlatformPower& platform, SignalChain chain,
                        std::shared_ptr<const ApplicationModel> dwt,
                        std::shared_ptr<const ApplicationModel> cs,
                        EvaluatorOptions options = {});

  /// Convenience: default Shimmer platform, 250 Hz / 12-bit chain and the
  /// default calibrated application models.
  static NetworkModelEvaluator make_default(EvaluatorOptions options = {});

  /// Full analytical evaluation of one design point. Infeasible designs
  /// (GTS capacity exhausted, duty cycle > 1, delay bound unsatisfiable)
  /// come back with feasible == false and a human-readable reason instead
  /// of throwing.
  NetworkEvaluation evaluate(const NetworkDesign& design) const;

  /// Allocation-free variant: identical results (bit-for-bit) written into
  /// `scratch.eval`, whose buffers are reused across calls. The returned
  /// reference is valid until the next call with the same scratch.
  const NetworkEvaluation& evaluate(const NetworkDesign& design,
                                    EvalScratch& scratch) const;

  /// Core of evaluate(): the MAC/energy/delay/metric pipeline downstream
  /// of the per-node application stage. Both the plain path (which derives
  /// `app_stage` by querying the application models) and the memoized DSE
  /// path (which looks it up in an AppLayerTable) funnel through this
  /// method, so their arithmetic — and therefore their results — agree
  /// bit-for-bit. `app_stage` must hold one entry per node.
  const NetworkEvaluation& evaluate_with_app_stage(
      const Ieee802154MacModel& mac_model,
      std::span<const AppStageResult> app_stage, EvalScratch& scratch) const;

  const ApplicationModel& app_for(AppKind kind) const {
    return kind == AppKind::kDwt ? *dwt_ : *cs_;
  }
  const SignalChain& chain() const { return chain_; }
  const hw::PlatformPower& platform() const { return platform_; }
  const EvaluatorOptions& options() const { return options_; }

 private:
  hw::PlatformPower platform_;
  SignalChain chain_;
  std::shared_ptr<const ApplicationModel> dwt_;
  std::shared_ptr<const ApplicationModel> cs_;
  EvaluatorOptions options_;
  CalibratedRadio radio_;
};

/// Flat memo of the application-layer stage over a discrete node-config
/// grid: entry (codec, cr_idx, f_idx) caches the AppStageResult of
/// (cr_grid[cr_idx], f_uc_khz_grid[f_idx]) computed by the evaluator's
/// application models. The entries are produced by exactly the calls
/// evaluate() would make, so a lookup is bit-identical to recomputation.
/// Invariants: the table is immutable after construction (safe to share
/// across threads) and is only valid for designs whose CR / f_uC values
/// are grid members — callers index it, they never search it.
class AppLayerTable {
 public:
  AppLayerTable(const NetworkModelEvaluator& evaluator,
                std::span<const double> cr_grid,
                std::span<const double> f_uc_khz_grid);

  const AppStageResult& at(AppKind kind, std::size_t cr_idx,
                           std::size_t f_idx) const {
    const std::size_t kind_idx = kind == AppKind::kCs ? 1 : 0;
    return entries_[(kind_idx * cr_count_ + cr_idx) * f_count_ + f_idx];
  }

  std::size_t cr_count() const { return cr_count_; }
  std::size_t f_count() const { return f_count_; }

 private:
  std::size_t cr_count_;
  std::size_t f_count_;
  std::vector<AppStageResult> entries_;
};

/// "Measured" evaluation of the same design point: maps every node to its
/// concrete activity profile and runs the activity-trace hardware
/// simulator. This is the reference side of the Fig. 3 experiment.
struct MeasuredNodeEnergy {
  bool feasible = true;
  hw::EnergyBreakdown breakdown;
};
std::vector<MeasuredNodeEnergy> measure_network_energy(
    const NetworkModelEvaluator& evaluator, const NetworkDesign& design,
    double duration_s = 10.0);

}  // namespace wsnex::model
