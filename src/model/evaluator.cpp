#include "model/evaluator.hpp"

#include <stdexcept>

#include "hw/hw_simulator.hpp"

namespace wsnex::model {

NetworkModelEvaluator::NetworkModelEvaluator(
    const hw::PlatformPower& platform, SignalChain chain,
    std::shared_ptr<const ApplicationModel> dwt,
    std::shared_ptr<const ApplicationModel> cs, EvaluatorOptions options)
    : platform_(platform),
      chain_(chain),
      dwt_(std::move(dwt)),
      cs_(std::move(cs)),
      options_(options),
      radio_(calibrate_radio(platform, default_calibration_activity())) {
  if (!dwt_ || dwt_->kind() != AppKind::kDwt) {
    throw std::invalid_argument(
        "NetworkModelEvaluator: the dwt model must be non-null and of kind "
        "kDwt");
  }
  if (!cs_ || cs_->kind() != AppKind::kCs) {
    throw std::invalid_argument(
        "NetworkModelEvaluator: the cs model must be non-null and of kind "
        "kCs");
  }
}

NetworkModelEvaluator NetworkModelEvaluator::make_default(
    EvaluatorOptions options) {
  return NetworkModelEvaluator(hw::shimmer_platform(), SignalChain{},
                               make_shimmer_dwt_model(),
                               make_shimmer_cs_model(), options);
}

namespace {

/// Resets a scratch result to the state a freshly constructed
/// NetworkEvaluation would have, without releasing buffer capacity.
void reset_evaluation(NetworkEvaluation& out) {
  out.feasible = false;
  out.infeasibility_reason.clear();
  out.nodes.clear();
  out.energy_metric = 0.0;
  out.prd_metric = 0.0;
  out.delay_metric_s = 0.0;
  out.assignment.feasible = false;
  out.assignment.infeasibility_reason.clear();
  out.assignment.nodes.clear();
  out.assignment.delta_s = 0.0;
  out.assignment.delta_control_s_per_s = 0.0;
  out.assignment.budget_check = 0.0;
}

}  // namespace

NetworkEvaluation NetworkModelEvaluator::evaluate(
    const NetworkDesign& design) const {
  EvalScratch scratch;
  return evaluate(design, scratch);
}

const NetworkEvaluation& NetworkModelEvaluator::evaluate(
    const NetworkDesign& design, EvalScratch& scratch) const {
  NetworkEvaluation& out = scratch.eval;
  reset_evaluation(out);
  if (design.nodes.empty()) {
    out.infeasibility_reason = "empty design";
    return out;
  }
  if (options_.frame_error_rate < 0.0 || options_.frame_error_rate >= 1.0) {
    out.infeasibility_reason = "frame error rate must be in [0, 1)";
    return out;
  }
  if (!design.mac.valid() && design.mac.gts_slots.empty()) {
    // gts_slots is filled by the assignment below; validate the rest.
    mac::MacConfig& probe = scratch.probe;
    probe.payload_bytes = design.mac.payload_bytes;
    probe.bco = design.mac.bco;
    probe.sfo = design.mac.sfo;
    probe.gts_slots.assign(design.nodes.size(), 0);
    if (!probe.valid()) {
      out.infeasibility_reason = "invalid MAC configuration";
      return out;
    }
  }

  const Ieee802154MacModel mac_model(design.mac);
  const double phi_in = chain_.phi_in_bytes_per_s();

  // 1. Application layer: phi_out, PRD and resource usage per node.
  scratch.app_stage.resize(design.nodes.size());
  for (std::size_t n = 0; n < design.nodes.size(); ++n) {
    const ApplicationModel& app = app_for(design.nodes[n].app);
    AppStageResult& stage = scratch.app_stage[n];
    stage.app = design.nodes[n].app;
    stage.mcu_freq_khz = design.nodes[n].mcu_freq_khz;
    stage.phi_out_bytes_per_s = app.output_bytes_per_s(phi_in,
                                                       design.nodes[n]);
    stage.prd_percent = app.quality_loss(phi_in, design.nodes[n]);
    stage.usage = app.resource_usage(phi_in, design.nodes[n]);
  }
  return evaluate_with_app_stage(mac_model, scratch.app_stage, scratch);
}

const NetworkEvaluation& NetworkModelEvaluator::evaluate_with_app_stage(
    const Ieee802154MacModel& mac_model,
    std::span<const AppStageResult> app_stage, EvalScratch& scratch) const {
  NetworkEvaluation& out = scratch.eval;
  reset_evaluation(out);
  const std::size_t node_count = app_stage.size();
  if (node_count == 0) {
    out.infeasibility_reason = "empty design";
    return out;
  }

  // 2. MAC layer: Eq. 1-2 slot assignment over the on-air stream
  // (retransmission-inflated when a frame error rate is configured).
  scratch.phi_tx.resize(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    scratch.phi_tx[n] = app_stage[n].phi_out_bytes_per_s;
  }
  if (options_.frame_error_rate > 0.0) {
    // A transmission succeeds only if the data frame AND its ACK survive:
    // E[transmissions per frame] = 1 / (1 - p)^2.
    const double q = 1.0 - options_.frame_error_rate;
    const double inflate = 1.0 / (q * q);
    for (double& phi : scratch.phi_tx) phi *= inflate;
  }
  mac_model.assign_slots_into(scratch.phi_tx, options_.accounting,
                              out.assignment);
  if (!out.assignment.feasible) {
    out.infeasibility_reason = out.assignment.infeasibility_reason;
    return out;
  }

  // 3-4. Node energy and delay bound (all Eq. 9 bounds in one pass; the
  // values match per-node delay_bound_s calls bit-for-bit).
  out.nodes.resize(node_count);
  scratch.energies.resize(node_count);
  scratch.prds.resize(node_count);
  scratch.delays.resize(node_count);
  mac_model.delay_bounds_into(out.assignment, scratch.delays);
  for (std::size_t n = 0; n < node_count; ++n) {
    NodeEvaluation& ne = out.nodes[n];
    ne.phi_out_bytes_per_s = app_stage[n].phi_out_bytes_per_s;
    ne.energy = estimate_node_energy(platform_, radio_, chain_,
                                     app_stage[n].usage,
                                     app_stage[n].mcu_freq_khz,
                                     out.assignment.nodes[n]);
    if (!ne.energy.feasible) {
      out.infeasibility_reason =
          std::string(to_string(app_stage[n].app)) +
          " duty cycle exceeds 100% at the configured f_uC";
      return out;
    }
    ne.prd_percent = app_stage[n].prd_percent;
    ne.delay_bound_s = scratch.delays[n];
    ne.gts_slots = out.assignment.nodes[n].slots;
    scratch.energies[n] = ne.energy.total();
    scratch.prds[n] = ne.prd_percent;
  }

  // 5. System-level metrics (Eq. 8).
  out.energy_metric = balanced_metric(scratch.energies, options_.theta);
  out.prd_metric = balanced_metric(scratch.prds, options_.theta);
  out.delay_metric_s =
      delay_metric(scratch.delays, options_.theta,
                   options_.delay_aggregation);
  out.feasible = true;
  return out;
}

AppLayerTable::AppLayerTable(const NetworkModelEvaluator& evaluator,
                             std::span<const double> cr_grid,
                             std::span<const double> f_uc_khz_grid)
    : cr_count_(cr_grid.size()), f_count_(f_uc_khz_grid.size()) {
  const double phi_in = evaluator.chain().phi_in_bytes_per_s();
  entries_.resize(2 * cr_count_ * f_count_);
  for (const AppKind kind : {AppKind::kDwt, AppKind::kCs}) {
    const ApplicationModel& app = evaluator.app_for(kind);
    for (std::size_t c = 0; c < cr_count_; ++c) {
      for (std::size_t f = 0; f < f_count_; ++f) {
        NodeConfig node;
        node.app = kind;
        node.cr = cr_grid[c];
        node.mcu_freq_khz = f_uc_khz_grid[f];
        AppStageResult& stage = entries_[
            ((kind == AppKind::kCs ? 1u : 0u) * cr_count_ + c) * f_count_ +
            f];
        stage.app = kind;
        stage.mcu_freq_khz = node.mcu_freq_khz;
        stage.phi_out_bytes_per_s = app.output_bytes_per_s(phi_in, node);
        stage.prd_percent = app.quality_loss(phi_in, node);
        stage.usage = app.resource_usage(phi_in, node);
      }
    }
  }
}

std::vector<MeasuredNodeEnergy> measure_network_energy(
    const NetworkModelEvaluator& evaluator, const NetworkDesign& design,
    double duration_s) {
  const Ieee802154MacModel mac_model(design.mac);
  std::vector<MeasuredNodeEnergy> out(design.nodes.size());
  hw::HwSimConfig sim_config;
  sim_config.duration_s = duration_s;
  for (std::size_t n = 0; n < design.nodes.size(); ++n) {
    const ApplicationModel& app = evaluator.app_for(design.nodes[n].app);
    const hw::NodeActivity activity =
        derive_node_activity(evaluator.chain(), app, design.nodes[n],
                             mac_model,
                             evaluator.options().frame_error_rate);
    out[n].breakdown =
        hw::simulate_node_energy(evaluator.platform(), activity, sim_config);
    out[n].feasible = out[n].breakdown.feasible;
  }
  return out;
}

}  // namespace wsnex::model
