#include "dse/objectives.hpp"

#include <stdexcept>
#include <string>

#include "dse/eval_cache.hpp"

namespace wsnex::dse {

ObjectiveFunction make_full_model_objective(
    const model::NetworkModelEvaluator& evaluator) {
  return [&evaluator](
             const model::NetworkDesign& design) -> std::optional<Objectives> {
    const model::NetworkEvaluation eval = evaluator.evaluate(design);
    if (!eval.feasible) return std::nullopt;
    return Objectives{eval.energy_metric, eval.prd_metric,
                      eval.delay_metric_s};
  };
}

ObjectiveFunction make_baseline_objective(
    const model::BaselineEnergyDelayModel& baseline) {
  return [&baseline](
             const model::NetworkDesign& design) -> std::optional<Objectives> {
    const model::BaselineEvaluation eval = baseline.evaluate(design);
    if (!eval.feasible) return std::nullopt;
    return Objectives{eval.energy_metric, eval.delay_metric_s};
  };
}

namespace {

/// The DSE fast path: genome-indexed lookup of the memoized application
/// stage plus a cached MAC model per (payload, BCO, SFO-gap) combination,
/// funnelled through the evaluator's shared pipeline core.
class MemoizedFullModelObjective final : public BatchObjectiveFunction {
 public:
  MemoizedFullModelObjective(const model::NetworkModelEvaluator& evaluator,
                             const DesignSpace& space,
                             std::size_t worker_slots,
                             SharedEvalCache* cache)
      : evaluator_(&evaluator),
        apps_(space.config().apps),
        table_(cache != nullptr
                   ? cache->app_table(evaluator, space.config().cr_grid,
                                      space.config().mcu_freq_khz_grid)
                   : std::make_shared<model::AppLayerTable>(
                         evaluator, space.config().cr_grid,
                         space.config().mcu_freq_khz_grid)),
        scratch_(worker_slots == 0 ? 1 : worker_slots) {
    const DesignSpaceConfig& cfg = space.config();
    const double fer = evaluator.options().frame_error_rate;
    always_infeasible_ = apps_.empty() || fer < 0.0 || fer >= 1.0;

    bco_count_ = cfg.bco_grid.size();
    gap_count_ = cfg.sfo_gap_grid.size();
    mac_entries_.reserve(cfg.payload_grid.size() * bco_count_ * gap_count_);
    mac::MacConfig probe;
    probe.gts_slots.assign(apps_.size(), 0);
    for (std::size_t p = 0; p < cfg.payload_grid.size(); ++p) {
      for (std::size_t b = 0; b < bco_count_; ++b) {
        for (std::size_t g = 0; g < gap_count_; ++g) {
          mac::MacConfig mac_cfg;
          mac_cfg.payload_bytes = cfg.payload_grid[p];
          mac_cfg.bco = cfg.bco_grid[b];
          const unsigned gap = cfg.sfo_gap_grid[g];
          mac_cfg.sfo = mac_cfg.bco >= gap ? mac_cfg.bco - gap : 0;
          probe.payload_bytes = mac_cfg.payload_bytes;
          probe.bco = mac_cfg.bco;
          probe.sfo = mac_cfg.sfo;
          // Validate BEFORE constructing the model: the scalar path
          // reports out-of-range grid combinations as infeasible, while
          // Ieee802154MacModel/Superframe assert or throw on them. A null
          // entry marks the invalid combination.
          std::shared_ptr<const model::Ieee802154MacModel> entry;
          if (probe.valid()) {
            entry = cache != nullptr
                        ? cache->mac_model(mac_cfg.payload_bytes, mac_cfg.bco,
                                           mac_cfg.sfo)
                        : std::make_shared<const model::Ieee802154MacModel>(
                              mac_cfg);
          }
          mac_entries_.push_back(std::move(entry));
        }
      }
    }
  }

  std::size_t arity() const override { return 3; }
  std::size_t worker_slots() const override { return scratch_.size(); }

  std::size_t evaluate(const Genome& genome, std::span<double> out,
                       std::size_t worker) const override {
    if (always_infeasible_) return 0;
    const std::size_t n = apps_.size();
    Scratch& ws = scratch_[worker];
    ws.app_stage.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ws.app_stage[i] = table_->at(apps_[i], genome[2 * i], genome[2 * i + 1]);
    }
    const model::Ieee802154MacModel* mac =
        mac_entries_[(genome[2 * n] * bco_count_ + genome[2 * n + 1]) *
                         gap_count_ +
                     genome[2 * n + 2]]
            .get();
    if (mac == nullptr) return 0;  // invalid MAC combination: infeasible
    const model::NetworkEvaluation& eval = evaluator_->evaluate_with_app_stage(
        *mac, ws.app_stage, ws.scratch);
    if (!eval.feasible) return 0;
    out[0] = eval.energy_metric;
    out[1] = eval.prd_metric;
    out[2] = eval.delay_metric_s;
    return 3;
  }

 private:
  struct Scratch {
    std::vector<model::AppStageResult> app_stage;
    model::EvalScratch scratch;
  };

  const model::NetworkModelEvaluator* evaluator_;
  std::vector<model::AppKind> apps_;
  /// Shared with (or private to) the objective; immutable either way.
  std::shared_ptr<const model::AppLayerTable> table_;
  /// Null entries mark protocol-invalid (payload, BCO, SFO) combinations.
  std::vector<std::shared_ptr<const model::Ieee802154MacModel>> mac_entries_;
  std::size_t bco_count_ = 0;
  std::size_t gap_count_ = 0;
  bool always_infeasible_ = false;
  mutable std::vector<Scratch> scratch_;
};

/// Decode-and-forward adapter from the scalar API.
class ScalarBatchAdapter final : public BatchObjectiveFunction {
 public:
  ScalarBatchAdapter(const DesignSpace& space, ObjectiveFunction fn,
                     std::size_t worker_slots)
      : space_(&space), fn_(std::move(fn)),
        worker_slots_(worker_slots == 0 ? 1 : worker_slots) {}

  std::size_t arity() const override { return kMaxObjectives; }
  std::size_t worker_slots() const override { return worker_slots_; }

  std::size_t evaluate(const Genome& genome, std::span<double> out,
                       std::size_t /*worker*/) const override {
    const std::optional<Objectives> obj = fn_(space_->decode(genome));
    if (!obj) return 0;
    if (obj->size() > out.size() || obj->empty()) {
      throw std::length_error(
          "ScalarBatchAdapter: objective vectors must have 1.." +
          std::to_string(kMaxObjectives) +
          " components (got " + std::to_string(obj->size()) + ")");
    }
    for (std::size_t k = 0; k < obj->size(); ++k) out[k] = (*obj)[k];
    return obj->size();
  }

 private:
  const DesignSpace* space_;
  ObjectiveFunction fn_;
  std::size_t worker_slots_;
};

}  // namespace

std::unique_ptr<BatchObjectiveFunction> make_memoized_full_model_objective(
    const model::NetworkModelEvaluator& evaluator, const DesignSpace& space,
    std::size_t worker_slots, SharedEvalCache* cache) {
  return std::make_unique<MemoizedFullModelObjective>(evaluator, space,
                                                      worker_slots, cache);
}

std::unique_ptr<BatchObjectiveFunction> make_batch_adapter(
    const DesignSpace& space, const ObjectiveFunction& fn,
    std::size_t worker_slots) {
  return std::make_unique<ScalarBatchAdapter>(space, fn, worker_slots);
}

}  // namespace wsnex::dse
