// Reproduces Fig. 5: "Tradeoffs detected using the proposed model and a
// state-of-the-art energy/delay model".
//
// Two DSE runs over the identical design space:
//   * proposed: NSGA-II on the 3-metric model (E_net, PRD_net, D_net);
//   * baseline: NSGA-II on the 2-metric energy/delay model of [26].
// The baseline's Pareto designs are then re-scored under the full model
// and compared against the full front. The paper reports that the
// energy/delay model finds only ~7% of the tradeoffs.
#include <cstdio>
#include <vector>

#include "dse/optimizers.hpp"
#include "util/table.hpp"

int main() {
  using namespace wsnex;
  using namespace wsnex::dse;
  std::printf(
      "=== Fig. 5 — Pareto tradeoffs: proposed 3-metric model vs "
      "energy/delay baseline [26] ===\n\n");

  const auto evaluator = model::NetworkModelEvaluator::make_default();
  const model::BaselineEnergyDelayModel baseline_model(evaluator);
  const DesignSpace space(DesignSpaceConfig::case_study());
  std::printf("design space cardinality: %.3g configurations\n\n",
              space.cardinality());

  const auto full_fn = make_full_model_objective(evaluator);
  const auto base_fn = make_baseline_objective(baseline_model);

  Nsga2Options opt;
  opt.population = 80;
  opt.generations = 80;
  opt.seed = 7;
  const DseResult full =
      run_nsga2(space, *make_batch_adapter(space, full_fn), opt);
  const DseResult base =
      run_nsga2(space, *make_batch_adapter(space, base_fn), opt);

  // Re-score the baseline front under the full model and keep the points
  // that remain non-dominated against the full front.
  std::vector<Objectives> full_front;
  for (const auto& e : full.archive.entries()) {
    full_front.push_back(e.objectives);
  }
  std::size_t baseline_on_full_front = 0;
  std::vector<Objectives> base_rescored;
  for (const auto& e : base.archive.entries()) {
    const auto obj = full_fn(space.decode(e.genome));
    if (!obj) continue;
    base_rescored.push_back(*obj);
    bool dominated = false;
    for (const auto& f : full_front) {
      if (dominates(f, *obj)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) ++baseline_on_full_front;
  }

  util::Table table({"quantity", "proposed model", "baseline [26]"});
  table.add_row({"objectives", "energy, PRD, delay", "energy, delay"});
  table.add_row({"evaluations", std::to_string(full.evaluations),
                 std::to_string(base.evaluations)});
  table.add_row({"infeasible designs seen", std::to_string(full.infeasible_count),
                 std::to_string(base.infeasible_count)});
  table.add_row({"Pareto tradeoffs found", std::to_string(full.archive.size()),
                 std::to_string(base.archive.size())});
  std::printf("%s\n", table.render().c_str());

  const double fraction =
      full.archive.empty()
          ? 0.0
          : 100.0 * static_cast<double>(baseline_on_full_front) /
                static_cast<double>(full.archive.size());
  std::printf(
      "tradeoffs reachable through the baseline's Pareto set, as a share of\n"
      "the full model's front: %zu / %zu = %.1f%%\n\n",
      baseline_on_full_front, full.archive.size(), fraction);

  // Print the three 2-D projections of the full front (the three panels of
  // Fig. 5), decimated to at most 20 rows each.
  const char* axis_names[3] = {"E_net [mJ/s]", "PRD_net [%]", "D_net [s]"};
  const int panels[3][2] = {{0, 2}, {0, 1}, {1, 2}};
  const char* panel_titles[3] = {"energy-delay", "energy-PRD", "PRD-delay"};
  for (int p = 0; p < 3; ++p) {
    std::vector<Objectives> sorted = full_front;
    const int ax = panels[p][0];
    const int ay = panels[p][1];
    std::sort(sorted.begin(), sorted.end(),
              [&](const Objectives& a, const Objectives& b) {
                return a[static_cast<std::size_t>(ax)] <
                       b[static_cast<std::size_t>(ax)];
              });
    util::Table panel({axis_names[ax], axis_names[ay]});
    const std::size_t stride = std::max<std::size_t>(1, sorted.size() / 20);
    for (std::size_t i = 0; i < sorted.size(); i += stride) {
      panel.add_row({util::Table::num(sorted[i][static_cast<std::size_t>(ax)], 3),
                     util::Table::num(sorted[i][static_cast<std::size_t>(ay)], 3)});
    }
    std::printf("--- %s tradeoffs (%zu front points, decimated) ---\n%s\n",
                panel_titles[p], sorted.size(), panel.render().c_str());
  }
  std::printf(
      "paper reference: the energy/delay Pareto set contains only ~7%% of\n"
      "the tradeoffs found with the proposed multi-layer model; the\n"
      "mid-range-PRD solutions are invisible to the baseline.\n");
  return 0;
}
