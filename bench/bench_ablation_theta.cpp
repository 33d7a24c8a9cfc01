// Ablation A1: effect of the balance weight theta in Eq. 8.
//
// The paper motivates Eq. 8's stddev term as preventing "unbalanced
// performance among the different nodes". This ablation sweeps theta and
// reports, for the best-energy design found at each setting, the spread of
// per-node energy — showing that larger theta buys balance at a small
// average-energy premium.
#include <cstdio>

#include "dse/optimizers.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace wsnex;
  using namespace wsnex::dse;
  std::printf("=== Ablation — balance weight theta of Eq. 8 ===\n\n");

  const DesignSpace space(DesignSpaceConfig::case_study());
  util::Table table({"theta", "front size", "best E_net [mJ/s]",
                     "node-energy mean [mJ/s]", "node-energy stddev [mJ/s]"});

  for (double theta : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    model::EvaluatorOptions options;
    options.theta = theta;
    const auto evaluator = model::NetworkModelEvaluator::make_default(options);
    const auto fn =
        make_batch_adapter(space, make_full_model_objective(evaluator));
    Nsga2Options opt;
    opt.population = 64;
    opt.generations = 40;
    opt.seed = 11;
    const DseResult result = run_nsga2(space, *fn, opt);

    // Pick the minimum-energy member of the front and inspect its balance.
    const ArchiveEntry* best = nullptr;
    for (const auto& e : result.archive.entries()) {
      if (!best || e.objectives[0] < best->objectives[0]) best = &e;
    }
    if (!best) continue;
    const auto eval = evaluator.evaluate(space.decode(best->genome));
    std::vector<double> energies;
    for (const auto& n : eval.nodes) energies.push_back(n.energy.total());
    table.add_row({util::Table::num(theta, 2),
                   std::to_string(result.archive.size()),
                   util::Table::num(best->objectives[0], 3),
                   util::Table::num(util::mean(energies), 3),
                   util::Table::num(util::sample_stddev(energies), 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: growing theta shrinks the per-node energy spread of\n"
      "the selected designs (balance) while the plain mean stays close.\n");
  return 0;
}
