// Ablation A2: optimizer choice at an equal evaluation budget.
//
// Section 5.2: the model was used "in a set of multi-objective
// optimization techniques, including genetic algorithms and simulated
// annealing, without experiencing any relevant difference in terms of
// quality of the solutions". Random sampling is added as a floor. Quality
// is measured as dominated hypervolume against a fixed reference point.
#include <cstdio>

#include "dse/optimizers.hpp"
#include "util/table.hpp"

int main() {
  using namespace wsnex;
  using namespace wsnex::dse;
  std::printf(
      "=== Ablation — NSGA-II vs multi-objective SA vs random sampling "
      "===\n\n");

  const auto evaluator = model::NetworkModelEvaluator::make_default();
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto fn =
      make_batch_adapter(space, make_full_model_objective(evaluator));

  // Equal budget of ~5k evaluations for every optimizer.
  constexpr std::size_t kBudget = 5120;
  const Objectives reference{12.0, 120.0, 5.0};  // beyond any feasible point

  util::Table table({"optimizer", "evaluations", "front size",
                     "hypervolume", "wallclock [ms]"});
  auto report = [&](const char* name, const DseResult& r) {
    std::vector<Objectives> front;
    for (const auto& e : r.archive.entries()) front.push_back(e.objectives);
    table.add_row({name, std::to_string(r.evaluations),
                   std::to_string(r.archive.size()),
                   util::Table::num(hypervolume(front, reference), 1),
                   util::Table::num(r.wallclock_s * 1e3, 1)});
  };

  Nsga2Options ga;
  ga.population = 64;
  ga.generations = kBudget / 64 - 1;
  ga.seed = 3;
  report("NSGA-II", run_nsga2(space, *fn, ga));

  MosaOptions sa;
  sa.iterations = kBudget - 1;
  sa.seed = 3;
  report("MOSA", run_mosa(space, *fn, sa));

  RandomSearchOptions rs;
  rs.samples = kBudget;
  rs.seed = 3;
  report("random", run_random_search(space, *fn, rs));

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: NSGA-II and MOSA reach comparable hypervolume (the\n"
      "paper saw no relevant quality difference); random sampling trails.\n");
  return 0;
}
