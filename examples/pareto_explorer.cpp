// Full design-space exploration with CSV export.
//
// Runs NSGA-II over the case-study space using the three-metric analytical
// model, then writes the Pareto front (all three objectives plus the
// decoded configuration) and its three 2-D projections to CSV — the data
// behind the three panels of Fig. 5.
//
//   ./examples/pareto_explorer [output_prefix=pareto]
#include <cstdio>
#include <string>

#include "dse/optimizers.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace wsnex;
  using namespace wsnex::dse;
  const std::string prefix = argc > 1 ? argv[1] : "pareto";

  const auto evaluator = model::NetworkModelEvaluator::make_default();
  const DesignSpace space(DesignSpaceConfig::case_study());
  const auto objective = make_memoized_full_model_objective(evaluator, space);

  Nsga2Options opt;
  opt.population = 96;
  opt.generations = 100;
  opt.seed = 42;
  std::printf("running NSGA-II (%zu x %zu) over %.3g configurations...\n",
              opt.population, opt.generations, space.cardinality());
  const DseResult result = run_nsga2(space, *objective, opt);
  std::printf("%zu evaluations in %.2f s (%.0f evals/s), front size %zu\n",
              result.evaluations, result.wallclock_s,
              static_cast<double>(result.evaluations) /
                  std::max(result.wallclock_s, 1e-9),
              result.archive.size());

  const std::string front_path = prefix + "_front.csv";
  util::CsvWriter front(front_path);
  front.write_row({"energy_mj_per_s", "prd_percent", "delay_s", "payload",
                   "bco", "sfo", "configuration"});
  for (const auto& e : result.archive.entries()) {
    const auto design = space.decode(e.genome);
    front.write_row({std::to_string(e.objectives[0]),
                     std::to_string(e.objectives[1]),
                     std::to_string(e.objectives[2]),
                     std::to_string(design.mac.payload_bytes),
                     std::to_string(design.mac.bco),
                     std::to_string(design.mac.sfo),
                     space.describe(e.genome)});
  }
  std::printf("wrote %s (%zu rows)\n", front_path.c_str(),
              front.rows_written() - 1);

  // The three Fig. 5 panels as separate files for direct plotting.
  const struct {
    const char* suffix;
    int x;
    int y;
    const char* xh;
    const char* yh;
  } panels[3] = {
      {"_energy_delay.csv", 0, 2, "energy_mj_per_s", "delay_s"},
      {"_energy_prd.csv", 0, 1, "energy_mj_per_s", "prd_percent"},
      {"_prd_delay.csv", 1, 2, "prd_percent", "delay_s"},
  };
  for (const auto& p : panels) {
    util::CsvWriter csv(prefix + p.suffix);
    csv.write_row({p.xh, p.yh});
    for (const auto& e : result.archive.entries()) {
      csv.write_numeric_row({e.objectives[static_cast<std::size_t>(p.x)],
                             e.objectives[static_cast<std::size_t>(p.y)]});
    }
    std::printf("wrote %s%s\n", prefix.c_str(), p.suffix);
  }
  return 0;
}
