// Reproduces the evaluation-speed comparison of Section 5.2 and tracks
// the repo's DSE-throughput trajectory.
//
// The paper: "a network simulation takes 5 to 10 minutes in our case
// study, while the model can be evaluated approximately 4800 times per
// second" — about six orders of magnitude. Here google-benchmark measures
// the per-call cost of (a) one full model evaluation, (b) one simulated
// network second; additional benchmarks cover the memoized batch
// objective and NSGA-II/MOSA end-to-end throughput.
//
// Machine-readable mode: `bench_dse_throughput --json[=PATH] [--quick]`
// skips google-benchmark and instead sweeps
//   objective in {scalar-uncached, memoized-batch} x population {64,128,256}
// over case-study-sized NSGA-II runs (plus a MOSA row per objective),
// writing evaluations/s per configuration as JSON. The optimizers run on
// the calling thread, so there is no threads axis. The committed
// BENCH_dse_throughput.json at the repo root embeds this mode's
// `configs` array inside hand-recorded context blocks (`machine`, and
// `baseline` = the pre-batching engine measured from the pre-PR tree on
// the same machine). To refresh it, regenerate the configs with this
// tool and splice them into the committed file — do not overwrite the
// file wholesale or the baseline reference is lost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dse/optimizers.hpp"
#include "model/evaluator.hpp"
#include "sim/network.hpp"

namespace {

using namespace wsnex;

const model::NetworkModelEvaluator& evaluator() {
  static const auto instance = model::NetworkModelEvaluator::make_default();
  return instance;
}

const dse::DesignSpace& case_space() {
  static const dse::DesignSpace space(dse::DesignSpaceConfig::case_study());
  return space;
}

model::NetworkDesign case_design() {
  model::NetworkDesign d;
  d.mac.payload_bytes = 64;
  d.mac.bco = 6;
  d.mac.sfo = 6;
  d.nodes = {{model::AppKind::kDwt, 0.29, 8000.0},
             {model::AppKind::kDwt, 0.29, 8000.0},
             {model::AppKind::kDwt, 0.29, 8000.0},
             {model::AppKind::kCs, 0.29, 8000.0},
             {model::AppKind::kCs, 0.29, 8000.0},
             {model::AppKind::kCs, 0.29, 8000.0}};
  return d;
}

sim::NetworkScenario case_scenario(double duration_s) {
  const auto design = case_design();
  const auto eval = evaluator().evaluate(design);
  sim::NetworkScenario sc;
  sc.mac = design.mac;
  sc.mac.gts_slots.clear();
  for (const auto& q : eval.assignment.nodes) {
    sc.mac.gts_slots.push_back(q.slots);
  }
  for (const auto& node : design.nodes) {
    sc.traffic.push_back({evaluator().chain().phi_in_bytes_per_s() * node.cr,
                          evaluator().chain().window_period_s()});
  }
  sc.duration_s = duration_s;
  return sc;
}

/// One analytical evaluation of the full 6-node design through the
/// original allocating entry point.
void BM_ModelEvaluation(benchmark::State& state) {
  const auto design = case_design();
  // First touch runs the one-off PRD codec calibration; keep it out of the
  // timed region.
  (void)evaluator().evaluate(design);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator().evaluate(design));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ModelEvaluation);

/// Same evaluation through the zero-allocation scratch overload.
void BM_ModelEvaluationScratch(benchmark::State& state) {
  const auto design = case_design();
  model::EvalScratch scratch;
  (void)evaluator().evaluate(design, scratch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator().evaluate(design, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ModelEvaluationScratch);

/// Memoized batch objective: the DSE fast path (genome in, objectives
/// out, no allocation, no application-layer recomputation).
void BM_MemoizedBatchEvaluation(benchmark::State& state) {
  const auto memo =
      dse::make_memoized_full_model_objective(evaluator(), case_space(), 1);
  util::Rng rng(1);
  const dse::Genome genome = case_space().random_genome(rng);
  double out[dse::kMaxObjectives];
  (void)memo->evaluate(genome, out, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo->evaluate(genome, out, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoizedBatchEvaluation);

/// Packet-level simulation of `arg` seconds of network time — the
/// evaluation path the model replaces.
void BM_PacketSimulation(benchmark::State& state) {
  const auto scenario = case_scenario(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_network(scenario));
  }
  state.SetLabel(std::to_string(state.range(0)) + "s simulated");
}
BENCHMARK(BM_PacketSimulation)->Arg(60)->Arg(600)->Unit(benchmark::kMillisecond);

/// End-to-end NSGA-II throughput: population sweep over the memoized
/// batch objective. Items processed = objective evaluations.
void BM_Nsga2Throughput(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  const auto memo =
      dse::make_memoized_full_model_objective(evaluator(), case_space(), 1);
  dse::Nsga2Options opt;
  opt.population = population;
  opt.generations = 4000 / population;  // ~case-study evaluation budget
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const dse::DseResult r = dse::run_nsga2(case_space(), *memo, opt);
    evaluations += r.evaluations;
    benchmark::DoNotOptimize(r.archive.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
}
BENCHMARK(BM_Nsga2Throughput)
    ->ArgName("pop")
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// "Measured" evaluation via the hardware simulator (used only for the
/// Fig. 3 reference side, not inside DSE loops).
void BM_HardwareSimulatorMeasurement(benchmark::State& state) {
  const auto design = case_design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::measure_network_energy(evaluator(), design));
  }
}
BENCHMARK(BM_HardwareSimulatorMeasurement)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json mode: deterministic sweep, machine-readable output.
// ---------------------------------------------------------------------------

struct SweepRow {
  std::string optimizer;   // "nsga2" | "mosa"
  std::string objective;   // "scalar-uncached" | "memoized-batch"
  std::size_t population = 0;  // 0 for mosa
  std::size_t evaluations = 0;
  double best_evals_per_s = 0.0;
};

std::unique_ptr<dse::BatchObjectiveFunction> make_objective(
    const std::string& objective) {
  return objective == "memoized-batch"
             ? dse::make_memoized_full_model_objective(evaluator(),
                                                       case_space(), 1)
             : dse::make_batch_adapter(
                   case_space(), dse::make_full_model_objective(evaluator()));
}

SweepRow run_nsga2_config(const std::string& objective,
                          std::size_t population, int reps) {
  SweepRow row{"nsga2", objective, population, 0, 0.0};
  const auto fn = make_objective(objective);
  dse::Nsga2Options opt;
  opt.population = population;
  opt.generations = 4000 / population;
  for (int r = 0; r < reps; ++r) {
    const dse::DseResult res = dse::run_nsga2(case_space(), *fn, opt);
    row.evaluations = res.evaluations;
    const double rate =
        static_cast<double>(res.evaluations) / res.wallclock_s;
    if (rate > row.best_evals_per_s) row.best_evals_per_s = rate;
  }
  return row;
}

SweepRow run_mosa_config(const std::string& objective, int reps) {
  SweepRow row{"mosa", objective, 0, 0, 0.0};
  const auto fn = make_objective(objective);
  dse::MosaOptions opt;
  opt.iterations = 4000;
  for (int r = 0; r < reps; ++r) {
    const dse::DseResult res = dse::run_mosa(case_space(), *fn, opt);
    row.evaluations = res.evaluations;
    const double rate =
        static_cast<double>(res.evaluations) / res.wallclock_s;
    if (rate > row.best_evals_per_s) row.best_evals_per_s = rate;
  }
  return row;
}

int run_json_sweep(const std::string& path, bool quick) {
  // Validate the output path before spending minutes on the sweep.
  std::FILE* out = bench::open_json_sink(path);
  if (out == nullptr) return 1;
  const int reps = quick ? 1 : 5;
  std::vector<SweepRow> rows;
  const std::vector<std::size_t> populations =
      quick ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 128, 256};
  for (const char* objective : {"scalar-uncached", "memoized-batch"}) {
    for (const std::size_t population : populations) {
      rows.push_back(run_nsga2_config(objective, population, reps));
      std::fprintf(stderr, "nsga2 %s pop=%zu: %.0f evals/s\n", objective,
                   population, rows.back().best_evals_per_s);
    }
    rows.push_back(run_mosa_config(objective, reps));
    std::fprintf(stderr, "mosa %s: %.0f evals/s\n", objective,
                 rows.back().best_evals_per_s);
  }

  std::fprintf(out, "{\n  \"bench\": \"dse_throughput\",\n");
  std::fprintf(out, "  \"unit\": \"objective evaluations per second\",\n");
  bench::fprint_provenance(out);
  std::fprintf(out,
               "  \"note\": \"best of %d case-study-sized runs per config "
               "(~4000 evaluations each)\",\n",
               reps);
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"optimizer\": \"%s\", \"objective\": \"%s\", "
                 "\"population\": %zu, "
                 "\"evaluations\": %zu, \"evals_per_s\": %.0f}%s\n",
                 r.optimizer.c_str(), r.objective.c_str(), r.population,
                 r.evaluations, r.best_evals_per_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  bench::close_json_sink(out, path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unknown arguments stay untouched for benchmark::Initialize below.
  wsnex::bench::Args args;
  (void)wsnex::bench::parse_args(argc, argv, args, /*allow_unknown=*/true);
  if (args.json) return run_json_sweep(args.json_path, args.quick);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
