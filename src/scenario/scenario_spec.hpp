// Declarative deployment scenarios — the configuration layer over the DSE
// engine.
//
// A ScenarioSpec captures everything needed to reproduce one exploration
// run of the paper's flow: the ward (node count + per-node application
// mix), the explored grids (CR, f_uC, payload, BCO, SFO gap), the channel
// quality, the battery fitted to the nodes, the clinical service levels
// (PRD and delay ceilings) and the optimizer settings (engine, budget,
// seed). Specs round-trip through util::Json, so deployments are
// plain *.json files a clinician-facing tool (or the wsnex CLI) can edit
// without recompiling anything.
//
// Determinism contract: a validated spec fully determines the exploration
// result: archives are bit-identical for a fixed (spec, seed), which is
// what makes campaign checkpoint/resume (campaign.hpp) reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/design_space.hpp"
#include "model/evaluator.hpp"
#include "model/lifetime.hpp"
#include "util/json.hpp"

namespace wsnex::scenario {

/// Validation / deserialization failure. The message lists every problem
/// found (one "  - field: problem" line each), so a user can fix a spec in
/// one edit instead of peeling errors one at a time.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which DSE engine explores the scenario.
enum class OptimizerKind { kNsga2, kMosa, kRandom };

const char* to_string(OptimizerKind kind);

/// Optimizer settings; fields irrelevant to the chosen kind are ignored
/// (e.g. population/generations under MOSA). Defaults reproduce the
/// paper's ~4000-evaluation budget.
struct OptimizerSettings {
  OptimizerKind kind = OptimizerKind::kNsga2;
  std::size_t population = 64;      ///< NSGA-II individuals per generation
  std::size_t generations = 60;     ///< NSGA-II generation steps
  std::size_t iterations = 4000;    ///< MOSA proposals / random samples
  double crossover_rate = 0.9;      ///< NSGA-II, in [0, 1]
  double mutation_rate = 0.0;       ///< 0 = engine default for the kind
  double initial_temperature = 1.0; ///< MOSA, > 0
  double cooling = 0.999;           ///< MOSA geometric factor, in (0, 1]
  std::uint64_t seed = 1;
  /// No-op, kept so JSON that carries it still parses and round-trips:
  /// frozen campaign stores, serve shards, examples/scenarios/*.json and
  /// client specs all have an "optimizer.threads" key, and from_json
  /// rejects unknown keys. The optimizer runs on the calling thread
  /// whatever its value; campaigns parallelize across scenarios (`jobs`).
  std::size_t threads = 0;
};

/// Gilbert-Elliott burst-error parameters, in deployment terms: how bad a
/// fade is (burst_fer), how long it lasts (mean_burst_frames) and how much
/// of the time the link is faded (bad_fraction). The simulator's two-state
/// chain is derived from these; the analytical model sees the long-run
/// average FER (see ScenarioSpec::effective_frame_error_rate), so
/// validation quantifies exactly the discrepancy burstiness introduces
/// into a Bernoulli model.
struct BurstSpec {
  double burst_fer = 0.0;          ///< FER inside a burst (bad state), [0, 1)
  double mean_burst_frames = 8.0;  ///< mean burst length in frames, >= 1
  /// Steady-state bad-state share, [0, 1). Realizability:
  /// bad_fraction <= mean / (mean + 1), or the chain would need bursts
  /// recurring faster than every frame — validate() rejects that.
  double bad_fraction = 0.0;

  /// The process only changes anything when bursts occur and drop frames.
  bool active() const { return burst_fer > 0.0 && bad_fraction > 0.0; }
};

/// Channel quality. Exactly one of the two uniform rates may be set (both
/// zero = ideal channel). A bit error rate is converted to the frame error
/// rate the analytical model consumes via the *largest* frame the payload
/// grid can produce (worst case): FER = 1 - (1 - BER)^(8 * frame_bytes).
/// The stochastic extensions (burst process, per-node FER) only affect the
/// packet simulator — the analytical side folds them into a single
/// Bernoulli rate (the long-run average), which is the modelling gap the
/// validation subsystem measures.
struct ChannelSpec {
  double frame_error_rate = 0.0;  ///< in [0, 1)
  double bit_error_rate = 0.0;    ///< in [0, 1)
  BurstSpec burst;                ///< inactive by default
  /// Per-node uplink FER (empty, or node_count entries in [0, 1)): models
  /// position-dependent link quality inside the ward.
  std::vector<double> node_fer;
};

/// Channel access discipline of the sensor nodes. TDMA (the paper's
/// choice) allocates collision-free GTS slots; CSMA runs every node as a
/// slotted CSMA/CA contender in the CAP — the packet simulator exercises
/// collisions, backoff and retry exhaustion, while the analytical side
/// falls back to the statistical CsmaCapModel where a counterpart exists.
enum class ChannelAccess { kTdma, kCsma };

const char* to_string(ChannelAccess access);

/// Clinical service levels the ward manager imposes on any deployed
/// configuration (Section 4.1 framing): reconstruction quality and
/// freshness. Used to cut the feasible set out of a Pareto archive.
struct ClinicalConstraints {
  double max_prd_percent = 40.0;  ///< PRD_net ceiling, percent
  double max_delay_s = 1.0;       ///< D_net ceiling, seconds
};

/// One declarative deployment scenario.
struct ScenarioSpec {
  /// Identifier, also the result-directory name: [a-z0-9_-], non-empty.
  std::string name;
  std::string description;

  std::size_t node_count = 6;
  /// Application per node; empty = the paper's default mix (first half
  /// DWT, rest CS). When non-empty must have node_count entries.
  std::vector<model::AppKind> apps;

  /// Explored grids; defaults are the Section 4.1 case-study domains.
  std::vector<double> cr_grid;
  std::vector<double> mcu_freq_khz_grid;
  std::vector<std::size_t> payload_grid;
  std::vector<unsigned> bco_grid;
  std::vector<unsigned> sfo_gap_grid;

  ChannelSpec channel;
  /// How the sensor nodes reach the coordinator (default: the paper's
  /// collision-free TDMA). Affects simulation/validation; the DSE engine
  /// always explores the TDMA design space.
  ChannelAccess access = ChannelAccess::kTdma;
  model::Battery battery;
  ClinicalConstraints constraints;
  /// Eq. 8 balance weight theta (>= 0).
  double theta = 0.5;
  OptimizerSettings optimizer;

  ScenarioSpec();  ///< fills the grids with the case-study defaults

  /// Throws ScenarioError listing *all* violated rules.
  void validate() const;

  /// The frame error rate the evaluator will use (derives from
  /// bit_error_rate when that is the set field). The stochastic channel
  /// extensions are folded into this single Bernoulli rate: an active
  /// burst process contributes its long-run average, and per-node FERs
  /// enter as the network mean of the composed per-node rates. Requires a
  /// valid spec.
  double effective_frame_error_rate() const;

  /// Lowers the spec onto the engine types. All require a valid spec.
  dse::DesignSpaceConfig design_space_config() const;
  model::EvaluatorOptions evaluator_options() const;

  /// JSON (de)serialization. from_json validates structurally (types,
  /// unknown keys) and semantically (validate()) and throws ScenarioError;
  /// to_json emits every field that differs from "unset" (an empty apps
  /// list is omitted), so from_json(to_json(s)) == s.
  static ScenarioSpec from_json(const util::Json& json);
  static ScenarioSpec from_json_text(std::string_view text);
  /// Parses the file at `path` (throws ScenarioError naming the path on
  /// I/O or spec errors).
  static ScenarioSpec from_file(const std::string& path);
  util::Json to_json() const;

  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b);
};

bool operator==(const OptimizerSettings& a, const OptimizerSettings& b);
bool operator==(const BurstSpec& a, const BurstSpec& b);
bool operator==(const ChannelSpec& a, const ChannelSpec& b);
bool operator==(const ClinicalConstraints& a, const ClinicalConstraints& b);
bool operator==(const model::Battery& a, const model::Battery& b);

}  // namespace wsnex::scenario
