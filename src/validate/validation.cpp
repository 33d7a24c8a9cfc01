#include "validate/validation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "hw/hw_simulator.hpp"
#include "model/csma_model.hpp"
#include "model/node_model.hpp"
#include "sim/timing.hpp"
#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace wsnex::validate {

namespace {

/// Everything one replicate contributes to the aggregation, extracted
/// from a NetworkResult on the worker that ran it.
struct ReplicateMetrics {
  double latency_mean_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  std::vector<double> node_latency_max_s;
  std::vector<double> node_energy_mj_per_s;  ///< hw-sim measured totals
  double energy_net_mj_per_s = 0.0;          ///< Eq. 8 combinator, measured
  double goodput_bytes_per_s = 0.0;
  double drop_rate = 0.0;   ///< frames dropped / frames enqueued
  double retry_rate = 0.0;  ///< retries / unique frames sent
  double duplicates_per_s = 0.0;  ///< ACK-loss retransmissions delivered twice
  double collisions_per_s = 0.0;
  double csma_failure_rate = 0.0;  ///< NB-exhausted attempts / CCA probes
  bool stable = true;
};

ReplicateMetrics extract_metrics(
    const sim::NetworkResult& result, double duration_s, double theta,
    const hw::PlatformPower& platform,
    const std::vector<hw::NodeActivity>& base_activity) {
  ReplicateMetrics m;
  std::vector<double> latencies;
  latencies.reserve(result.deliveries.size());
  for (const sim::FrameDelivery& d : result.deliveries) {
    latencies.push_back(d.latency_s);
  }
  // The mean sums in delivery order (that order is part of the bytes);
  // the order statistics are then selected in place, each the same double
  // a full sort would give.
  m.latency_mean_s = util::mean(latencies);
  m.latency_p95_s = util::percentile_select(latencies, 95.0);
  m.latency_p99_s = util::percentile_select(latencies, 99.0);
  m.latency_max_s = util::percentile_select(latencies, 100.0);

  std::uint64_t enqueued = 0, dropped = 0, sent = 0, retries = 0;
  std::uint64_t csma_attempts = 0, csma_failures = 0;
  m.node_latency_max_s.reserve(result.nodes.size());
  m.node_energy_mj_per_s.reserve(result.nodes.size());
  for (std::size_t n = 0; n < result.nodes.size(); ++n) {
    const sim::NodeResult& nr = result.nodes[n];
    m.node_latency_max_s.push_back(nr.frame_latency.max());
    // Measured energy: the deterministic sensing/compute/memory profile of
    // the configuration with the radio fields the packet run actually
    // observed, integrated by the activity-trace hardware simulator.
    hw::NodeActivity activity = base_activity[n];
    activity.tx_bytes_per_s = nr.radio_activity.tx_bytes_per_s;
    activity.tx_frames_per_s = nr.radio_activity.tx_frames_per_s;
    activity.rx_bytes_per_s = nr.radio_activity.rx_bytes_per_s;
    activity.rx_frames_per_s = nr.radio_activity.rx_frames_per_s;
    activity.radio_bursts_per_s = nr.radio_activity.radio_bursts_per_s;
    m.node_energy_mj_per_s.push_back(
        hw::simulate_node_energy(platform, activity).total());
    enqueued += nr.counters.frames_enqueued;
    dropped += nr.counters.frames_dropped;
    sent += nr.counters.frames_sent;
    retries += nr.counters.retries;
    csma_attempts += nr.counters.csma_attempts;
    csma_failures += nr.counters.csma_failures;
  }
  m.energy_net_mj_per_s =
      util::mean(m.node_energy_mj_per_s) +
      theta * util::sample_stddev(m.node_energy_mj_per_s);
  m.goodput_bytes_per_s =
      static_cast<double>(result.payload_bytes_received) / duration_s;
  if (enqueued > 0) {
    m.drop_rate =
        static_cast<double>(dropped) / static_cast<double>(enqueued);
  }
  if (sent > 0) {
    m.retry_rate = static_cast<double>(retries) / static_cast<double>(sent);
  }
  m.duplicates_per_s =
      static_cast<double>(result.duplicate_frames_received) / duration_s;
  m.collisions_per_s =
      static_cast<double>(result.channel_collisions) / duration_s;
  if (csma_attempts > 0) {
    m.csma_failure_rate = static_cast<double>(csma_failures) /
                          static_cast<double>(csma_attempts);
  }
  m.stable = result.stable();
  return m;
}

/// Builds one aggregated metric row from the per-replicate values in
/// index order (the order is part of the byte-identity contract).
MetricSummary summarize(const std::string& name, const std::string& unit,
                        const std::vector<double>& values, double ci_level,
                        double tolerance_percent,
                        std::optional<double> analytic, VerdictKind kind) {
  MetricSummary s;
  s.name = name;
  s.unit = unit;
  s.count = values.size();
  util::RunningStats stats;
  for (double v : values) stats.add(v);
  s.sim_mean = stats.mean();
  s.sim_stddev = stats.stddev();
  s.sim_min = stats.min();
  s.sim_max = stats.max();
  const util::ConfidenceInterval ci = util::confidence_interval(
      stats.count(), stats.mean(), stats.stddev(), ci_level);
  s.ci_lo = ci.lo;
  s.ci_hi = ci.hi;
  s.kind = kind;
  if (analytic.has_value()) {
    s.has_analytic = true;
    s.analytic = *analytic;
    // A single replicate has an infinite (uninformative) interval; it
    // must not count as overlap or every MAPE verdict would auto-pass.
    s.ci_overlap = std::isfinite(ci.half_width) && s.analytic >= s.ci_lo &&
                   s.analytic <= s.ci_hi;
  }
  switch (kind) {
    case VerdictKind::kInfo:
      s.verdict = Verdict::kInfo;
      break;
    case VerdictKind::kUpperBound:
      // A worst-case bound holds when no replicate ever exceeded it.
      s.verdict = s.sim_max <= s.analytic ? Verdict::kPass : Verdict::kFail;
      break;
    case VerdictKind::kMape: {
      constexpr double kTiny = 1e-9;
      if (std::abs(s.analytic) < kTiny && std::abs(s.sim_mean) < kTiny) {
        s.mape_percent = 0.0;
        s.verdict = Verdict::kPass;
        break;
      }
      const double denom = std::max(std::abs(s.sim_mean), kTiny);
      s.mape_percent = 100.0 * std::abs(s.analytic - s.sim_mean) / denom;
      s.verdict = (s.mape_percent <= tolerance_percent || s.ci_overlap)
                      ? Verdict::kPass
                      : Verdict::kFail;
      break;
    }
  }
  return s;
}

std::string describe_design(const model::NetworkDesign& design) {
  std::string out = "payload=" + std::to_string(design.mac.payload_bytes) +
                    "B BCO=" + std::to_string(design.mac.bco) +
                    " SFO=" + std::to_string(design.mac.sfo);
  for (std::size_t n = 0; n < design.nodes.size(); ++n) {
    const model::NodeConfig& node = design.nodes[n];
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | n%zu:%s cr=%.3g f=%.4gkHz", n,
                  model::to_string(node.app), node.cr, node.mcu_freq_khz);
    out += buf;
  }
  return out;
}

}  // namespace

const char* to_string(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kMape: return "mape";
    case VerdictKind::kUpperBound: return "upper_bound";
    default: return "info";
  }
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kFail: return "fail";
    default: return "info";
  }
}

std::uint64_t ReplicationPlan::replicate_seed(std::uint64_t base_seed,
                                              std::size_t replicate) {
  // splitmix64 over (base + golden-ratio stride * counter): a pure
  // function of (base_seed, replicate) — no shared RNG state to race on.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL *
                                    (static_cast<std::uint64_t>(replicate) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const MetricSummary* ValidationReport::find_metric(
    const std::string& name) const {
  for (const MetricSummary& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

ValidationReport run_validation(const scenario::ScenarioSpec& spec,
                                const ValidationOptions& options) {
  const util::Stopwatch watch;
  spec.validate();
  const ReplicationPlan& plan = options.plan;
  if (plan.replicates == 0) {
    throw ValidationError("replication plan needs at least one replicate");
  }
  if (!std::isfinite(plan.duration_s) || !(plan.duration_s > 0.0)) {
    throw ValidationError("replicate duration must be finite and > 0 s");
  }
  if (!std::isfinite(options.tolerance_percent) ||
      options.tolerance_percent < 0.0) {
    throw ValidationError("tolerance must be finite and >= 0 %");
  }

  const auto evaluator =
      model::NetworkModelEvaluator::make_default(spec.evaluator_options());
  const model::NetworkDesign design =
      options.design.has_value() ? *options.design
                                 : reference_design(spec, evaluator);
  const Lowering low = lower(spec, evaluator, design);
  const bool csma = spec.access == scenario::ChannelAccess::kCsma;

  // Deterministic per-node sensing/compute/memory activity (the radio
  // fields are replaced by each replicate's observations).
  const model::Ieee802154MacModel mac_model(design.mac);
  std::vector<hw::NodeActivity> base_activity;
  base_activity.reserve(design.nodes.size());
  for (const model::NodeConfig& node : design.nodes) {
    base_activity.push_back(model::derive_node_activity(
        evaluator.chain(), evaluator.app_for(node.app), node, mac_model));
  }

  // Replicates: counter-derived seeds, results placed by index, so the
  // aggregation below is independent of the worker count. Each worker
  // runs one contiguous chunk, and no worker gets an empty one.
  std::vector<ReplicateMetrics> reps(plan.replicates);
  const std::size_t jobs =
      std::min(util::resolve_threads(plan.jobs), plan.replicates);
  const std::size_t chunk = (plan.replicates + jobs - 1) / jobs;
  const std::size_t workers = (plan.replicates + chunk - 1) / chunk;
  util::run_parallel(workers, [&](std::size_t worker) {
    const std::size_t end = std::min(plan.replicates, (worker + 1) * chunk);
    for (std::size_t r = worker * chunk; r < end; ++r) {
      sim::NetworkScenario sc = low.sim;
      sc.duration_s = plan.duration_s;
      sc.seed = ReplicationPlan::replicate_seed(plan.base_seed, r);
      const sim::NetworkResult result = sim::run_network(sc);
      reps[r] = extract_metrics(result, plan.duration_s, spec.theta,
                                evaluator.platform(), base_activity);
    }
  });

  ValidationReport report;
  report.scenario = spec.name;
  report.config = describe_design(design);
  report.access = spec.access;
  report.replicates = plan.replicates;
  report.duration_s = plan.duration_s;
  report.tolerance_percent = options.tolerance_percent;
  report.ci_level = options.ci_level;
  report.base_seed = plan.base_seed;
  report.analytic_fer = spec.effective_frame_error_rate();
  // The long-run per-frame loss rate the simulator actually enforces:
  // burst average (or uniform rate) composed with each node's uplink FER.
  // This is what decides whether the channel is lossless (Eq. 9 bound
  // gating) and what the reliability predictions are evaluated at.
  const double state_fer = spec.channel.burst.active()
                               ? sim_burst_model(spec, design).mean_fer()
                               : sim_frame_error_rate(spec, design);
  std::vector<double> node_loss_rates(design.nodes.size(), state_fer);
  if (!spec.channel.node_fer.empty()) {
    for (std::size_t n = 0; n < node_loss_rates.size(); ++n) {
      node_loss_rates[n] =
          1.0 - (1.0 - state_fer) * (1.0 - spec.channel.node_fer[n]);
    }
  }
  report.sim_fer = util::mean(node_loss_rates);
  for (const ReplicateMetrics& m : reps) {
    if (!m.stable) ++report.unstable_replicates;
  }

  const auto column = [&](auto extract) {
    std::vector<double> values;
    values.reserve(reps.size());
    for (const ReplicateMetrics& m : reps) values.push_back(extract(m));
    return values;
  };
  const auto add = [&](const std::string& name, const std::string& unit,
                       std::vector<double> values,
                       std::optional<double> analytic, VerdictKind kind) {
    report.metrics.push_back(summarize(name, unit, values, options.ci_level,
                                       options.tolerance_percent, analytic,
                                       kind));
  };

  // Latency distribution. The analytical model only predicts a worst-case
  // bound (Eq. 9), so the distribution rows are informational and the max
  // is judged as a bound — under TDMA on a lossless channel. Contention
  // has no Eq. 9 bound, and the bound is derived for loss-free delivery:
  // once frames can be lost, a retransmission legitimately lands in a
  // later superframe, so under losses the rows carry the bound for
  // reference without gating.
  const bool judge_bound = !csma && report.sim_fer == 0.0;
  add("latency_mean_s", "s",
      column([](const ReplicateMetrics& m) { return m.latency_mean_s; }),
      std::nullopt, VerdictKind::kInfo);
  add("latency_p95_s", "s",
      column([](const ReplicateMetrics& m) { return m.latency_p95_s; }),
      std::nullopt, VerdictKind::kInfo);
  add("latency_p99_s", "s",
      column([](const ReplicateMetrics& m) { return m.latency_p99_s; }),
      std::nullopt, VerdictKind::kInfo);
  add("latency_max_s", "s",
      column([](const ReplicateMetrics& m) { return m.latency_max_s; }),
      csma ? std::nullopt : std::optional<double>(low.eval.delay_metric_s),
      judge_bound ? VerdictKind::kUpperBound : VerdictKind::kInfo);
  if (!csma) {
    for (std::size_t n = 0; n < design.nodes.size(); ++n) {
      add("node" + std::to_string(n) + "_latency_max_s", "s",
          column([n](const ReplicateMetrics& m) {
            return m.node_latency_max_s[n];
          }),
          low.eval.nodes[n].delay_bound_s,
          judge_bound ? VerdictKind::kUpperBound : VerdictKind::kInfo);
    }
  }

  // Throughput: in a stable run the network delivers every compressed
  // stream, so the prediction is the summed application output.
  double analytic_goodput = 0.0;
  for (const model::NodeEvaluation& node : low.eval.nodes) {
    analytic_goodput += node.phi_out_bytes_per_s;
  }
  add("goodput_bytes_per_s", "B/s",
      column([](const ReplicateMetrics& m) { return m.goodput_bytes_per_s; }),
      analytic_goodput, VerdictKind::kMape);

  // Energy: measured by the activity-trace hardware simulator over each
  // replicate's observed radio profile, vs Eq. 3-8. Under contention the
  // evaluator's GTS-based radio accounting is not the prediction for this
  // schedule, so the rows demote to informational.
  const VerdictKind energy_kind =
      csma ? VerdictKind::kInfo : VerdictKind::kMape;
  add("energy_net_mj_per_s", "mJ/s",
      column([](const ReplicateMetrics& m) { return m.energy_net_mj_per_s; }),
      low.eval.energy_metric, energy_kind);
  for (std::size_t n = 0; n < design.nodes.size(); ++n) {
    add("node" + std::to_string(n) + "_energy_mj_per_s", "mJ/s",
        column([n](const ReplicateMetrics& m) {
          return m.node_energy_mj_per_s[n];
        }),
        low.eval.nodes[n].energy.total(), energy_kind);
  }

  // Reliability: truncated-geometric retry/drop expectations (an exchange
  // fails when the data frame or its ACK is lost, Section 3.3), evaluated
  // at each node's concrete *simulator* rate and averaged — these rows
  // judge the geometric retry structure; the model's separate
  // worst-case-grid rate conversion is already surfaced as analytic_fer
  // vs sim_fer. The formulas assume *independent* losses: an active
  // burst process violates that by construction (consecutive losses
  // cluster, so the retry budget exhausts far more often than the
  // geometric tail predicts) — that gap is worth reporting but is a
  // known model limitation, not a regression, so the rows demote to
  // informational under bursts, as under contention.
  const double attempts = static_cast<double>(sim::MacTiming::kMaxRetries) + 1;
  double analytic_retry = 0.0, analytic_drop = 0.0;
  for (const double p_uplink : node_loss_rates) {
    // Asymmetric exchange: the data frame crosses at the node's uplink
    // rate, the ACK comes back from the coordinator at the state rate
    // (node FERs model uplink quality only).
    const double q = 1.0 - (1.0 - p_uplink) * (1.0 - state_fer);
    const double expected_tx =
        q < 1.0 ? (1.0 - std::pow(q, attempts)) / (1.0 - q) : attempts;
    analytic_retry += expected_tx - 1.0;
    analytic_drop += std::pow(q, attempts);
  }
  analytic_retry /= static_cast<double>(node_loss_rates.size());
  analytic_drop /= static_cast<double>(node_loss_rates.size());
  const VerdictKind reliability_kind =
      csma || spec.channel.burst.active() ? VerdictKind::kInfo
                                          : VerdictKind::kMape;
  add("retry_rate", "retries/frame",
      column([](const ReplicateMetrics& m) { return m.retry_rate; }),
      analytic_retry, reliability_kind);
  add("drop_rate", "drops/frame",
      column([](const ReplicateMetrics& m) { return m.drop_rate; }),
      analytic_drop, reliability_kind);
  add("duplicates_per_s", "1/s",
      column([](const ReplicateMetrics& m) { return m.duplicates_per_s; }),
      std::nullopt, VerdictKind::kInfo);
  add("collisions_per_s", "1/s",
      column([](const ReplicateMetrics& m) { return m.collisions_per_s; }),
      csma ? std::nullopt : std::optional<double>(0.0), VerdictKind::kInfo);
  if (csma) {
    // First-order CSMA model (Section 3.2's statistical Delta_tx): the
    // contention probabilities are order-of-magnitude predictions, so
    // they inform rather than gate.
    std::vector<double> phi_out;
    for (const model::NodeEvaluation& node : low.eval.nodes) {
      phi_out.push_back(node.phi_out_bytes_per_s);
    }
    const model::CsmaAssignment contention =
        model::CsmaCapModel(design.mac).characterize(phi_out);
    add("csma_busy_cca_probability", "",
        column([](const ReplicateMetrics& m) { return m.csma_failure_rate; }),
        contention.busy_cca_probability, VerdictKind::kInfo);
  }

  // Stability gates the run only when it is systematic (> 10 % of
  // replicates): a burst landing right at the horizon leaves a transient
  // queue in an occasional replicate without meaning the configuration
  // cannot sustain its load. The count is always reported.
  report.passed = report.unstable_replicates * 10 <= report.replicates;
  for (const MetricSummary& m : report.metrics) {
    if (m.verdict == Verdict::kFail) report.passed = false;
  }
  report.wallclock_s = watch.elapsed_s();
  return report;
}

util::Json ValidationReport::to_json() const {
  util::Json json = util::Json::object();
  json.set("scenario", scenario);
  json.set("config", config);
  json.set("access", scenario::to_string(access));
  json.set("replicates", replicates);
  json.set("duration_s", duration_s);
  json.set("tolerance_percent", tolerance_percent);
  json.set("ci_level", ci_level);
  json.set("base_seed", static_cast<std::int64_t>(base_seed));
  json.set("analytic_frame_error_rate", analytic_fer);
  json.set("sim_frame_error_rate", sim_fer);
  json.set("unstable_replicates", unstable_replicates);
  json.set("passed", passed);
  util::Json rows = util::Json::array();
  for (const MetricSummary& m : metrics) {
    util::Json row = util::Json::object();
    row.set("name", m.name);
    row.set("unit", m.unit);
    row.set("count", m.count);
    row.set("sim_mean", m.sim_mean);
    row.set("sim_stddev", m.sim_stddev);
    if (std::isfinite(m.ci_lo)) {
      // count < 2 has an infinite (unserializable) interval; omit it.
      row.set("ci_lo", m.ci_lo);
      row.set("ci_hi", m.ci_hi);
    }
    row.set("sim_min", m.sim_min);
    row.set("sim_max", m.sim_max);
    if (m.has_analytic) {
      row.set("analytic", m.analytic);
      row.set("ci_overlap", m.ci_overlap);
    }
    row.set("kind", to_string(m.kind));
    if (m.kind == VerdictKind::kMape) {
      row.set("mape_percent", m.mape_percent);
    }
    row.set("verdict", to_string(m.verdict));
    rows.push_back(std::move(row));
  }
  json.set("metrics", std::move(rows));
  return json;
}

void ValidationReport::write_csv(const std::string& path) const {
  util::CsvWriter csv(path);
  csv.write_row({"metric", "unit", "replicates", "sim_mean", "sim_stddev",
                 "ci_lo", "ci_hi", "sim_min", "sim_max", "analytic", "kind",
                 "mape_percent", "ci_overlap", "verdict"});
  const auto num = [](double v) { return util::format_double_shortest(v); };
  for (const MetricSummary& m : metrics) {
    const bool finite_ci = std::isfinite(m.ci_lo);
    csv.write_row({m.name, m.unit, std::to_string(m.count), num(m.sim_mean),
                   num(m.sim_stddev), finite_ci ? num(m.ci_lo) : "",
                   finite_ci ? num(m.ci_hi) : "", num(m.sim_min),
                   num(m.sim_max), m.has_analytic ? num(m.analytic) : "",
                   to_string(m.kind),
                   m.kind == VerdictKind::kMape ? num(m.mape_percent) : "",
                   m.has_analytic ? (m.ci_overlap ? "true" : "false") : "",
                   to_string(m.verdict)});
  }
  csv.close();
}

void persist_validation(const scenario::ResultStore& store,
                        const ValidationReport& report) {
  store.ensure_result_dir(report.scenario);
  store.write_validation(report.scenario, report.to_json());
  report.write_csv(store.validation_csv_path(report.scenario));
}

scenario::PostScenarioHook make_campaign_validation_hook(
    const CampaignValidation& options) {
  return [options](const scenario::ScenarioSpec& spec,
                   const scenario::ScenarioRun& run,
                   scenario::ResultStore& store) {
    ValidationOptions vopts;
    vopts.plan.replicates = options.replicates;
    // The campaign's lanes already cover --jobs: replicates run on this
    // lane's thread instead of fanning out to every core.
    vopts.plan.jobs = 1;
    vopts.plan.duration_s = options.duration_s;
    vopts.plan.base_seed = spec.optimizer.seed;
    vopts.tolerance_percent = options.tolerance_percent;
    const std::vector<std::size_t> feasible =
        scenario::feasible_entries(run.result.archive, spec.constraints);
    if (!feasible.empty()) {
      vopts.design = run.space.decode(
          run.result.archive.entries()[feasible.front()].genome);
    }
    try {
      persist_validation(store, run_validation(spec, vopts));
    } catch (const ValidationError& e) {
      // A scenario with nothing validatable (e.g. no feasible design
      // point at all) is a *result*, not a campaign-stopping failure:
      // throwing here would leave the scenario pending forever — every
      // resume would redo the whole DSE run just to hit the same
      // deterministic error. Record the failure instead.
      util::Json failure = util::Json::object();
      failure.set("scenario", spec.name);
      failure.set("passed", false);
      failure.set("error", std::string(e.what()));
      store.write_validation(spec.name, failure);
    }
  };
}

}  // namespace wsnex::validate
