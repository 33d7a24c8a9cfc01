#include "sim/network.hpp"

#include <cmath>
#include <stdexcept>

#include "util/clock.hpp"

namespace wsnex::sim {

NetworkResult run_network(const NetworkScenario& scenario) {
  if (!scenario.mac.valid()) {
    throw std::invalid_argument("run_network: invalid MAC configuration");
  }
  if (scenario.mac.gts_slots.size() != scenario.traffic.size()) {
    throw std::invalid_argument(
        "run_network: traffic/gts_slots size mismatch");
  }
  if (!scenario.access.empty() &&
      scenario.access.size() != scenario.traffic.size()) {
    throw std::invalid_argument("run_network: access size mismatch");
  }
  if (!scenario.node_fer.empty() &&
      scenario.node_fer.size() != scenario.traffic.size()) {
    throw std::invalid_argument("run_network: node_fer size mismatch");
  }
  if (!std::isfinite(scenario.duration_s) || !(scenario.duration_s > 0.0)) {
    throw std::invalid_argument(
        "run_network: duration_s must be finite and > 0");
  }
  const std::size_t n = scenario.traffic.size();

  const util::Stopwatch watch;

  Engine engine;
  ChannelErrorConfig errors;
  errors.frame_error_rate = scenario.frame_error_rate;
  errors.burst = scenario.burst;
  errors.node_fer = scenario.node_fer;
  Channel channel(engine, std::move(errors), scenario.seed);
  Coordinator coordinator(engine, channel, scenario.mac, n);

  // Build the GTS layout once; nodes without slots still hear beacons.
  const std::vector<mac::GtsAllocation> layout = scenario.mac.layout();
  std::vector<std::unique_ptr<SensorNode>> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mac::GtsAllocation alloc;  // zero slots unless present in the layout
    alloc.node = static_cast<std::uint32_t>(i);
    for (const mac::GtsAllocation& a : layout) {
      if (a.node == i) alloc = a;
    }
    const AccessMode access =
        scenario.access.empty() ? AccessMode::kGts : scenario.access[i];
    nodes.push_back(std::make_unique<SensorNode>(
        engine, channel, static_cast<Address>(i + 1), scenario.mac, alloc,
        scenario.traffic[i], access, scenario.seed));
  }

  coordinator.start();
  for (auto& node : nodes) node->start();
  engine.run_until(scenario.duration_s);

  NetworkResult result;
  result.simulated_s = scenario.duration_s;
  result.beacon_interval_s = scenario.mac.superframe().beacon_interval_s();
  result.beacons_sent = coordinator.beacons_sent();
  result.data_frames_received = coordinator.data_frames_received();
  result.payload_bytes_received = coordinator.payload_bytes_received();
  result.duplicate_frames_received = coordinator.duplicate_frames_received();
  result.channel_collisions = channel.collisions();
  result.channel_drops = channel.drops();
  result.bad_state_frames = channel.bad_state_frames();
  result.events_executed = engine.events_executed();
  result.deliveries = coordinator.deliveries();

  result.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeResult& nr = result.nodes[i];
    nr.counters = nodes[i]->counters();
    nr.frame_latency = coordinator.latency_stats()[i];
    nr.residual_queue_frames = nodes[i]->queued_frames();

    const double t = scenario.duration_s;
    hw::NodeActivity& act = nr.radio_activity;
    act.tx_bytes_per_s = static_cast<double>(nr.counters.tx_mac_bytes) / t;
    act.tx_frames_per_s =
        static_cast<double>(nr.counters.tx_frames_on_air) / t;
    act.rx_bytes_per_s = static_cast<double>(nr.counters.rx_mac_bytes) / t;
    act.rx_frames_per_s = static_cast<double>(nr.counters.rx_frames) / t;
    act.radio_bursts_per_s =
        static_cast<double>(nr.counters.gts_windows) / t;
  }

  result.wallclock_s = watch.elapsed_s();
  return result;
}

}  // namespace wsnex::sim
