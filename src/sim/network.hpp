// Network assembly and simulation runner — the packet-level evaluation path
// the paper compares its analytical model against (a Castalia-class
// simulation, Section 5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/activity.hpp"
#include "mac/mac_config.hpp"
#include "sim/channel.hpp"
#include "sim/coordinator.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"

namespace wsnex::sim {

/// Scenario description: the MAC configuration plus per-node traffic.
struct NetworkScenario {
  mac::MacConfig mac;
  std::vector<NodeTraffic> traffic;      ///< size N
  /// Per-node channel access. Empty == all nodes use their GTS (TDMA).
  /// CSMA nodes contend in the CAP and ignore any gts_slots entry.
  std::vector<AccessMode> access;
  double duration_s = 60.0;
  double frame_error_rate = 0.0;
  /// Gilbert-Elliott burst-error process (inactive by default); when
  /// active it replaces frame_error_rate with its per-state rates.
  BurstErrorModel burst;
  /// Per-node uplink FER (empty or size N); composes with the state FER.
  std::vector<double> node_fer;
  std::uint64_t seed = 1;
};

/// Per-node results of one simulation run.
struct NodeResult {
  NodeCounters counters;
  util::RunningStats frame_latency;  ///< seconds, enqueue -> delivery
  std::size_t residual_queue_frames = 0;
  /// Radio-side activity profile observed in the run, suitable for the
  /// hardware energy simulator (compute/sensing fields are zero: the
  /// packet simulator only sees the radio).
  hw::NodeActivity radio_activity;
};

struct NetworkResult {
  std::vector<NodeResult> nodes;
  std::uint64_t beacons_sent = 0;
  std::uint64_t data_frames_received = 0;   ///< unique (duplicates filtered)
  std::uint64_t payload_bytes_received = 0; ///< unique payload bytes
  /// Retransmissions of already-delivered frames (their ACK was lost).
  std::uint64_t duplicate_frames_received = 0;
  std::uint64_t channel_collisions = 0;
  std::uint64_t channel_drops = 0;
  /// Frames sent while the burst process sat in its bad state (0 unless
  /// the scenario configures a burst model).
  std::uint64_t bad_state_frames = 0;
  std::uint64_t events_executed = 0;
  double simulated_s = 0.0;
  double wallclock_s = 0.0;  ///< host time spent simulating
  double beacon_interval_s = 0.0;
  std::vector<FrameDelivery> deliveries;

  /// True when the offered load is sustainable: the residual queue at the
  /// horizon must not exceed the natural in-flight backlog (about one to
  /// two beacon intervals' worth of frames). An unserved or overloaded
  /// node accumulates far more.
  bool stable() const {
    for (const NodeResult& n : nodes) {
      const double rate =
          static_cast<double>(n.counters.frames_enqueued) /
          std::max(simulated_s, 1e-9);
      const double allowance =
          std::max(4.0, 2.0 * rate * beacon_interval_s + 2.0);
      if (static_cast<double>(n.residual_queue_frames) > allowance) {
        return false;
      }
    }
    return true;
  }
};

/// Builds the star network described by `scenario`, runs it and collects
/// the results. Throws std::invalid_argument on malformed scenarios
/// (traffic size mismatch, invalid MAC configuration, a duration that is
/// not finite and positive).
NetworkResult run_network(const NetworkScenario& scenario);

}  // namespace wsnex::sim
