#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace wsnex::sim {
namespace {

NetworkScenario nominal_scenario() {
  NetworkScenario sc;
  sc.mac.payload_bytes = 64;
  sc.mac.bco = 6;
  sc.mac.sfo = 6;
  sc.mac.gts_slots = {1, 1, 1, 1, 1, 1};
  sc.traffic.assign(6, NodeTraffic{96.0, 1.024});
  sc.duration_s = 60.0;
  return sc;
}

TEST(Network, NominalRunIsStableAndCollisionFree) {
  const NetworkResult r = run_network(nominal_scenario());
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.channel_collisions, 0u);  // GTS schedule never overlaps
  EXPECT_EQ(r.channel_drops, 0u);
  EXPECT_GT(r.data_frames_received, 0u);
}

TEST(Network, BeaconCountMatchesBeaconInterval) {
  NetworkScenario sc = nominal_scenario();
  sc.duration_s = 64.0;
  const NetworkResult r = run_network(sc);
  const double bi = sc.mac.superframe().beacon_interval_s();
  EXPECT_NEAR(static_cast<double>(r.beacons_sent), 64.0 / bi, 2.0);
}

TEST(Network, FrameConservation) {
  const NetworkResult r = run_network(nominal_scenario());
  std::uint64_t enqueued = 0;
  std::uint64_t acked = 0;
  std::uint64_t residual = 0;
  for (const NodeResult& n : r.nodes) {
    enqueued += n.counters.frames_enqueued;
    acked += n.counters.frames_acked;
    residual += n.residual_queue_frames;
  }
  // Every enqueued frame is either acked or still queued (or in flight,
  // covered by the +- small tolerance at the horizon).
  EXPECT_NEAR(static_cast<double>(enqueued),
              static_cast<double>(acked + residual), 6.0);
  EXPECT_EQ(r.data_frames_received, acked);  // no loss without errors
}

TEST(Network, ThroughputMatchesOfferedLoad) {
  NetworkScenario sc = nominal_scenario();
  sc.duration_s = 200.0;
  const NetworkResult r = run_network(sc);
  const double offered = 6.0 * 96.0;  // B/s
  const double delivered =
      static_cast<double>(r.payload_bytes_received) / sc.duration_s;
  EXPECT_NEAR(delivered, offered, 0.05 * offered);
}

TEST(Network, LatencyBelowBeaconIntervalWhenUnderloaded) {
  const NetworkResult r = run_network(nominal_scenario());
  const double bi = r.nodes.empty()
                        ? 0.0
                        : nominal_scenario().mac.superframe().beacon_interval_s();
  for (const NodeResult& n : r.nodes) {
    ASSERT_GT(n.frame_latency.count(), 0u);
    // A frame never waits more than one full superframe cycle plus its own
    // window when capacity exceeds load.
    EXPECT_LT(n.frame_latency.max(), bi * 1.1);
    EXPECT_GT(n.frame_latency.min(), 0.0);
  }
}

TEST(Network, NodeWithoutGtsDeliversNothing) {
  NetworkScenario sc = nominal_scenario();
  sc.mac.gts_slots = {1, 1, 1, 1, 1, 0};  // node 5 has no slot
  const NetworkResult r = run_network(sc);
  EXPECT_EQ(r.nodes[5].counters.frames_acked, 0u);
  EXPECT_GT(r.nodes[5].residual_queue_frames, 0u);
  EXPECT_FALSE(r.stable());
  // Other nodes are unaffected.
  EXPECT_GT(r.nodes[0].counters.frames_acked, 0u);
}

TEST(Network, OverloadedNodeAccumulatesBacklog) {
  NetworkScenario sc = nominal_scenario();
  sc.traffic[2].bytes_per_second = 5000.0;  // far beyond one slot
  const NetworkResult r = run_network(sc);
  EXPECT_FALSE(r.stable());
  EXPECT_GT(r.nodes[2].residual_queue_frames, 10u);
}

TEST(Network, FrameErrorsTriggerRetries) {
  NetworkScenario sc = nominal_scenario();
  sc.frame_error_rate = 0.05;
  sc.duration_s = 120.0;
  const NetworkResult r = run_network(sc);
  std::uint64_t retries = 0;
  for (const NodeResult& n : r.nodes) retries += n.counters.retries;
  EXPECT_GT(retries, 0u);
  EXPECT_GT(r.channel_drops, 0u);
}

TEST(Network, AckLossDuplicatesAreFilteredFromDeliveries) {
  NetworkScenario sc = nominal_scenario();
  sc.frame_error_rate = 0.2;  // plenty of lost ACKs -> duplicate data frames
  sc.duration_s = 240.0;
  const NetworkResult r = run_network(sc);
  EXPECT_GT(r.duplicate_frames_received, 0u);
  // Deliveries are unique per (node, seq): goodput and latency describe
  // first arrivals only, duplicates are counted separately.
  std::set<std::pair<Address, std::uint64_t>> seen;
  for (const FrameDelivery& d : r.deliveries) {
    EXPECT_TRUE(seen.emplace(d.node, d.seq).second)
        << "duplicate delivery node " << d.node << " seq " << d.seq;
  }
  EXPECT_EQ(r.deliveries.size(), r.data_frames_received);
}

TEST(Network, HeavyErrorsExhaustRetryBudget) {
  NetworkScenario sc = nominal_scenario();
  sc.frame_error_rate = 0.9;
  sc.duration_s = 120.0;
  const NetworkResult r = run_network(sc);
  std::uint64_t dropped = 0;
  for (const NodeResult& n : r.nodes) dropped += n.counters.frames_dropped;
  EXPECT_GT(dropped, 0u);
}

TEST(Network, RadioActivityProfileConsistent) {
  NetworkScenario sc = nominal_scenario();
  sc.duration_s = 100.0;
  const NetworkResult r = run_network(sc);
  for (const NodeResult& n : r.nodes) {
    // 96 B/s payload over 64-byte frames: 1.5 data frames/s, 77 MAC bytes
    // each -> ~115.5 B/s on air.
    EXPECT_NEAR(n.radio_activity.tx_frames_per_s, 1.5, 0.1);
    EXPECT_NEAR(n.radio_activity.tx_bytes_per_s, 1.5 * 77.0, 6.0);
    EXPECT_GT(n.radio_activity.rx_bytes_per_s, 0.0);  // beacons + acks
    EXPECT_GT(n.radio_activity.radio_bursts_per_s, 0.0);
  }
}

TEST(Network, RejectsMalformedScenarios) {
  NetworkScenario sc = nominal_scenario();
  sc.traffic.pop_back();  // size mismatch
  EXPECT_THROW(run_network(sc), std::invalid_argument);

  NetworkScenario bad_mac = nominal_scenario();
  bad_mac.mac.gts_slots = {2, 2, 2, 2, 0, 0};  // 8 GTS slots > 7
  EXPECT_THROW(run_network(bad_mac), std::invalid_argument);

  // A horizon that is not finite and positive would never end the run
  // (infinity) or yield no result worth having.
  for (const double duration :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    NetworkScenario bad_duration = nominal_scenario();
    bad_duration.duration_s = duration;
    EXPECT_THROW(run_network(bad_duration), std::invalid_argument)
        << duration;
  }
}

/// FNV-1a over 64-bit words, low byte first.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Everything a replay exposes about its event trace, folded into exact
/// integers: a change in firing order moves at least one of them.
struct Trace {
  std::uint64_t events_executed = 0;
  std::uint64_t beacons_sent = 0;
  std::uint64_t data_frames_received = 0;
  std::uint64_t duplicate_frames_received = 0;
  std::uint64_t channel_collisions = 0;
  std::uint64_t channel_drops = 0;
  std::uint64_t bad_state_frames = 0;
  std::uint64_t node_counters_digest = 0;  ///< every NodeCounters field
  std::uint64_t deliveries = 0;
  std::uint64_t deliveries_digest = 0;  ///< (node, seq, latency bits)

  bool operator==(const Trace&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Trace& t) {
  return os << "Trace{" << t.events_executed << ", " << t.beacons_sent
            << ", " << t.data_frames_received << ", "
            << t.duplicate_frames_received << ", " << t.channel_collisions
            << ", " << t.channel_drops << ", " << t.bad_state_frames
            << ", 0x" << std::hex << t.node_counters_digest << std::dec
            << "ULL, " << t.deliveries << ", 0x" << std::hex
            << t.deliveries_digest << std::dec << "ULL}";
}

Trace trace_of(const NetworkResult& r) {
  Trace t;
  t.events_executed = r.events_executed;
  t.beacons_sent = r.beacons_sent;
  t.data_frames_received = r.data_frames_received;
  t.duplicate_frames_received = r.duplicate_frames_received;
  t.channel_collisions = r.channel_collisions;
  t.channel_drops = r.channel_drops;
  t.bad_state_frames = r.bad_state_frames;
  Fnv1a counters;
  for (const NodeResult& n : r.nodes) {
    const NodeCounters& c = n.counters;
    for (const std::uint64_t v :
         {c.frames_enqueued, c.frames_acked, c.frames_sent, c.retries,
          c.frames_dropped, c.tx_mac_bytes, c.rx_mac_bytes, c.rx_frames,
          c.tx_frames_on_air, c.gts_windows, c.csma_attempts,
          c.csma_busy_cca, c.csma_failures,
          std::uint64_t{c.max_queue_frames},
          std::uint64_t{n.residual_queue_frames}}) {
      counters.add(v);
    }
  }
  t.node_counters_digest = counters.value();
  Fnv1a deliveries;
  for (const FrameDelivery& d : r.deliveries) {
    deliveries.add(d.node);
    deliveries.add(d.seq);
    deliveries.add(std::bit_cast<std::uint64_t>(d.latency_s));
  }
  t.deliveries = r.deliveries.size();
  t.deliveries_digest = deliveries.value();
  return t;
}

// Golden event traces, recorded before the event queue's liveness check
// moved from a hash set to generation-stamped slots: the (at, seq) firing
// order is the contract, so any queue change must reproduce them exactly.
TEST(Network, GoldenTracesPinFiringOrder) {
  NetworkScenario tdma = nominal_scenario();
  tdma.seed = 7;

  NetworkScenario burst = nominal_scenario();
  burst.burst = BurstErrorModel{0.01, 0.5, 0.02, 0.2};
  burst.node_fer = {0.0, 0.02, 0.05, 0.0, 0.1, 0.01};
  burst.duration_s = 120.0;
  burst.seed = 11;

  NetworkScenario csma;
  csma.mac.payload_bytes = 64;
  csma.mac.bco = 6;
  csma.mac.sfo = 5;
  csma.mac.gts_slots.assign(6, 0);
  csma.traffic.assign(6, NodeTraffic{109.0, 1.024});
  csma.access.assign(6, AccessMode::kCsma);
  csma.frame_error_rate = 0.02;
  csma.duration_s = 120.0;
  csma.seed = 3;

  EXPECT_EQ(trace_of(run_network(tdma)),
            (Trace{2412, 62, 526, 0, 0, 0, 0, 0x15cb0357b75142e1ULL, 526,
                   0x2c594fd17d459299ULL}));
  EXPECT_EQ(trace_of(run_network(burst)),
            (Trace{5126, 123, 1067, 48, 0, 190, 254, 0xa9908cf006c26dacULL,
                   1067, 0x920802b1fd2239f5ULL}));
  EXPECT_EQ(trace_of(run_network(csma)),
            (Trace{8893, 123, 1215, 27, 87, 39, 0, 0xcbe30e4b5f7d6020ULL,
                   1215, 0x211c7b3e3ff91470ULL}));
}

TEST(Network, DeterministicAcrossRuns) {
  const NetworkResult a = run_network(nominal_scenario());
  const NetworkResult b = run_network(nominal_scenario());
  EXPECT_EQ(a.data_frames_received, b.data_frames_received);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[i].frame_latency.mean(),
                     b.nodes[i].frame_latency.mean());
  }
}

using ScenarioParam = std::tuple<unsigned, std::size_t, double>;

class ScenarioSweep : public ::testing::TestWithParam<ScenarioParam> {};

TEST_P(ScenarioSweep, StableAndCollisionFreeAcrossConfigs) {
  const auto [bco, payload, rate] = GetParam();
  NetworkScenario sc;
  sc.mac.payload_bytes = payload;
  sc.mac.bco = bco;
  sc.mac.sfo = bco;
  sc.mac.gts_slots = {1, 1, 1, 1, 1, 1};
  sc.traffic.assign(6, NodeTraffic{rate, 1.024});
  sc.duration_s = 80.0;
  const NetworkResult r = run_network(sc);
  EXPECT_EQ(r.channel_collisions, 0u);
  EXPECT_TRUE(r.stable()) << "bco=" << bco << " L=" << payload
                          << " rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScenarioSweep,
    ::testing::Combine(::testing::Values(5u, 6u, 7u),
                       ::testing::Values(std::size_t{32}, std::size_t{64},
                                         std::size_t{114}),
                       ::testing::Values(64.0, 96.0, 140.0)));

}  // namespace
}  // namespace wsnex::sim
