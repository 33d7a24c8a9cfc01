// Sensor-node MAC/application state machine for the packet simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/mac_config.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/packet.hpp"

namespace wsnex::sim {

/// Application traffic description for one node: the compression app emits
/// `bytes_per_second` on average, in one block per `window_period_s` (one
/// compressed window). Fractional bytes accumulate across blocks.
struct NodeTraffic {
  double bytes_per_second = 0.0;
  double window_period_s = 1.024;  ///< 256 samples at 250 Hz
};

/// Channel access discipline of a node.
enum class AccessMode {
  kGts,   ///< transmits only inside its guaranteed time slots (TDMA)
  kCsma,  ///< contends in the CAP with slotted CSMA/CA
};

/// Per-node counters exported after a run.
struct NodeCounters {
  std::uint64_t frames_enqueued = 0;   ///< full frames formed by the app
  std::uint64_t frames_acked = 0;
  std::uint64_t frames_sent = 0;       ///< unique frames (excl. retries)
  std::uint64_t retries = 0;
  std::uint64_t frames_dropped = 0;    ///< retry budget exhausted
  std::uint64_t tx_mac_bytes = 0;      ///< MPDU bytes put on air (incl. retries)
  std::uint64_t rx_mac_bytes = 0;      ///< beacon + ack bytes received
  std::uint64_t rx_frames = 0;
  std::uint64_t tx_frames_on_air = 0;  ///< incl. retries
  std::uint64_t gts_windows = 0;       ///< radio bursts
  std::uint64_t csma_attempts = 0;     ///< CCA probes issued
  std::uint64_t csma_busy_cca = 0;     ///< CCA probes finding the channel busy
  std::uint64_t csma_failures = 0;     ///< attempts abandoned (NB exhausted)
  std::size_t max_queue_frames = 0;
};

/// One sensor node: packs application blocks into MAC frames and transmits
/// them inside its guaranteed time slots, with ACK handling and retries.
class SensorNode {
 public:
  /// `gts` is this node's allocation (possibly zero slots). The node
  /// learns superframe boundaries from beacons on `channel`.
  SensorNode(Engine& engine, Channel& channel, Address address,
             const mac::MacConfig& mac_config, mac::GtsAllocation gts,
             NodeTraffic traffic, AccessMode access = AccessMode::kGts,
             std::uint64_t seed = 1);

  void start();

  const NodeCounters& counters() const { return counters_; }

  /// Frames still queued (non-empty at the end of a run means the GTS
  /// allocation cannot sustain the offered load).
  std::size_t queued_frames() const { return tx_queue_.size(); }

 private:
  struct PendingFrame {
    Frame frame;
    unsigned attempts = 0;
  };

  /// The transmit FIFO, on a grow-only ring: pop_front() never frees and
  /// push_back() allocates only when the ring is full, doubling it, so a
  /// node stops allocating once its backlog has peaked (a std::deque
  /// allocates and frees a chunk every few frames as its window slides).
  class TxQueue {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    PendingFrame& front() { return ring_[head_]; }
    void push_back(const PendingFrame& pending) {
      if (size_ == ring_.size()) grow();
      std::size_t tail = head_ + size_;
      if (tail >= ring_.size()) tail -= ring_.size();
      ring_[tail] = pending;
      ++size_;
    }
    void pop_front() {
      if (++head_ == ring_.size()) head_ = 0;
      --size_;
    }

   private:
    void grow();

    std::vector<PendingFrame> ring_;
    std::size_t head_ = 0;  ///< index of the front frame
    std::size_t size_ = 0;
  };

  void generate_block();
  void pack_frames();
  void on_receive(const Frame& frame);
  void on_gts_start(SimTime window_end);
  void try_send();
  void on_ack_timeout();
  // CSMA/CA path (contention in the CAP).
  void on_cap_start(SimTime cap_end);
  void csma_start_attempt();
  void csma_backoff_expired();
  void csma_transmit();

  Engine& engine_;
  Channel& channel_;
  Address address_;
  mac::MacConfig mac_config_;
  mac::GtsAllocation gts_;
  NodeTraffic traffic_;
  AccessMode access_;
  util::Rng rng_;

  TxQueue tx_queue_;
  double fractional_bytes_ = 0.0;
  std::size_t buffer_bytes_ = 0;  ///< app bytes not yet forming a full frame
  std::uint64_t next_seq_ = 0;
  bool awaiting_ack_ = false;
  std::uint64_t ack_timeout_event_ = 0;
  SimTime window_end_ = 0.0;  ///< end of the GTS/CAP window currently open
  unsigned csma_nb_ = 0;      ///< backoff attempts for the head frame
  unsigned csma_be_ = 0;      ///< current backoff exponent
  bool csma_in_attempt_ = false;
  NodeCounters counters_;
};

}  // namespace wsnex::sim
