#include "sim/node.hpp"

#include <algorithm>
#include <cmath>

#include "sim/timing.hpp"
#include "util/logging.hpp"

namespace wsnex::sim {

SensorNode::SensorNode(Engine& engine, Channel& channel, Address address,
                       const mac::MacConfig& mac_config,
                       mac::GtsAllocation gts, NodeTraffic traffic,
                       AccessMode access, std::uint64_t seed)
    : engine_(engine),
      channel_(channel),
      address_(address),
      mac_config_(mac_config),
      gts_(gts),
      traffic_(traffic),
      access_(access),
      rng_(seed ^ (0x9E3779B97F4A7C15ULL * (address + 1))) {}

void SensorNode::TxQueue::grow() {
  std::vector<PendingFrame> bigger(std::max<std::size_t>(8, 2 * ring_.size()));
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = ring_[(head_ + i) % ring_.size()];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void SensorNode::start() {
  if (traffic_.bytes_per_second > 0.0) {
    // Nodes boot at independent instants, so their compression windows are
    // phase-shifted; without this, synchronized block completions would
    // pile every node's contention into the same instant.
    const double phase = traffic_.window_period_s * rng_.uniform01();
    engine_.schedule_in(traffic_.window_period_s + phase,
                        [this] { generate_block(); });
  }
  channel_.attach(address_, [this](const Frame& f) { on_receive(f); });
}

void SensorNode::generate_block() {
  fractional_bytes_ +=
      traffic_.bytes_per_second * traffic_.window_period_s;
  const auto block_bytes = static_cast<std::size_t>(fractional_bytes_);
  fractional_bytes_ -= static_cast<double>(block_bytes);
  buffer_bytes_ += block_bytes;
  pack_frames();
  engine_.schedule_in(traffic_.window_period_s, [this] { generate_block(); });
}

void SensorNode::pack_frames() {
  // Stream packing: the application output accumulates in a byte FIFO and
  // only full frames enter the MAC queue (standard streaming firmware;
  // it makes the per-frame overhead exactly Omega = 13 * phi_out / L).
  while (buffer_bytes_ >= mac_config_.payload_bytes) {
    buffer_bytes_ -= mac_config_.payload_bytes;
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.src = address_;
    frame.dst = kCoordinator;
    frame.payload_bytes = mac_config_.payload_bytes;
    frame.mac_bytes =
        mac_config_.payload_bytes + mac::FrameSizes::kDataOverheadBytes;
    frame.seq = next_seq_++;
    frame.enqueued_at = engine_.now();
    tx_queue_.push_back({frame, 0});
    ++counters_.frames_enqueued;
  }
  counters_.max_queue_frames =
      std::max(counters_.max_queue_frames, tx_queue_.size());
  // A CSMA node may contend immediately if a CAP window is currently open.
  if (access_ == AccessMode::kCsma && engine_.now() < window_end_) {
    csma_start_attempt();
  }
}

void SensorNode::on_receive(const Frame& frame) {
  switch (frame.kind) {
    case FrameKind::kBeacon: {
      ++counters_.rx_frames;
      counters_.rx_mac_bytes += frame.mac_bytes;
      // The beacon's last bit marks (superframe start + beacon airtime);
      // recover the superframe origin to place the GTS/CAP windows.
      const double superframe_start =
          engine_.now() - mac::Phy::frame_airtime_s(frame.mac_bytes);
      const mac::Superframe sf = mac_config_.superframe();
      const double slot = sf.slot_s();
      if (access_ == AccessMode::kCsma) {
        // The CAP spans from the end of the beacon to the first CFP slot.
        const double cap_end =
            superframe_start +
            slot * static_cast<double>(
                       mac::SuperframeLimits::kSlotsPerSuperframe -
                       mac_config_.total_gts_slots());
        on_cap_start(cap_end);
        return;
      }
      if (gts_.slot_count == 0) return;
      const double window_start =
          superframe_start + slot * static_cast<double>(gts_.start_slot);
      const double window_end =
          window_start + slot * static_cast<double>(gts_.slot_count);
      engine_.schedule_at(window_start,
                          [this, window_end] { on_gts_start(window_end); });
      return;
    }
    case FrameKind::kAck: {
      ++counters_.rx_frames;
      counters_.rx_mac_bytes += frame.mac_bytes;
      if (!awaiting_ack_ || tx_queue_.empty()) return;
      awaiting_ack_ = false;
      engine_.cancel(ack_timeout_event_);
      ++counters_.frames_acked;
      tx_queue_.pop_front();
      // Keep draining the queue within the open window: GTS nodes send
      // back-to-back; CSMA nodes start a fresh contention attempt.
      if (access_ == AccessMode::kCsma) {
        csma_start_attempt();
      } else {
        try_send();
      }
      return;
    }
    case FrameKind::kData:
      return;  // node-to-node traffic does not exist in a star WBSN
  }
}

void SensorNode::on_gts_start(SimTime window_end) {
  ++counters_.gts_windows;
  window_end_ = window_end;
  try_send();
}

void SensorNode::on_cap_start(SimTime cap_end) {
  ++counters_.gts_windows;  // one contention window == one radio burst
  window_end_ = cap_end;
  csma_in_attempt_ = false;
  csma_start_attempt();
}

void SensorNode::csma_start_attempt() {
  if (csma_in_attempt_ || awaiting_ack_ || tx_queue_.empty()) return;
  csma_in_attempt_ = true;
  csma_nb_ = 0;
  csma_be_ = MacTiming::kMacMinBe;
  csma_backoff_expired();  // schedules the first random backoff
}

void SensorNode::csma_backoff_expired() {
  // Draw a fresh random backoff and schedule the CCA at its expiry.
  const auto periods =
      static_cast<double>(rng_.uniform_int(0, (1 << csma_be_) - 1));
  const double delay = periods * MacTiming::kBackoffPeriodS;
  engine_.schedule_in(delay, [this] { csma_transmit(); });
}

void SensorNode::csma_transmit() {
  if (tx_queue_.empty()) {
    csma_in_attempt_ = false;
    return;
  }
  const double exchange =
      MacTiming::data_exchange_s(tx_queue_.front().frame.mac_bytes) +
      MacTiming::kCcaS;
  if (engine_.now() + exchange > window_end_) {
    // CAP over for this superframe; resume contention at the next beacon.
    csma_in_attempt_ = false;
    return;
  }
  ++counters_.csma_attempts;
  if (!channel_.clear()) {
    ++counters_.csma_busy_cca;
    ++csma_nb_;
    csma_be_ = std::min(csma_be_ + 1, MacTiming::kMacMaxBe);
    if (csma_nb_ > MacTiming::kMaxCsmaBackoffs) {
      // Channel-access failure: give up on this attempt; the frame stays
      // queued for the next superframe.
      ++counters_.csma_failures;
      csma_in_attempt_ = false;
      return;
    }
    csma_backoff_expired();
    return;
  }
  // Channel idle: transmit after the CCA time.
  engine_.schedule_in(MacTiming::kCcaS, [this] {
    csma_in_attempt_ = false;
    try_send();
  });
}

void SensorNode::try_send() {
  if (awaiting_ack_ || tx_queue_.empty()) return;
  PendingFrame& pending = tx_queue_.front();
  const double exchange =
      MacTiming::data_exchange_s(pending.frame.mac_bytes);
  if (engine_.now() + exchange > window_end_) return;  // wait for next GTS

  if (pending.attempts == 0) {
    ++counters_.frames_sent;
  } else {
    ++counters_.retries;
  }
  ++pending.attempts;
  ++counters_.tx_frames_on_air;
  counters_.tx_mac_bytes += pending.frame.mac_bytes;
  // Reserve the turnaround so contention cannot squeeze in before the ACK.
  channel_.transmit(pending.frame, MacTiming::kTurnaroundS);
  awaiting_ack_ = true;

  // If the ACK does not arrive within the exchange budget, either retry
  // within this window or give up on the attempt (the frame stays queued
  // until its retry budget is exhausted).
  ack_timeout_event_ =
      engine_.schedule_in(exchange, [this] { on_ack_timeout(); });
}

void SensorNode::on_ack_timeout() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  if (!tx_queue_.empty() &&
      tx_queue_.front().attempts > MacTiming::kMaxRetries) {
    ++counters_.frames_dropped;
    tx_queue_.pop_front();
  }
  if (access_ == AccessMode::kCsma) {
    csma_start_attempt();  // re-contend (collision or frame error)
  } else {
    try_send();
  }
}

}  // namespace wsnex::sim
