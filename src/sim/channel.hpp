// Shared wireless channel.
//
// The case study's star WBSN uses collision-free TDMA and a carrier power
// chosen for a negligible packet error rate (Section 4.3), so the channel
// models airtime, propagation and an optional frame-error process, but no
// interference: GTS scheduling guarantees a single transmitter. A
// busy-assertion still catches scheduler bugs that would overlap
// transmissions.
//
// The error process composes three independent mechanisms:
//   * a uniform Bernoulli frame error rate (the paper's idealization),
//   * a Gilbert-Elliott burst process (two-state Markov chain advanced
//     once per transmitted frame) whose bad state has its own FER, so
//     losses cluster the way multipath fades make them cluster,
//   * a per-node FER applied to frames *sent by* that sensor node,
//     modelling position-dependent uplink quality.
#pragma once

#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/packet.hpp"
#include "util/random.hpp"

namespace wsnex::sim {

/// Receiver callback: invoked when the last bit of a frame arrives. Like
/// an event callback it is an InlineFunction: it captures by pointer or
/// reference, never allocates, and is checked at compile time.
using ReceiveHandler = InlineFunction<void(const Frame&)>;

/// Gilbert-Elliott burst-error process: a two-state (good/bad) Markov
/// chain advanced once per transmitted frame. In state s the frame is
/// dropped with probability fer_good/fer_bad *instead of* the channel's
/// uniform frame_error_rate. The long-run average FER is
///   pi_bad * fer_bad + (1 - pi_bad) * fer_good,
/// with pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good) — the
/// Bernoulli rate an analytical model would use for the same channel.
struct BurstErrorModel {
  double fer_good = 0.0;       ///< frame error rate in the good state
  double fer_bad = 0.0;        ///< frame error rate in the bad state
  double p_good_to_bad = 0.0;  ///< per-frame transition probability
  double p_bad_to_good = 1.0;  ///< per-frame transition probability

  /// The process only modulates anything when it can reach the bad state.
  bool active() const { return p_good_to_bad > 0.0; }
  /// Steady-state fraction of frames finding the channel in the bad state.
  double bad_fraction() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    return denom > 0.0 ? p_good_to_bad / denom : 0.0;
  }
  /// Long-run average frame error rate of the process.
  double mean_fer() const {
    const double pi = bad_fraction();
    return pi * fer_bad + (1.0 - pi) * fer_good;
  }
};

/// Complete error-process configuration of a channel.
struct ChannelErrorConfig {
  /// Uniform Bernoulli FER; ignored while `burst` is active (the burst
  /// process carries its own per-state rates).
  double frame_error_rate = 0.0;
  BurstErrorModel burst;  ///< inactive by default
  /// Extra FER per sensor node, indexed by node (frame src address - 1);
  /// empty = no per-node degradation. A frame from node n survives with
  /// probability (1 - state FER) * (1 - node_fer[n]).
  std::vector<double> node_fer;
};

class Channel {
 public:
  /// `frame_error_rate` drops each frame independently with the given
  /// probability (0 reproduces the paper's negligible-error assumption).
  Channel(Engine& engine, double frame_error_rate = 0.0,
          std::uint64_t seed = 1);

  /// Full error-process configuration (burst + per-node FER).
  Channel(Engine& engine, ChannelErrorConfig errors, std::uint64_t seed);

  /// Registers a receiver; `address` must be unique.
  void attach(Address address, ReceiveHandler handler);

  /// Starts transmitting `frame`; delivery happens after the on-air time.
  /// Frames addressed to kBroadcast reach every attached receiver except
  /// the sender. Returns the on-air duration in seconds.
  ///
  /// Overlapping transmissions collide destructively: both the in-flight
  /// frame and the new one are lost (and counted). A correct GTS schedule
  /// never overlaps; CSMA/CA contention can.
  ///
  /// `reserve_extra_s` keeps the channel asserted busy for that long after
  /// the frame's last bit — data frames reserve the rx/tx turnaround so a
  /// CCA cannot slip a transmission in front of the pending ACK.
  double transmit(const Frame& frame, double reserve_extra_s = 0.0);

  /// Clear-channel assessment as a CSMA/CA transmitter sees it.
  bool clear() const { return !busy(); }

  /// True while a transmission is in flight.
  bool busy() const { return busy_until_ > engine_.now(); }

  /// Number of frames that overlapped an ongoing transmission (protocol
  /// bugs; always 0 for a correct GTS schedule).
  std::uint64_t collisions() const { return collisions_; }

  /// Frames dropped by the error process.
  std::uint64_t drops() const { return drops_; }

  /// Frames transmitted while the burst process was in the bad state
  /// (always 0 without an active burst model).
  std::uint64_t bad_state_frames() const { return bad_state_frames_; }

  /// True while the burst process sits in the bad state.
  bool in_bad_state() const { return bad_state_; }

 private:
  struct Receiver {
    Address address;
    ReceiveHandler handler;
  };

  /// Per-frame error probability for this transmission: advances the
  /// burst chain (when active) and folds in the sender's node FER.
  double frame_drop_probability(const Frame& frame);

  Engine& engine_;
  ChannelErrorConfig errors_;
  bool bad_state_ = false;
  std::uint64_t bad_state_frames_ = 0;
  util::Rng rng_;
  std::vector<Receiver> receivers_;
  SimTime busy_until_ = 0.0;
  std::uint64_t pending_delivery_ = 0;  ///< event id of the in-flight frame
  bool has_pending_ = false;
  std::uint64_t collisions_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace wsnex::sim
