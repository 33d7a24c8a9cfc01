#include "sim/channel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "mac/ieee802154.hpp"

namespace wsnex::sim {

Channel::Channel(Engine& engine, double frame_error_rate, std::uint64_t seed)
    : Channel(engine, ChannelErrorConfig{frame_error_rate, {}, {}}, seed) {}

Channel::Channel(Engine& engine, ChannelErrorConfig errors, std::uint64_t seed)
    : engine_(engine), errors_(std::move(errors)), rng_(seed) {
  assert(errors_.frame_error_rate >= 0.0 && errors_.frame_error_rate <= 1.0);
  assert(errors_.burst.fer_good >= 0.0 && errors_.burst.fer_good <= 1.0);
  assert(errors_.burst.fer_bad >= 0.0 && errors_.burst.fer_bad <= 1.0);
  assert(errors_.burst.p_good_to_bad >= 0.0 &&
         errors_.burst.p_good_to_bad <= 1.0);
  assert(errors_.burst.p_bad_to_good >= 0.0 &&
         errors_.burst.p_bad_to_good <= 1.0);
}

void Channel::attach(Address address, ReceiveHandler handler) {
  for (const Receiver& r : receivers_) {
    if (r.address == address) {
      throw std::invalid_argument("Channel: duplicate address");
    }
  }
  receivers_.push_back({address, handler});
}

double Channel::frame_drop_probability(const Frame& frame) {
  double state_fer = errors_.frame_error_rate;
  if (errors_.burst.active()) {
    // Advance the two-state chain once per transmitted frame, then apply
    // the FER of the state the frame finds the channel in.
    const double flip =
        bad_state_ ? errors_.burst.p_bad_to_good : errors_.burst.p_good_to_bad;
    if (flip > 0.0 && rng_.bernoulli(flip)) bad_state_ = !bad_state_;
    if (bad_state_) ++bad_state_frames_;
    state_fer = bad_state_ ? errors_.burst.fer_bad : errors_.burst.fer_good;
  }
  double node_fer = 0.0;
  if (!errors_.node_fer.empty() && frame.src != kCoordinator &&
      frame.src != kBroadcast) {
    const std::size_t node = static_cast<std::size_t>(frame.src) - 1;
    if (node < errors_.node_fer.size()) node_fer = errors_.node_fer[node];
  }
  return 1.0 - (1.0 - state_fer) * (1.0 - node_fer);
}

double Channel::transmit(const Frame& frame, double reserve_extra_s) {
  const double airtime = mac::Phy::frame_airtime_s(frame.mac_bytes);
  if (busy()) {
    // Destructive collision: the overlapping energy corrupts both frames.
    ++collisions_;
    if (has_pending_) {
      engine_.cancel(pending_delivery_);
      has_pending_ = false;
    }
    busy_until_ = std::max(busy_until_, engine_.now() + airtime);
    return airtime;
  }
  busy_until_ = engine_.now() + airtime + reserve_extra_s;

  const double drop_probability = frame_drop_probability(frame);
  if (drop_probability > 0.0 && rng_.bernoulli(drop_probability)) {
    ++drops_;
    return airtime;
  }

  pending_delivery_ = engine_.schedule_in(airtime, [this, frame] {
    has_pending_ = false;
    for (const Receiver& r : receivers_) {
      if (r.address == frame.src) continue;
      if (frame.dst == kBroadcast || frame.dst == r.address) {
        r.handler(frame);
      }
    }
  });
  has_pending_ = true;
  return airtime;
}

}  // namespace wsnex::sim
