#pragma once

/// \file events.hpp
/// Bounded ring of structured telemetry events.
///
/// The ring is a broadcast buffer: writers publish fixed-size POD events and
/// receive a globally monotone sequence number; readers poll with a cursor
/// (`read_since`). When the ring wraps, the oldest events are overwritten —
/// readers that fell behind observe a gap and the per-read `dropped` count
/// tells them how many events they missed, so backpressure degrades to
/// loss-with-accounting instead of blocking the optimization hot path.
/// `generation` snapshots and every other kind wrap in separate lanes, so
/// progress chatter never overwrites a lifecycle event.
///
/// Concurrency: one mutex guards the ring. A publish copies its event in
/// and a read copies events out under it; waiters park on one condition
/// variable that every publish notifies.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wsnex::util::events {

/// Event taxonomy. Lifecycle events describe jobs/scenarios moving through
/// the scheduler; `kGeneration` carries one optimizer progress snapshot.
enum class Kind : std::uint8_t {
  kJobQueued = 0,
  kJobStarted,
  kJobFinished,
  kUnitStarted,
  kUnitFinished,
  kUnitRetried,
  kScenarioStarted,
  kScenarioFinished,
  kGeneration,
  kDeadlineExceeded,
  kCacheDegraded,
};

/// Stable wire name for a kind (used in JSONL output).
const char* kind_name(Kind kind);

/// Fixed-size POD event record. String fields are NUL-terminated and
/// truncated on copy; numeric progress fields are meaningful only for
/// `kGeneration` (zero otherwise).
struct Event {
  std::uint64_t seq = 0;  ///< Assigned by the ring at publish; starts at 1.
  double time_s = 0.0;    ///< Seconds since the ring was created.
  Kind kind = Kind::kJobQueued;
  char job[64] = {};       ///< Job id ("" for standalone campaigns).
  char scenario[64] = {};  ///< Scenario/unit name ("" for job-level events).
  char detail[96] = {};    ///< Free text: error summary, request id, state.
  // Per-generation optimizer progress (kGeneration only):
  std::uint64_t generation = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t archive_size = 0;
  std::uint64_t feasible = 0;
  double hypervolume = 0.0;
  double evals_per_s = 0.0;
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event must stay POD: ring slots hold it by value and copy it "
              "without allocating");

/// Builds an event with the string fields copied (and truncated if needed).
Event make_event(Kind kind, std::string_view job, std::string_view scenario,
                 std::string_view detail);

/// Appends one event as a compact JSON object to `out` — the one event
/// serializer, behind progress.jsonl and the serve events route. Keys in
/// order: seq, t, kind (by name), job, scenario, detail, then generation,
/// evaluations, archive_size, feasible, hypervolume and evals_per_s for
/// `kGeneration` only. Integers print as int64, doubles in their
/// shortest round-trip form and strings escaped, byte for byte as
/// util::Json::dump writes the same object. Throws std::invalid_argument,
/// leaving `out` unchanged, when a double is not finite.
void append_event_json(std::string& out, const Event& event);

/// Serializes events as JSON Lines (one object per line, each '\n'-terminated).
std::string events_to_jsonl(const std::vector<Event>& batch);

/// Bounded multi-writer / multi-reader broadcast ring. Capacity is rounded up
/// to a power of two. Thread-safe.
///
/// The ring has two lanes, one for `kGeneration` and one for every other
/// kind, and each keeps the newest `capacity()` events of its kinds: a job
/// that floods its stream with progress snapshots loses the oldest
/// snapshots, never a lifecycle event. Each lane allocates its slots in
/// segments of kSegmentSlots, each on the first publish that lands in it,
/// so a ring holds memory for the events it has carried rather than for its
/// capacity: the 1024-slot ring of a serve campaign job (68-73 events)
/// holds three or four segments (~28-37 KiB), not ~592 KiB. Once both
/// lanes have wrapped, publish allocates no more.
class EventRing {
 public:
  static constexpr std::size_t kSegmentSlots = 32;

  explicit EventRing(std::size_t capacity = 1024);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Publishes a copy of `event` (its `seq` and `time_s` are assigned here).
  /// Returns the assigned sequence number.
  std::uint64_t publish(Event event);

  /// Appends to `out` every retained event with sequence > `since`, in
  /// ascending sequence order. `*dropped` (when provided) is set to the
  /// number of events after `since` that this call skipped because ring
  /// wrap overwrote them. Returns the new cursor: the last published
  /// sequence (`since` if nothing newer exists), so feeding it back as
  /// `since` never skips an event.
  std::uint64_t read_since(std::uint64_t since, std::vector<Event>& out,
                           std::uint64_t* dropped = nullptr) const;

  /// Highest sequence number published so far (0 if none).
  std::uint64_t last_seq() const;

  /// Blocks until an event with sequence > `since` is published or
  /// `timeout_s` elapses. Returns true if new events are available.
  bool wait_for(std::uint64_t since, double timeout_s) const;

  std::size_t capacity() const { return mask_ + 1; }

 private:
  /// The newest capacity() events of the lane's kinds, in sequence order.
  struct Lane {
    /// One array per segment, null until its first publish.
    std::vector<std::unique_ptr<Event[]>> segments;
    std::uint64_t published = 0;  ///< events ever published into the lane
  };

  /// Slot of the lane's `index`th event (0-based); its segment must exist.
  const Event& slot(const Lane& lane, std::uint64_t index) const;

  std::size_t mask_ = 0;           ///< capacity - 1
  std::size_t segment_slots_ = 0;  ///< kSegmentSlots, or a smaller capacity
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  mutable std::condition_variable published_;
  std::uint64_t last_ = 0;  ///< highest sequence published
  Lane generations_;        ///< kGeneration events
  Lane lifecycle_;          ///< every other kind
};

}  // namespace wsnex::util::events
