#include "util/events.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "util/json.hpp"

namespace wsnex::util::events {

namespace {

constexpr std::size_t kWords = (sizeof(Event) + 7) / 8;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void copy_truncated(char* dst, std::size_t dst_size, std::string_view src) {
  const std::size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

void append_int(std::string& out, std::uint64_t value) {
  // As int64, which is how the JSON writer carries integers.
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf),
                                    static_cast<std::int64_t>(value));
  out.append(buf, result.ptr);
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kJobQueued: return "job_queued";
    case Kind::kJobStarted: return "job_started";
    case Kind::kJobFinished: return "job_finished";
    case Kind::kUnitStarted: return "unit_started";
    case Kind::kUnitFinished: return "unit_finished";
    case Kind::kUnitRetried: return "unit_retried";
    case Kind::kScenarioStarted: return "scenario_started";
    case Kind::kScenarioFinished: return "scenario_finished";
    case Kind::kGeneration: return "generation";
    case Kind::kDeadlineExceeded: return "deadline_exceeded";
    case Kind::kCacheDegraded: return "cache_degraded";
  }
  return "unknown";
}

Event make_event(Kind kind, std::string_view job, std::string_view scenario,
                 std::string_view detail) {
  Event e;
  e.kind = kind;
  copy_truncated(e.job, sizeof(e.job), job);
  copy_truncated(e.scenario, sizeof(e.scenario), scenario);
  copy_truncated(e.detail, sizeof(e.detail), detail);
  return e;
}

void append_event_json(std::string& out, const Event& event) {
  const bool generation = event.kind == Kind::kGeneration;
  if (!std::isfinite(event.time_s) ||
      (generation && (!std::isfinite(event.hypervolume) ||
                      !std::isfinite(event.evals_per_s)))) {
    throw std::invalid_argument("append_event_json: non-finite number");
  }
  out += "{\"seq\":";
  append_int(out, event.seq);
  out += ",\"t\":";
  append_double_shortest(out, event.time_s);
  out += ",\"kind\":";
  append_json_string(out, kind_name(event.kind));
  out += ",\"job\":";
  append_json_string(out, event.job);
  out += ",\"scenario\":";
  append_json_string(out, event.scenario);
  out += ",\"detail\":";
  append_json_string(out, event.detail);
  if (generation) {
    out += ",\"generation\":";
    append_int(out, event.generation);
    out += ",\"evaluations\":";
    append_int(out, event.evaluations);
    out += ",\"archive_size\":";
    append_int(out, event.archive_size);
    out += ",\"feasible\":";
    append_int(out, event.feasible);
    out += ",\"hypervolume\":";
    append_double_shortest(out, event.hypervolume);
    out += ",\"evals_per_s\":";
    append_double_shortest(out, event.evals_per_s);
  }
  out += '}';
}

std::string events_to_jsonl(const std::vector<Event>& batch) {
  std::string out;
  for (const Event& e : batch) {
    append_event_json(out, e);
    out += '\n';
  }
  return out;
}

EventRing::EventRing(std::size_t capacity)
    : mask_(round_up_pow2(std::max<std::size_t>(capacity, 2)) - 1),
      segment_slots_(std::min(mask_ + 1, kSegmentSlots)),
      segments_((mask_ + 1) / segment_slots_),
      epoch_(std::chrono::steady_clock::now()) {
  for (std::atomic<Slot*>& segment : segments_) {
    segment.store(nullptr, std::memory_order_relaxed);
  }
}

EventRing::~EventRing() {
  for (std::atomic<Slot*>& segment : segments_) {
    delete[] segment.load(std::memory_order_relaxed);
  }
}

EventRing::Slot& EventRing::slot_for_write(std::uint64_t seq) {
  const std::size_t index = (seq - 1) & mask_;
  std::atomic<Slot*>& segment = segments_[index / segment_slots_];
  Slot* slots = segment.load(std::memory_order_acquire);
  if (slots == nullptr) {
    // First publish into this segment. Writers that race here each build
    // a zeroed segment; one installs it, the others free theirs and use
    // the installed one (the failed exchange loads it into `slots`).
    auto fresh = std::make_unique<Slot[]>(segment_slots_);
    if (segment.compare_exchange_strong(slots, fresh.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      slots = fresh.release();
    }
  }
  return slots[index % segment_slots_];
}

const EventRing::Slot* EventRing::slot_for_read(std::uint64_t seq) const {
  const std::size_t index = (seq - 1) & mask_;
  const Slot* slots =
      segments_[index / segment_slots_].load(std::memory_order_acquire);
  return slots == nullptr ? nullptr : slots + index % segment_slots_;
}

std::uint64_t EventRing::publish(Event event) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  event.seq = seq;
  event.time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
          .count();

  std::uint64_t raw[kWords] = {};
  std::memcpy(raw, &event, sizeof(Event));

  Slot& slot = slot_for_write(seq);
  // Seqlock write: odd stamp, release fence, payload words, even stamp.
  // The release fence guarantees that a reader who observes any payload word
  // from this publish also observes the odd stamp on its recheck.
  slot.stamp.store(2 * seq - 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(raw[i], std::memory_order_relaxed);
  }
  slot.stamp.store(2 * seq, std::memory_order_release);

  if (waiters_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> guard(wait_mutex_);
    wait_cv_.notify_all();
  }
  return seq;
}

std::uint64_t EventRing::read_since(std::uint64_t since, std::vector<Event>& out,
                                    std::uint64_t* dropped) const {
  if (dropped != nullptr) *dropped = 0;
  const std::uint64_t last = next_.load(std::memory_order_acquire);
  if (last <= since) return since;

  // Oldest sequence that can still be resident. Anything older was
  // overwritten by ring wrap and counts as dropped for this reader.
  const std::uint64_t oldest = last > capacity() ? last - capacity() + 1 : 1;
  std::uint64_t first = since + 1;
  if (first < oldest) {
    if (dropped != nullptr) *dropped += oldest - first;
    first = oldest;
  }

  for (std::uint64_t seq = first; seq <= last; ++seq) {
    const Slot* slot = slot_for_read(seq);
    const std::uint64_t s1 =
        slot == nullptr ? 0 : slot->stamp.load(std::memory_order_acquire);
    if (s1 < 2 * seq) {
      // Claimed by publish() but not written yet (its segment may not
      // even exist): stop before it, so the next read resumes at this
      // sequence instead of skipping it.
      return seq - 1;
    }
    if (s1 > 2 * seq) {
      // Lapped by a later writer: this sequence is gone for good.
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    std::uint64_t raw[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      raw[i] = slot->words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = slot->stamp.load(std::memory_order_relaxed);
    if (s2 != 2 * seq) {
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    Event e;
    std::memcpy(&e, raw, sizeof(Event));
    out.push_back(e);
  }
  return last;
}

std::uint64_t EventRing::last_seq() const {
  return next_.load(std::memory_order_acquire);
}

std::uint64_t EventRing::overwritten() const {
  const std::uint64_t last = next_.load(std::memory_order_acquire);
  return last > capacity() ? last - capacity() : 0;
}

bool EventRing::published_after(std::uint64_t since) const {
  if (next_.load(std::memory_order_acquire) <= since) return false;
  // The slot of sequence since + 1 carries a stamp of at least 2*(since+1)
  // once that event is written (or a later one has lapped it).
  const Slot* slot = slot_for_read(since + 1);
  return slot != nullptr &&
         slot->stamp.load(std::memory_order_acquire) >= 2 * (since + 1);
}

bool EventRing::wait_for(std::uint64_t since, double timeout_s) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout_s)));
  std::unique_lock<std::mutex> lock(wait_mutex_);
  waiters_.fetch_add(1, std::memory_order_relaxed);
  bool ready = false;
  while (true) {
    ready = published_after(since);
    if (ready) break;
    // Bounded slices so a publish that raced the waiter registration is
    // picked up on the next predicate check even without a notification.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto slice =
        std::min<std::chrono::steady_clock::duration>(
            deadline - now, std::chrono::milliseconds(50));
    wait_cv_.wait_for(lock, slice);
  }
  waiters_.fetch_sub(1, std::memory_order_relaxed);
  return ready;
}

}  // namespace wsnex::util::events
