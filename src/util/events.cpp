#include "util/events.hpp"

#include <algorithm>
#include <cstring>

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

Json event_to_json(const Event& event) {
  Json obj = Json::object();
  obj.set("seq", Json(static_cast<std::int64_t>(event.seq)));
  obj.set("t", Json(event.time_s));
  obj.set("kind", Json(std::string(kind_name(event.kind))));
  obj.set("job", Json(std::string(event.job)));
  obj.set("scenario", Json(std::string(event.scenario)));
  obj.set("detail", Json(std::string(event.detail)));
  if (event.kind == Kind::kGeneration) {
    obj.set("generation", Json(static_cast<std::int64_t>(event.generation)));
    obj.set("evaluations", Json(static_cast<std::int64_t>(event.evaluations)));
    obj.set("archive_size",
            Json(static_cast<std::int64_t>(event.archive_size)));
    obj.set("feasible", Json(static_cast<std::int64_t>(event.feasible)));
    obj.set("hypervolume", Json(event.hypervolume));
    obj.set("evals_per_s", Json(event.evals_per_s));
  }
  return obj;
}

std::string events_to_jsonl(const std::vector<Event>& batch) {
  std::string out;
  for (const Event& e : batch) {
    out += event_to_json(e).dump();
    out += '\n';
  }
  return out;
}

EventRing::EventRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t EventRing::publish(Event event) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  event.seq = seq;
  event.time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
          .count();

  std::uint64_t raw[kWords] = {};
  std::memcpy(raw, &event, sizeof(Event));

  Slot& slot = slots_[(seq - 1) & mask_];
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
  const std::uint64_t oldest =
      last > slots_.size() ? last - slots_.size() + 1 : 1;
  std::uint64_t first = since + 1;
  if (first < oldest) {
    if (dropped != nullptr) *dropped += oldest - first;
    first = oldest;
  }

  for (std::uint64_t seq = first; seq <= last; ++seq) {
    const Slot& slot = slots_[(seq - 1) & mask_];
    const std::uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
    if (s1 < 2 * seq) {
      // Claimed by publish() but not written yet: stop before it, so the
      // next read resumes at this sequence instead of skipping it.
      return seq - 1;
    }
    if (s1 > 2 * seq) {
      // Lapped by a later writer: this sequence is gone for good.
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    std::uint64_t raw[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      raw[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = slot.stamp.load(std::memory_order_relaxed);
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
  return last > slots_.size() ? last - slots_.size() : 0;
}

bool EventRing::published_after(std::uint64_t since) const {
  if (next_.load(std::memory_order_acquire) <= since) return false;
  // The slot of sequence since + 1 carries a stamp of at least 2*(since+1)
  // once that event is written (or a later one has lapped it).
  const Slot& slot = slots_[since & mask_];
  return slot.stamp.load(std::memory_order_acquire) >= 2 * (since + 1);
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
