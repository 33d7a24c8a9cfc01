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
      epoch_(std::chrono::steady_clock::now()) {
  generations_.segments.resize((mask_ + 1) / segment_slots_);
  lifecycle_.segments.resize((mask_ + 1) / segment_slots_);
}

const Event& EventRing::slot(const Lane& lane, std::uint64_t index) const {
  const std::size_t at = index & mask_;
  return lane.segments[at / segment_slots_][at % segment_slots_];
}

std::uint64_t EventRing::publish(Event event) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = ++last_;
    event.seq = seq;
    event.time_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - epoch_)
                       .count();
    Lane& lane =
        event.kind == Kind::kGeneration ? generations_ : lifecycle_;
    const std::size_t at = lane.published++ & mask_;
    std::unique_ptr<Event[]>& segment = lane.segments[at / segment_slots_];
    if (segment == nullptr) {
      segment = std::make_unique<Event[]>(segment_slots_);
    }
    segment[at % segment_slots_] = event;
  }
  published_.notify_all();
  return seq;
}

std::uint64_t EventRing::read_since(std::uint64_t since, std::vector<Event>& out,
                                    std::uint64_t* dropped) const {
  if (dropped != nullptr) *dropped = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (since >= last_) return since;

  // Each lane holds its newest events in sequence order: walk back from
  // its newest to the first one after `since`, then merge the two runs.
  const auto first_after = [&](const Lane& lane) {
    const std::uint64_t oldest =
        lane.published > capacity() ? lane.published - capacity() : 0;
    std::uint64_t first = lane.published;
    while (first > oldest && slot(lane, first - 1).seq > since) --first;
    return first;
  };
  std::uint64_t g = first_after(generations_);
  std::uint64_t l = first_after(lifecycle_);
  const std::uint64_t delivered =
      (generations_.published - g) + (lifecycle_.published - l);
  while (g < generations_.published || l < lifecycle_.published) {
    const bool generation =
        l == lifecycle_.published ||
        (g < generations_.published &&
         slot(generations_, g).seq < slot(lifecycle_, l).seq);
    out.push_back(generation ? slot(generations_, g++)
                             : slot(lifecycle_, l++));
  }
  if (dropped != nullptr) *dropped = last_ - since - delivered;
  return last_;
}

std::uint64_t EventRing::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

bool EventRing::wait_for(std::uint64_t since, double timeout_s) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return published_.wait_for(
      lock, std::chrono::duration<double>(std::max(0.0, timeout_s)),
      [&] { return last_ > since; });
}

}  // namespace wsnex::util::events
