// The event DOM builder the serializer replaced, kept as the reference
// util::events::append_event_json must match byte for byte:
// reference_event_to_json(e).dump() is the former event_to_json(e).dump().
#pragma once

#include <cstdint>
#include <string>

#include "util/events.hpp"
#include "util/json.hpp"

namespace wsnex::test {

inline util::Json reference_event_to_json(const util::events::Event& event) {
  util::Json obj = util::Json::object();
  obj.set("seq", util::Json(static_cast<std::int64_t>(event.seq)));
  obj.set("t", util::Json(event.time_s));
  obj.set("kind",
          util::Json(std::string(util::events::kind_name(event.kind))));
  obj.set("job", util::Json(std::string(event.job)));
  obj.set("scenario", util::Json(std::string(event.scenario)));
  obj.set("detail", util::Json(std::string(event.detail)));
  if (event.kind == util::events::Kind::kGeneration) {
    obj.set("generation",
            util::Json(static_cast<std::int64_t>(event.generation)));
    obj.set("evaluations",
            util::Json(static_cast<std::int64_t>(event.evaluations)));
    obj.set("archive_size",
            util::Json(static_cast<std::int64_t>(event.archive_size)));
    obj.set("feasible", util::Json(static_cast<std::int64_t>(event.feasible)));
    obj.set("hypervolume", util::Json(event.hypervolume));
    obj.set("evals_per_s", util::Json(event.evals_per_s));
  }
  return obj;
}

}  // namespace wsnex::test
