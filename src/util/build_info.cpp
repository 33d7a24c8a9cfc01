#include "util/build_info.hpp"

#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

#ifndef WSNEX_BUILD_VERSION
#define WSNEX_BUILD_VERSION "unknown"
#endif

namespace wsnex::util {

BuildInfo build_info() {
  BuildInfo info;
  info.version = WSNEX_BUILD_VERSION;
  info.active_isa = simd::isa_name(simd::active_isa());
  info.failpoints = failpoint::compiled_in();
  return info;
}

Json build_info_json() {
  const BuildInfo info = build_info();
  Json obj = Json::object();
  obj.set("version", Json(info.version));
  obj.set("active_isa", Json(info.active_isa));
  obj.set("failpoints", Json(info.failpoints));
  return obj;
}

void register_build_info_metric() {
  const BuildInfo info = build_info();
  const std::string labels =
      "version=\"" + info.version + "\",isa=\"" + info.active_isa +
      "\",failpoints=\"" + (info.failpoints ? "on" : "off") + "\"";
  metrics::Registry::instance()
      .gauge("wsnex_build_info",
             "Build facts of the running binary (value is always 1)", labels)
      .set(1.0);
}

}  // namespace wsnex::util
