#include "bench_util.hpp"

#include <cstring>
#include <fstream>
#include <thread>

#include "util/simd.hpp"

namespace wsnex::bench {

bool parse_args(int argc, char** argv, Args& out, bool allow_unknown) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      out.json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      out.json = true;
      out.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      out.quick = true;
    } else if (!allow_unknown) {
      std::fprintf(stderr, "usage: %s [--json[=PATH]] [--quick]\n", argv[0]);
      return false;
    }
  }
  return true;
}

std::FILE* open_json_sink(const std::string& path) {
  if (path.empty()) return stdout;
  std::FILE* sink = std::fopen(path.c_str(), "w");
  if (sink == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
  }
  return sink;
}

void close_json_sink(std::FILE* sink, const std::string& path) {
  if (!path.empty() && sink != nullptr) std::fclose(sink);
}

bool emit_json(const util::Json& json, const std::string& path) {
  const std::string text = json.dump(2) + "\n";
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

util::Json provenance() {
  util::Json out = util::Json::object();
  out.set("detected_isa", util::simd::isa_name(util::simd::detected_isa()));
  out.set("active_isa", util::simd::isa_name(util::simd::active_isa()));
  out.set("forced_scalar_env", util::simd::scalar_forced_by_env());
  out.set("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return out;
}

void fprint_provenance(std::FILE* sink) {
  std::fprintf(sink, "  \"provenance\": %s,\n", provenance().dump().c_str());
}

}  // namespace wsnex::bench
