#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "util/simd.hpp"

#ifndef WSNBENCH_BUILD_TYPE
#define WSNBENCH_BUILD_TYPE "unknown"
#endif

namespace wsnbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double clock_read_s() {
  static const double cost = [] {
    constexpr int kReads = 200000;
    double sink = 0.0;
    const double t0 = now_s();
    for (int i = 0; i < kReads; ++i) sink += now_s();
    const double t1 = now_s();
    return sink > 0.0 ? (t1 - t0) / kReads : 0.0;
  }();
  return cost;
}

void Digest::mix(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(std::string_view bytes) {
  const std::string size = std::to_string(bytes.size()) + ":";
  mix(size);
  mix(bytes);
}

void Digest::add_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  add(path.substr(path.find_last_of('/') + 1));
  if (!in.is_open()) {
    add("<missing>");
    return;
  }
  add(std::string((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double reference_kernel_s(const std::string& scratch_path) {
  const int fd = ::open(scratch_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + scratch_path);
  char line[120];
  std::fill(std::begin(line), std::end(line), 'x');
  line[sizeof(line) - 1] = '\n';
  const double t0 = now_s();
  double sum = 0.0;
  for (int i = 1; i <= 200000; ++i) {
    const double v = static_cast<double>(i);
    sum += std::exp(-v * 1e-6) * std::log(v) + std::sqrt(v);
  }
  bool written = sum > 0.0;  // keeps the arithmetic from being optimized out
  for (int i = 0; i < 2000; ++i) {
    written = written && ::write(fd, line, sizeof(line)) == sizeof(line);
  }
  const double elapsed = now_s() - t0;
  ::close(fd);
  ::unlink(scratch_path.c_str());
  if (!written) throw std::runtime_error("cannot write " + scratch_path);
  return elapsed;
}

std::string timing_note(const std::vector<double>& seconds) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median %.1f ms, p90 %.1f ms over %zu",
                median(seconds) * 1e3, percentile(seconds, 90.0) * 1e3,
                seconds.size());
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return ((z ^ (z >> 31)) >> 33) + 1;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

std::uint64_t busy_loop(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

double effective_parallelism() {
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kIterations = 40'000'000;  // ~40 ms on one core
  std::vector<std::uint64_t> sinks(n);
  const auto timed = [&](std::size_t threads) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_s();
      std::vector<std::thread> pack;
      for (std::size_t t = 0; t < threads; ++t) {
        pack.emplace_back([&, t] { sinks[t] = busy_loop(kIterations); });
      }
      for (std::thread& th : pack) th.join();
      best = std::min(best, now_s() - t0);
    }
    return best;
  };
  const double one = timed(1);
  const double all = timed(n);
  return static_cast<double>(n) * one / all;
}

wsnex::util::Json provenance(double parallelism) {
  namespace simd = wsnex::util::simd;
  wsnex::util::Json out = wsnex::util::Json::object();
  out.set("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  out.set("effective_parallelism", parallelism);
  out.set("detected_isa", simd::isa_name(simd::detected_isa()));
  out.set("active_isa", simd::isa_name(simd::active_isa()));
  out.set("simd_reassociation", simd::reassociation_enabled());
  out.set("build_type", WSNBENCH_BUILD_TYPE);
  return out;
}

void Result::fail(const std::string& cause, std::size_t n) {
  failed += n;
  failures[cause] += n;
}

void Result::problem(const std::string& what) {
  correct = false;
  problems.push_back(what);
}

void Result::check_exact(const std::string& name, double value) {
  const auto [it, first] = exact.emplace(name, value);
  if (!first && it->second != value) {
    problem(name + " is not exact: first pass " + std::to_string(it->second) +
            ", later pass " + std::to_string(value));
  }
}

}  // namespace wsnbench
