#include "util/thread_pool.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/metrics.hpp"

namespace wsnex::util {
namespace {

// Registered once, mutated with relaxed atomics afterwards. Every
// run_parallel call in the process feeds these series.
struct FanOutMetrics {
  metrics::Counter& groups;
  metrics::Counter& items;
  metrics::Counter& busy_seconds;
  metrics::Histogram& group_seconds;
};

FanOutMetrics& fan_out_metrics() {
  auto& registry = metrics::Registry::instance();
  static FanOutMetrics instrumented{
      registry.counter("wsnex_threadpool_groups_total",
                       "Fan-out calls (run_parallel with at least one "
                       "index, including single-index calls)"),
      registry.counter("wsnex_threadpool_items_total",
                       "Indices run across all fan-out calls (campaign "
                       "lanes, validation replicate chunks)"),
      registry.counter("wsnex_threadpool_busy_seconds_total",
                       "Wall-clock seconds spent running indices, summed "
                       "over threads"),
      registry.histogram("wsnex_threadpool_group_seconds",
                         "Wall-clock duration of one fan-out call, start "
                         "to join",
                         metrics::default_latency_bounds()),
  };
  return instrumented;
}

}  // namespace

std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  FanOutMetrics& fm = fan_out_metrics();
  const double start = now_s();
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::size_t i) {
    const double item_start = now_s();
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    fm.busy_seconds.inc(now_s() - item_start);
  };
  {
    // jthreads join on destruction, also when starting one of them throws.
    std::vector<std::jthread> threads;
    threads.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) threads.emplace_back(run, i);
    run(0);
  }
  fm.groups.inc();
  fm.items.inc(static_cast<double>(n));
  fm.group_seconds.observe(now_s() - start);
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace wsnex::util
