#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/clock.hpp"
#include "util/metrics.hpp"

namespace wsnex::util {
namespace {

// Registered once, mutated with relaxed atomics afterwards. All pools in
// the process share these series; the campaign and serve layers each own
// one pool, so per-pool breakdown has not been worth the label traffic.
struct PoolMetrics {
  metrics::Counter& groups;
  metrics::Counter& items;
  metrics::Counter& busy_seconds;
  metrics::Gauge& queue_depth;
  metrics::Histogram& group_seconds;
};

PoolMetrics& pool_metrics() {
  auto& registry = metrics::Registry::instance();
  static PoolMetrics instrumented{
      registry.counter("wsnex_threadpool_groups_total",
                       "Task groups fanned out (parallel_for/run_tasks "
                       "calls reaching the pool, including single-thread "
                       "fast paths)"),
      registry.counter("wsnex_threadpool_items_total",
                       "Work items executed across all groups (chunks for "
                       "parallel_for, tasks for run_tasks)"),
      registry.counter("wsnex_threadpool_busy_seconds_total",
                       "Wall-clock seconds spent executing work items, "
                       "summed over workers"),
      registry.gauge("wsnex_threadpool_queue_depth",
                     "Task groups currently queued and not fully claimed"),
      registry.histogram("wsnex_threadpool_group_seconds",
                         "Wall-clock duration of one fan-out call, "
                         "submission to drain",
                         metrics::default_latency_bounds()),
  };
  return instrumented;
}

}  // namespace

std::size_t ThreadPool::resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : worker_count_(resolve_threads(threads)) {
  threads_.reserve(worker_count_ - 1);
  for (std::size_t w = 1; w < worker_count_; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::execute_item(Group& group, std::size_t item) const {
  const double item_start = now_s();
  try {
    if (group.chunk_fn != nullptr) {
      // Chunk `item` of the static partition: identical to the historical
      // one-chunk-per-worker split, so fn's worker argument (== item) is
      // a pure function of (range, pool size).
      const std::size_t n = group.end - group.begin;
      const std::size_t chunk = (n + worker_count_ - 1) / worker_count_;
      const std::size_t lo = std::min(n, item * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        (*group.chunk_fn)(group.begin + i, item);
      }
    } else {
      (*group.task_fn)(item);
    }
  } catch (...) {
    group.errors[item] = std::current_exception();
  }
  PoolMetrics& pm = pool_metrics();
  pm.items.inc();
  pm.busy_seconds.inc(now_s() - item_start);
}

void ThreadPool::run_group(Group& group) {
  const double group_start = now_s();
  pool_metrics().groups.inc();
  group.errors.assign(group.total, nullptr);
  group.remaining = group.total;
  group.next = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(&group);
    pool_metrics().queue_depth.add(1.0);
  }
  cv_.notify_all();

  // Help with this group's own items (only — helping arbitrary queued
  // groups would nest unrelated long tasks into this stack frame), then
  // wait for items claimed by other workers to drain.
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (group.next < group.total) {
      const std::size_t item = group.next++;
      if (group.next == group.total) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), &group));
        pool_metrics().queue_depth.add(-1.0);
      }
      lock.unlock();
      execute_item(group, item);
      lock.lock();
      --group.remaining;
      continue;
    }
    if (group.remaining == 0) break;
    cv_.wait(lock);
  }
  lock.unlock();
  pool_metrics().group_seconds.observe(now_s() - group_start);

  for (std::exception_ptr& err : group.errors) {
    if (err) std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    Group& group = *queue_.front();
    const std::size_t item = group.next++;
    if (group.next == group.total) {
      queue_.pop_front();
      pool_metrics().queue_depth.add(-1.0);
    }
    lock.unlock();
    execute_item(group, item);
    lock.lock();
    if (--group.remaining == 0) {
      // The group's creator may be asleep in run_group waiting for this
      // last item.
      cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (worker_count_ == 1) {
    // Instrumented as one group with one item: the per-index body is the
    // DSE hot loop, and per-index bookkeeping here is exactly the kind of
    // perturbation the metrics layer promises not to introduce.
    const double start = now_s();
    for (std::size_t i = begin; i < end; ++i) fn(i, 0);
    PoolMetrics& pm = pool_metrics();
    const double elapsed = now_s() - start;
    pm.groups.inc();
    pm.items.inc();
    pm.busy_seconds.inc(elapsed);
    pm.group_seconds.observe(elapsed);
    return;
  }
  Group group;
  group.total = worker_count_;
  group.begin = begin;
  group.end = end;
  group.chunk_fn = &fn;
  run_group(group);
}

void ThreadPool::run_tasks(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (worker_count_ == 1 || count == 1) {
    // Same drain-then-rethrow contract as the pooled path: every task
    // runs (the campaign persists per-task side effects), the lowest
    // task's exception surfaces afterwards. A single task runs on the
    // calling thread, which stays free to fan its own subtasks out.
    const double start = now_s();
    std::exception_ptr first;
    for (std::size_t t = 0; t < count; ++t) {
      try {
        fn(t);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    PoolMetrics& pm = pool_metrics();
    const double elapsed = now_s() - start;
    pm.groups.inc();
    pm.items.inc(static_cast<double>(count));
    pm.busy_seconds.inc(elapsed);
    pm.group_seconds.observe(elapsed);
    if (first) std::rethrow_exception(first);
    return;
  }
  Group group;
  group.total = count;
  group.task_fn = &fn;
  run_group(group);
}

}  // namespace wsnex::util
