// Fixed-size cooperative thread pool for coarse, independent units of
// work: campaign scenarios and Monte Carlo validation replicates. (The
// optimizers never use it: one evaluation costs ~0.4 us, far too little
// to split a scenario across threads.)
//
// Two fan-out primitives share one worker set and one FIFO work queue:
//
//  * parallel_for() — the replicate primitive. The index range is split
//    into size() contiguous chunks and fn receives the *chunk index* as
//    its worker id, so the mapping from index to worker id is a pure
//    function of (range, pool size) regardless of which thread executes
//    the chunk. Callers that write results by index therefore produce
//    identical output for any worker count.
//  * run_tasks() — coarse task fan-out for the campaign lanes: tasks are
//    claimed FIFO by idle workers, so long and short tasks balance
//    dynamically.
//
// Both primitives are *reentrant*: a task or chunk running on the pool
// may itself call parallel_for()/run_tasks() on the same pool. The inner
// call enqueues its items on the shared queue and the calling thread
// helps execute them (its own group's items only, so recursion depth is
// bounded by the actual nesting), while idle workers pick up whatever is
// queued. This is what lets a campaign lane's `--validate` hook fan its
// replicates out on the campaign pool — two levels, one set of threads,
// no oversubscription.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsnex::util {

/// Fixed pool of `size()` workers. Worker thread count is size() - 1: the
/// calling thread always participates, so a pool of size 1 spawns no
/// threads at all and both primitives degenerate to plain inline loops.
class ThreadPool {
 public:
  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count including the calling thread.
  std::size_t size() const { return worker_count_; }

  /// Runs fn(index, worker) for every index in [begin, end), partitioned
  /// into size() contiguous chunks; `worker` is the chunk index (worker w
  /// covers the w-th chunk; trailing chunks are empty when the range is
  /// shorter than the pool). Within one call no two invocations sharing a
  /// `worker` value run concurrently, so `worker` can index per-slot
  /// scratch. Blocks until every index has run. Reentrant (see file
  /// comment). If any invocation throws, the first exception (lowest
  /// chunk) is rethrown after the whole batch has drained.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t index,
                                             std::size_t worker)>& fn);

  /// Runs fn(task) for every task in [0, count). Unlike parallel_for the
  /// assignment of tasks to threads is dynamic (FIFO claim), so use this
  /// for coarse, unevenly sized work — e.g. one campaign lane per task —
  /// and only with fns whose results do not depend on which thread runs
  /// them; a single task runs on the calling thread. Blocks until every
  /// task has run; reentrant; the first exception (lowest task index) is
  /// rethrown after the batch drains.
  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t task)>& fn);

  /// Resolves a thread-count request: 0 -> hardware concurrency (itself
  /// never 0), anything else unchanged.
  static std::size_t resolve_threads(std::size_t threads);

 private:
  /// One fan-out call in flight: either a chunked range (parallel_for)
  /// or a task batch (run_tasks). Lives on the calling thread's stack;
  /// `next`/`remaining` are guarded by the pool mutex.
  struct Group {
    std::size_t total = 0;      ///< items (chunks or tasks)
    std::size_t next = 0;       ///< next unclaimed item
    std::size_t remaining = 0;  ///< items not yet finished
    std::size_t begin = 0;      ///< chunked mode: range + chunk count
    std::size_t end = 0;
    const std::function<void(std::size_t, std::size_t)>* chunk_fn = nullptr;
    const std::function<void(std::size_t)>* task_fn = nullptr;
    std::vector<std::exception_ptr> errors;  ///< slot per item
  };

  void execute_item(Group& group, std::size_t item) const;
  /// Publishes the group, helps execute its items, blocks until done,
  /// rethrows the lowest-item exception.
  void run_group(Group& group);
  void worker_loop();

  std::size_t worker_count_ = 1;
  std::vector<std::thread> threads_;  // size worker_count_ - 1

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Group*> queue_;  ///< groups with unclaimed items, FIFO
  bool stopping_ = false;
};

}  // namespace wsnex::util
