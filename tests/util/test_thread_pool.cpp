#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace wsnex::util {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> workers(16, 99);
  pool.parallel_for(0, 16, [&](std::size_t i, std::size_t w) {
    workers[i] = w;
  });
  for (const std::size_t w : workers) EXPECT_EQ(w, 0u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i, std::size_t) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkAssignmentIsDeterministic) {
  // Worker w owns the w-th contiguous chunk: a pure function of the
  // range and the pool size (the batch determinism guarantee rests on
  // results being written by index, but the assignment itself is fixed
  // too).
  ThreadPool pool(3);
  std::vector<std::size_t> owner_a(10), owner_b(10);
  pool.parallel_for(0, 10, [&](std::size_t i, std::size_t w) {
    owner_a[i] = w;
  });
  pool.parallel_for(0, 10, [&](std::size_t i, std::size_t w) {
    owner_b[i] = w;
  });
  EXPECT_EQ(owner_a, owner_b);
  // ceil(10 / 3) = 4 -> chunks [0,4) [4,8) [8,10).
  const std::vector<std::size_t> expected{0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  EXPECT_EQ(owner_a, expected);
}

TEST(ThreadPool, NonZeroBeginAndEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) {
    ADD_FAILURE() << "empty range must not invoke fn";
  });
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(5, 9, [&](std::size_t i, std::size_t) { sum += i; });
  EXPECT_EQ(sum.load(), 5u + 6u + 7u + 8u);
}

TEST(ThreadPool, RangeShorterThanPool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t i, std::size_t w) {
    EXPECT_LT(w, 8u);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i, std::size_t) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RunTasksCoversEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(37);
  pool.run_tasks(hits.size(), [&](std::size_t t) { hits[t].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // A single task runs on the calling thread, whatever the pool width.
  std::thread::id ran_on;
  pool.run_tasks(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Single-worker pools run inline.
  ThreadPool one(1);
  std::vector<std::size_t> order;
  one.run_tasks(5, [&](std::size_t t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, RunTasksPropagatesLowestTaskException) {
  ThreadPool pool(4);
  try {
    pool.run_tasks(64, [&](std::size_t t) {
      if (t == 7 || t == 3) {
        throw std::runtime_error("task " + std::to_string(t));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // Usable afterwards.
  std::atomic<int> count{0};
  pool.run_tasks(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);

  // The single-worker inline path honors the same drain-then-rethrow
  // contract: every task runs before the first exception surfaces.
  ThreadPool one(1);
  std::vector<std::size_t> ran;
  try {
    one.run_tasks(4, [&](std::size_t t) {
      ran.push_back(t);
      if (t == 1 || t == 2) throw std::runtime_error("t" + std::to_string(t));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "t1");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ReentrantNestedFanOutOnOneSharedPool) {
  // The campaign shape: coarse scenario tasks spawn evaluation batches on
  // the same pool. Every nested index must run exactly once, and the
  // nested chunk ids must stay a pure function of (range, pool size).
  ThreadPool pool(3);
  constexpr std::size_t kTasks = 6;
  constexpr std::size_t kInner = 40;
  std::vector<std::vector<std::atomic<int>>> hits(kTasks);
  for (auto& row : hits) {
    row = std::vector<std::atomic<int>>(kInner);
  }
  std::vector<std::vector<std::size_t>> owners(
      kTasks, std::vector<std::size_t>(kInner, 99));
  pool.run_tasks(kTasks, [&](std::size_t task) {
    pool.parallel_for(0, kInner, [&, task](std::size_t i, std::size_t w) {
      hits[task][i].fetch_add(1);
      owners[task][i] = w;
    });
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(hits[t][i].load(), 1) << t << "," << i;
      // ceil(40 / 3) = 14 -> chunk = i / 14 for every task.
      EXPECT_EQ(owners[t][i], i / 14) << t << "," << i;
    }
  }
}

TEST(ThreadPool, NestedParallelForInsideParallelFor) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.parallel_for(0, 16, [&](std::size_t i, std::size_t) {
    pool.parallel_for(0, 16, [&, i](std::size_t j, std::size_t) {
      hits[i * 16 + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  std::vector<std::size_t> out(64);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, out.size(), [&](std::size_t i, std::size_t) {
      out[i] = i * static_cast<std::size_t>(round);
    });
    const std::size_t expected =
        63u * static_cast<std::size_t>(round);
    ASSERT_EQ(out[63], expected);
  }
}

}  // namespace
}  // namespace wsnex::util
