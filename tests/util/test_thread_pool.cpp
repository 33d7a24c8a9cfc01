#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wsnex::util {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  // n = 1 starts no thread: fn(0) runs on the caller. n = 0 runs nothing.
  std::vector<std::thread::id> ran_on;
  run_parallel(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(ran_on, std::vector<std::thread::id>{std::this_thread::get_id()});
  run_parallel(0, [&](std::size_t) {
    ADD_FAILURE() << "n = 0 must not invoke fn";
  });
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 8;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::thread::id> ran_on(kN);
  run_parallel(kN, [&](std::size_t i) {
    hits[i].fetch_add(1);
    ran_on[i] = std::this_thread::get_id();
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // fn(0) on the caller, every other index on a thread of its own.
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_EQ(distinct.size(), kN);
}

TEST(ThreadPool, PropagatesExceptions) {
  // Every index runs before the lowest throwing index's exception
  // surfaces (the campaign persists per-lane side effects).
  std::mutex mutex;
  std::vector<std::size_t> ran;
  try {
    run_parallel(6, [&](std::size_t i) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        ran.push_back(i);
      }
      if (i == 4 || i == 2) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 2");
  }
  EXPECT_EQ(std::set<std::size_t>(ran.begin(), ran.end()),
            (std::set<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(ran.size(), 6u);
  // The caller's own index throwing is no different.
  EXPECT_THROW(run_parallel(1,
                            [](std::size_t) {
                              throw std::runtime_error("inline");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace wsnex::util
