#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"

namespace netent {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, ZeroRequestedThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, SingleThreadPoolRunsSubmissionsInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& future : futures) future.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SubmitCompletesAcrossManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, NullTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW((void)pool.submit(std::function<void()>{}), ContractViolation);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRethrowsLowestThrowingIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 64, [](std::size_t i) {
      if (i == 17 || i == 40) throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 17");
  }
  // The pool is reusable after a throwing parallel_for.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForBalancesUnevenWork) {
  // A few indices are much heavier than the rest; dynamic index claiming
  // must still complete every index (the assertion is completion + coverage,
  // not timing).
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&hits](std::size_t i) {
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DestructorDrainsQueuedTasksUnderLoad) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 300; ++i) {
      (void)pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1);
      });
    }
    // Destroyed while most tasks are still queued.
  }
  EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPool, ManyConcurrentParallelForsFromOwnPools) {
  // Several pools in flight at once (the risk sweep creates one per call).
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&total] {
      ThreadPool pool(3);
      pool.parallel_for(0, 200, [&total](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(total.load(), 800);
}

// A loop started from inside a fanned-out body of the same pool runs inline
// on that thread, so realization x scenario nesting cannot deadlock even
// when the outer loop occupies every worker, and the nested results match a
// serial double loop.
TEST(ThreadPool, NestedParallelForInsideOwnTaskMatchesSerialLoop) {
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 97;
  const auto value = [](std::size_t i, std::size_t j) {
    return static_cast<double>(i * 1000 + j) * 0.5;
  };
  std::vector<std::vector<double>> serial(kOuter, std::vector<double>(kInner));
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) serial[i][j] = value(i, j);
  }

  ThreadPool pool(3);
  std::vector<std::vector<double>> nested(kOuter, std::vector<double>(kInner, -1.0));
  pool.parallel_for(0, kOuter, [&](std::size_t i) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(0, kInner, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);  // inline, no hand-off
      nested[i][j] = value(i, j);
    });
  });
  EXPECT_EQ(nested, serial);

  // The same from a plain submitted task.
  std::vector<double> from_task(kInner, -1.0);
  std::future<void> task = pool.submit(
      [&] { pool.parallel_for(0, kInner, [&](std::size_t j) { from_task[j] = value(3, j); }); });
  task.get();
  EXPECT_EQ(from_task, serial[3]);
}

// A width-bounded loop never runs more than `width` bodies at once, and a
// width of 1 never leaves the calling thread.
TEST(ThreadPool, WidthBoundedLoopNeverExceedsWidth) {
  ThreadPool pool(4);
  for (const std::size_t width : {1u, 2u, 3u}) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::atomic<int> off_caller{0};
    const std::thread::id caller = std::this_thread::get_id();
    pool.parallel_for(
        0, 64,
        [&](std::size_t) {
          const int now = running.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          running.fetch_sub(1);
        },
        width);
    EXPECT_LE(peak.load(), static_cast<int>(width)) << "width " << width;
    if (width == 1) {
      EXPECT_EQ(off_caller.load(), 0);
    }
  }
  // Worker slots stay inside [0, width).
  std::vector<std::atomic<int>> slot_hits(2);
  pool.parallel_for_with_worker(
      0, 100, [&](std::size_t worker, std::size_t) { slot_hits.at(worker).fetch_add(1); }, 2);
  EXPECT_EQ(slot_hits[0].load() + slot_hits[1].load(), 100);
}

// Without a pool, or at width 1, an Executor's loop is a plain loop on the
// calling thread: ascending indices, worker slot 0. Wider, it hands out
// slots in [0, slots()).
TEST(ThreadPool, ExecutorRunsInlineWithoutPoolOrAtWidthOne) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (const Executor exec : {Executor{}, Executor{nullptr, 4}, Executor{&pool, 1}}) {
    EXPECT_EQ(exec.slots(), 1u);
    std::vector<std::size_t> order;
    exec.for_each(50, [&](std::size_t worker, std::size_t i) {
      EXPECT_EQ(worker, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> expected(50);
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
    EXPECT_EQ(order, expected);
  }

  const Executor wide{&pool, 8};
  EXPECT_EQ(wide.slots(), 4u);  // 3 workers + the calling thread
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::atomic<int>> slot_hits(wide.slots());
  wide.for_each(hits.size(), [&](std::size_t worker, std::size_t i) {
    slot_hits.at(worker).fetch_add(1);
    hits[i].fetch_add(1);
  });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

}  // namespace
}  // namespace netent
