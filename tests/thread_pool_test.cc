// Unit tests of the task-scheduling layer (common/thread_pool.h): result
// ordering, exception propagation, serial fallbacks, nesting, and the
// counters surfaced through ThreadPoolStats.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace qsteer {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  Latch done(32);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.CountDown();
    });
  }
  done.Wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPool, StatsCountTasks) {
  ThreadPool pool(2);
  Latch done(10);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { done.CountDown(); });
  }
  done.Wait();
  ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.num_threads, 2);
  EXPECT_EQ(stats.tasks_submitted, 10);
  // All tasks were claimed (tasks_run may lag CountDown by an instant only
  // for the final bookkeeping, which happens before the queue empties for
  // the claiming worker; drain by re-reading until converged).
  while (pool.stats().tasks_run < 10) {
  }
  EXPECT_EQ(pool.stats().tasks_run, 10);
  EXPECT_GE(stats.max_queue_depth, 1);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  for (auto& v : visits) v.store(0);
  ParallelFor(&pool, 257, [&](int64_t i) { visits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelMap, DeterministicResultOrdering) {
  ThreadPool pool(8);
  std::vector<int> out =
      ParallelMap<int>(&pool, 1000, [](int64_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(ParallelFor, NullPoolFallsBackToSerial) {
  // The num_threads = 0 pipeline mode: no pool at all, same semantics.
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int64_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  // Unsynchronized push_back is safe: a 1-thread pool runs the loop inline.
  ParallelFor(&pool, 5, [&](int64_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](int64_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives and remains usable.
  std::atomic<int> ran{0};
  ParallelFor(&pool, 8, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelFor, ExceptionSkipsRemainingIndices) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    ParallelFor(&pool, 100000, [&](int64_t i) {
      if (i == 0) throw std::runtime_error("early");
      ran.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // Not all 100k iterations ran: the loop stopped claiming after the error.
  EXPECT_LT(ran.load(), 100000);
}

TEST(ParallelFor, NestedCallOnSamePoolRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  ParallelFor(&pool, 4, [&](int64_t) {
    // A nested loop on the same pool must not block a worker on work that
    // only workers of this pool can execute.
    ParallelFor(&pool, 16, [&](int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 16);
}

TEST(Latch, WaitsForAllCountDowns) {
  ThreadPool pool(3);
  Latch latch(3);
  std::atomic<int> before{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] {
      before.fetch_add(1);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(before.load(), 3);
}

}  // namespace
}  // namespace qsteer
