// Task scheduling for the parallel steering pipeline.
//
// The paper's offline discovery loop ran at Microsoft as a massively
// parallel batch job: every selected job is recompiled under up to 1000
// candidate rule configurations and the cheapest plans are A/B-executed.
// This header provides the small scheduling layer the reproduction uses to
// fan that work out: a fixed-size ThreadPool, index-space ParallelFor /
// ParallelMap helpers with deterministic result ordering, and a Latch.
//
// Design constraints (why this is not a generic work-stealing scheduler):
//  * All pipeline work units are index-addressable (candidate i, job i),
//    so ParallelFor over an atomic index counter is both sufficient and
//    deterministic in its result placement: result[i] only ever depends on
//    input i, never on which worker claimed it.
//  * Exceptions thrown by loop bodies must not kill worker threads: the
//    first exception is captured, remaining iterations are skipped, and the
//    exception is rethrown on the calling thread after the loop drains.
//  * Nested ParallelFor calls from inside a pool task run serially inline
//    instead of deadlocking (a worker blocking on a Latch that only other
//    tasks of the same pool can open).
//
// Thread-safety: ThreadPool and Latch are safe to share across threads.
// ThreadPoolStats snapshots (see common/stats.h) are internally consistent
// but not atomic across fields.
#ifndef QSTEER_COMMON_THREAD_POOL_H_
#define QSTEER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"

namespace qsteer {

/// Single-use countdown latch (std::latch is C++20 but kept out of the hot
/// path here for the trivial needs we have; this also lets us expose Wait
/// with a predicate-free interface on every libstdc++ we target).
class Latch {
 public:
  explicit Latch(int count);

  /// Decrements the count; wakes waiters when it reaches zero. Calling more
  /// times than `count` is an error (checked in debug builds only).
  void CountDown();
  void Wait();

 private:
  Mutex mu_;
  CondVar cv_;
  int count_ GUARDED_BY(mu_);
};

/// Fixed-size worker pool over a single FIFO queue.
///
/// Pipeline work units (one candidate recompilation, one A/B execution) are
/// coarse — hundreds of microseconds to seconds — so a mutex-guarded queue
/// is nowhere near contention; per-task steal counters exist to validate
/// that assumption in benches, not because stealing occurs.
class ThreadPool {
 public:
  /// `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);

  /// Drains already-queued tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not block on work that can only be executed
  /// by this same pool (use ParallelFor, which handles nesting, instead of
  /// hand-rolled fan-out when in doubt).
  void Submit(std::function<void()> task);

  /// Lightweight counters for benches and regression tests (definition in
  /// common/stats.h so reporting code does not pull in the scheduler).
  ThreadPoolStats stats() const;

  /// The pool the calling thread is currently a worker of, or nullptr.
  static const ThreadPool* Current();

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  /// Written only by the constructor, joined only by the destructor; never
  /// touched while workers run, so it needs no guard.
  std::vector<std::thread> workers_;
  bool shutting_down_ GUARDED_BY(mu_) = false;

  // Counters (guarded by mu_ except the atomics).
  int64_t tasks_submitted_ GUARDED_BY(mu_) = 0;
  int64_t max_queue_depth_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> busy_micros_{0};
  std::chrono::steady_clock::time_point created_at_;
};

/// Runs fn(0) .. fn(n-1), partitioned dynamically over the pool's workers.
///
/// Serial fallbacks (all preserve exact serial semantics):
///  * `pool == nullptr` or `pool->num_threads() <= 1` or `n <= 1`;
///  * called from inside a task of the same pool (nesting would deadlock).
///
/// Determinism contract: fn is invoked exactly once per index (unless an
/// exception stops the loop early); callers that write results to slot i of
/// a pre-sized vector observe the same final state regardless of worker
/// count or claim order.
///
/// The first exception thrown by any fn invocation is rethrown on the
/// calling thread after all in-flight iterations finish; remaining indices
/// are skipped.
void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn);

/// Deterministically-ordered map: out[i] = fn(i). Requires R to be default
/// constructible (the slots are sized before the loop runs).
template <typename R>
std::vector<R> ParallelMap(ThreadPool* pool, int64_t n, const std::function<R(int64_t)>& fn) {
  std::vector<R> out(static_cast<size_t>(n > 0 ? n : 0));
  ParallelFor(pool, n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); });
  return out;
}

}  // namespace qsteer

#endif  // QSTEER_COMMON_THREAD_POOL_H_
