#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <utility>

namespace qsteer {

namespace {
/// Worker threads mark themselves so ParallelFor can detect (and serialize)
/// nested parallelism on the same pool instead of deadlocking.
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

Latch::Latch(int count) : count_(count) {}

void Latch::CountDown() {
  MutexLock lock(mu_);
  assert(count_ > 0);
  if (--count_ == 0) cv_.NotifyAll();
}

void Latch::Wait() {
  MutexLock lock(mu_);
  while (count_ > 0) cv_.Wait(mu_);
}

// qsteer-lint: allow(wall-clock) pool uptime for stats(); observability only, never steers results
ThreadPool::ThreadPool(int num_threads) : created_at_(std::chrono::steady_clock::now()) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    assert(!shutting_down_);
    queue_.push_back(std::move(task));
    ++tasks_submitted_;
    max_queue_depth_ = std::max(max_queue_depth_, static_cast<int64_t>(queue_.size()));
  }
  cv_.NotifyOne();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  {
    MutexLock lock(mu_);
    out.tasks_submitted = tasks_submitted_;
    out.max_queue_depth = max_queue_depth_;
  }
  out.num_threads = num_threads();
  out.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  out.busy_seconds = static_cast<double>(busy_micros_.load(std::memory_order_relaxed)) / 1e6;
  // qsteer-lint: allow(wall-clock) stats() report; observability only, never steers results
  out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                   created_at_)
                         .count();
  return out;
}

const ThreadPool* ThreadPool::Current() { return current_pool; }

void ThreadPool::WorkerLoop() {
  current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) break;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // qsteer-lint: allow(wall-clock) per-task busy time for stats(); observability only
    auto start = std::chrono::steady_clock::now();
    task();  // tasks are noexcept wrappers built by ParallelFor / callers
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() -  // qsteer-lint: allow(wall-clock) busy-time measurement, observability only
                      start)
                      .count();
    busy_micros_.fetch_add(micros, std::memory_order_relaxed);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
  current_pool = nullptr;
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  // Serial path: no pool, a single worker (no concurrency to gain), a
  // trivially small loop, or a nested call from one of this pool's own
  // workers (fanning out would block a worker on work only workers can do).
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1 ||
      ThreadPool::Current() == pool) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct LoopState {
    std::atomic<int64_t> next{0};
    std::atomic<bool> failed{false};
    Mutex error_mu;
    std::exception_ptr error GUARDED_BY(error_mu);
  };
  LoopState state;
  int fanout = static_cast<int>(std::min<int64_t>(pool->num_threads(), n));
  Latch done(fanout);

  auto body = [&state, &fn, n, &done] {
    while (!state.failed.load(std::memory_order_relaxed)) {
      int64_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(state.error_mu);
        if (state.error == nullptr) state.error = std::current_exception();
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
    done.CountDown();
  };
  for (int w = 0; w < fanout; ++w) pool->Submit(body);
  done.Wait();
  // Workers are done (the latch opened), but lock anyway: the uncontended
  // acquire is free and keeps the access statically provable.
  MutexLock lock(state.error_mu);
  if (state.error != nullptr) std::rethrow_exception(state.error);
}

}  // namespace qsteer
