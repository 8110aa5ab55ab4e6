// Bounded MPMC queue for the steering service's request path.
//
// Differs from the ThreadPool's task deque on purpose: admission control
// needs a *bounded* queue whose producer side never blocks — an overloaded
// service must reject (shed) a request immediately rather than stall the
// caller behind an unbounded backlog. Consumers (compile workers) block on
// Pop until work arrives or the queue is closed.
//
// Thread-safety: all members are safe to call concurrently. Closing is
// idempotent; after Close, TryPush fails and Pop drains the remaining items
// before returning false.
#ifndef QSTEER_COMMON_BOUNDED_QUEUE_H_
#define QSTEER_COMMON_BOUNDED_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qsteer {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int capacity) : capacity_(std::max(1, capacity)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  int capacity() const { return capacity_; }

  /// Non-blocking: false when the queue is full or closed (the caller sheds
  /// or rejects; it never waits).
  bool TryPush(T item) {
    {
      MutexLock lock(mu_);
      if (closed_ || static_cast<int>(items_.size()) >= capacity_) return false;
      items_.push_back(std::move(item));
      high_water_ = std::max(high_water_, static_cast<int64_t>(items_.size()));
      ++pushed_;
    }
    cv_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and* empty.
  bool Pop(T* out) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) cv_.Wait(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Stops admission and wakes all blocked consumers. Items already queued
  /// remain poppable (graceful drain).
  void Close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  /// Closes and removes every queued item, returning them so the caller can
  /// fail their completions (crash simulation / hard stop).
  std::vector<T> CloseAndDrain() {
    std::vector<T> drained;
    {
      MutexLock lock(mu_);
      closed_ = true;
      drained.assign(std::make_move_iterator(items_.begin()),
                     std::make_move_iterator(items_.end()));
      items_.clear();
    }
    cv_.NotifyAll();
    return drained;
  }

  int size() const {
    MutexLock lock(mu_);
    return static_cast<int>(items_.size());
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  int64_t high_water() const {
    MutexLock lock(mu_);
    return high_water_;
  }

  int64_t pushed() const {
    MutexLock lock(mu_);
    return pushed_;
  }

 private:
  const int capacity_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  int64_t high_water_ GUARDED_BY(mu_) = 0;
  int64_t pushed_ GUARDED_BY(mu_) = 0;
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_BOUNDED_QUEUE_H_
