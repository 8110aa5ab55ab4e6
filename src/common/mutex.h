// Annotated mutex primitives for Clang's thread-safety analysis.
//
// std::mutex / std::lock_guard / std::condition_variable carry no capability
// attributes in libstdc++, so code locking them is invisible to
// -Wthread-safety. These thin wrappers attach the attributes
// (common/thread_annotations.h) without changing behavior or cost: Mutex is
// exactly a std::mutex, MutexLock exactly a lock_guard, and CondVar waits on
// the wrapped std::mutex via the adopt/release idiom (no
// condition_variable_any indirection).
//
// Usage pattern enforced across the repo:
//
//   mutable Mutex mu_;
//   CondVar cv_;
//   int state_ GUARDED_BY(mu_);
//
//   void Wait() {
//     MutexLock lock(mu_);
//     while (state_ == 0) cv_.Wait(mu_);   // explicit loop, NOT a predicate
//   }                                      // lambda: the analysis treats a
//                                          // lambda as a separate function
//                                          // that does not hold mu_.
//
// CondVar::Wait releases and reacquires the mutex internally; the analysis
// (deliberately) does not model that window, matching the standard caveat of
// every annotated condition-variable wrapper: the capability is held at
// entry and at exit, which is what callers may rely on.
#ifndef QSTEER_COMMON_MUTEX_H_
#define QSTEER_COMMON_MUTEX_H_

#include <condition_variable>
#include <memory>
#include <mutex>

#include "common/thread_annotations.h"

namespace qsteer {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis this thread holds the mutex when that fact cannot be
  /// proven statically. No runtime effect.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock; the scoped-capability shape the analysis tracks through early
/// returns and exceptions.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }

  /// Adopts a mutex the caller already locked (e.g. via a contention-counting
  /// TryLock-then-Lock helper annotated ACQUIRE). The destructor releases it.
  struct AdoptT {};
  MutexLock(Mutex& mu, AdoptT) REQUIRES(mu) : mu_(&mu) {}

  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

inline constexpr MutexLock::AdoptT kAdoptLock{};

/// Condition variable bound to qsteer::Mutex. Wait requires the mutex held
/// and waits on the *wrapped* std::mutex directly (adopt/release), so there
/// is no extra internal lock and wakeups cost the same as a plain
/// std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// One spurious-wakeup-prone wait; always call in a `while (!condition)`
  /// loop in the function that holds the lock.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A shared_ptr that writers replace and readers copy out, each in a short
/// critical section that covers only the pointer copy or swap. A reader's
/// copy keeps its value alive after a writer replaced it, and the replaced
/// value is released after the unlock, so no destructor runs under `mu_`.
///
/// It stands in for std::atomic<std::shared_ptr<T>>: libstdc++ 12's load
/// releases that type's internal lock bit with a relaxed store, so a later
/// store has no happens-before edge from the load and ThreadSanitizer
/// reports a race. A Mutex is an ordering the sanitizer models.
template <typename T>
class SharedPtrSlot {
 public:
  std::shared_ptr<T> Load() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ptr_;
  }

  void Store(std::shared_ptr<T> value) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ptr_.swap(value);
    }
    // `value` now holds the replaced pointer and drops it here, unlocked.
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<T> ptr_ GUARDED_BY(mu_);
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_MUTEX_H_
