// QL008 member-call resolution: A and B both define Inner(). A::Outer()
// holds A::mu_ while calling the unqualified Inner(), which names
// A::Inner() and locks A::other_, so the edge A::mu_ -> A::other_ exists.
struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex& mu);
};
struct A {
  void Outer() {
    MutexLock lock(mu_);
    Inner();
  }
  void Inner() { MutexLock lock(other_); }
  Mutex mu_;
  Mutex other_;
};
struct B {
  void Inner() { MutexLock lock(mu_); }
  Mutex mu_;
};
