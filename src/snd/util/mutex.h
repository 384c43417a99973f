// Annotated mutex wrappers: thin shims over the std synchronization
// primitives that carry the thread-safety attributes from
// thread_annotations.h, so clang's -Wthread-safety can check the
// repo's locking invariants at compile time (every member comment of
// the form "guarded by mu_" is now an SND_GUARDED_BY annotation the
// build enforces). Zero overhead: every method is an inline forward to
// the underlying std primitive.
//
// Usage mirrors std <mutex>/<shared_mutex>:
//
//   Mutex mu_;
//   int value_ SND_GUARDED_BY(mu_);
//   {
//     MutexLock lock(mu_);          // std::lock_guard equivalent
//     ++value_;
//     while (!ready_) cv_.Wait(lock);  // CondVar wait under the lock
//   }
//
//   SharedMutex smu_;
//   ReaderMutexLock lock(smu_);     // std::shared_lock equivalent
//   WriterMutexLock lock(smu_);     // std::unique_lock equivalent
//
// Every scoped locker is by-reference, non-movable, and must be named
// (a temporary would unlock immediately).
#ifndef SND_UTIL_MUTEX_H_
#define SND_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "snd/util/thread_annotations.h"

namespace snd {

class CondVar;

// An exclusive mutex (std::mutex) the analysis knows how to track.
class SND_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SND_ACQUIRE() { mu_.lock(); }
  void Unlock() SND_RELEASE() { mu_.unlock(); }
  bool TryLock() SND_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

// A reader/writer mutex (std::shared_mutex): many shared holders or one
// exclusive holder.
class SND_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SND_ACQUIRE() { mu_.lock(); }
  void Unlock() SND_RELEASE() { mu_.unlock(); }
  void LockShared() SND_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SND_RELEASE_SHARED() { mu_.unlock_shared(); }
  // Takes the shared lock if it can be had without waiting; never
  // blocks.
  bool TryLockShared() SND_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock on a Mutex (std::lock_guard equivalent, plus
// CondVar support: the wait needs the underlying std::unique_lock).
class SND_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SND_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() SND_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// Scoped shared (reader) lock on a SharedMutex.
class SND_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SND_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  // Plain RELEASE on a scoped capability's destructor is the generic
  // form: it also releases a capability acquired shared.
  ~ReaderMutexLock() SND_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Scoped exclusive (writer) lock on a SharedMutex.
class SND_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SND_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() SND_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to MutexLock. Wait takes the held lock, so
// use sites keep the guarded-member reads inside the locked scope where
// the analysis can see them:
//
//   MutexLock lock(mu_);
//   while (!condition_) cv_.Wait(lock);   // condition_ guarded by mu_
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases the lock, blocks, and reacquires before
  // returning; the capability is held again on return, which is exactly
  // what the analysis assumes. Spurious wakeups happen — always wait in
  // a while loop re-checking the guarded condition.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  // Timed wait: returns false on timeout, true when notified (or on a
  // spurious wakeup — re-check the guarded condition either way).
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace snd

#endif  // SND_UTIL_MUTEX_H_
