// Annotated mutex wrappers for the clang thread-safety analysis.
//
// std::mutex and std::shared_mutex carry no capability attributes, so
// the analysis cannot reason about them. These thin wrappers add the
// annotations (and nothing else — each is exactly the standard
// primitive underneath) so that every GUARDED_BY / REQUIRES contract
// in the library is checkable at compile time with
// `-Wthread-safety`. Locking is done through the RAII scoped types
// (MutexLock, SharedLock) whose constructor/destructor attributes let
// the analysis track hold ranges across early returns.
//
// CondVar pairs std::condition_variable with the annotated Mutex by
// adopting/releasing the underlying std::mutex around each wait, so
// waiting code keeps the native condition-variable fast path while the
// analysis still sees the capability held across the wait's predicate.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "repro/common/thread_annotations.hpp"

namespace repro::common {

/// std::mutex with capability annotations. Lock through MutexLock;
/// the raw lock()/unlock() exist for the rare adoption patterns and
/// are equally visible to the analysis.
class REPRO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() REPRO_ACQUIRE() { inner_.lock(); }
  void unlock() REPRO_RELEASE() { inner_.unlock(); }
  bool try_lock() REPRO_TRY_ACQUIRE(true) { return inner_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex inner_;
};

/// RAII exclusive lock on a Mutex.
class REPRO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) REPRO_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() REPRO_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// std::shared_mutex with capability annotations: one writer or many
/// readers. Lock through ExclusiveLock / SharedLock.
class REPRO_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() REPRO_ACQUIRE() { inner_.lock(); }
  void unlock() REPRO_RELEASE() { inner_.unlock(); }
  void lock_shared() REPRO_ACQUIRE_SHARED() { inner_.lock_shared(); }
  void unlock_shared() REPRO_RELEASE_SHARED() { inner_.unlock_shared(); }

 private:
  std::shared_mutex inner_;
};

/// RAII writer lock on a SharedMutex.
class REPRO_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mutex) REPRO_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~ExclusiveLock() REPRO_RELEASE() { mutex_.unlock(); }

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII reader lock on a SharedMutex.
class REPRO_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mutex) REPRO_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~SharedLock() REPRO_RELEASE() { mutex_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable over the annotated Mutex. The caller holds the
/// Mutex (REQUIRES) for every wait; internally the underlying
/// std::mutex is adopted for the duration of the native wait and
/// released back to the caller's scoped lock afterwards, so the
/// capability is continuously held from the analysis's point of view —
/// which matches reality: the mutex is only ever dropped inside the
/// condition variable's own atomic wait protocol.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) REPRO_REQUIRES(mutex) {
    std::unique_lock<std::mutex> native(mutex.inner_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // hand the (re-acquired) lock back to the caller
  }

  /// Waits until pred() is true. Annotate the predicate with
  /// REPRO_REQUIRES(mutex) when it reads guarded state — it always
  /// runs with the mutex held.
  template <typename Pred>
  void wait(Mutex& mutex, Pred pred) REPRO_REQUIRES(mutex) {
    std::unique_lock<std::mutex> native(mutex.inner_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace repro::common
