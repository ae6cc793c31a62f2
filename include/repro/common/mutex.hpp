// Annotated, ranked mutex wrappers.
//
// Mutex is std::mutex plus capability annotations, so clang's
// thread-safety analysis can prove every GUARDED_BY / REQUIRES
// contract (`-Wthread-safety`), plus a lock rank, so the lock order is
// checked at run time in every build type. Lock through the RAII
// MutexLock, whose attributes let the analysis track hold ranges.
//
// Lock ranks, in the style of lockdep and witness(4): each thread keeps
// the ranks it holds on a thread-local stack, and an acquisition that
// is not strictly above the top aborts, naming both ranks, before the
// native lock is touched. That catches a reversed pair and two mutexes
// of one rank held together (shard → other shard). The check is a
// thread-local compare: no atomic, allocation or system call. A mutex
// stores only its own fixed rank, nothing a second holder could
// overwrite.
//
// CondVar adopts the underlying std::mutex around each native wait.
// The waiter's stack keeps the mutex through the wait, which is right:
// the waiter is blocked until it holds the mutex again. As the wait
// re-acquires the mutex, it must be the top of the stack.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>

#include "repro/common/thread_annotations.hpp"

namespace repro::common {

/// The repo's mutexes in acquisition order: a thread holding one may
/// acquire only a later one. DESIGN 5.9 lists the pairs that occur.
enum class LockRank : std::uint8_t {
  kShard,          // PipelineShard::mutex_
  kCoordinator,    // ShardedPipeline::mutex_
  kEngineBuilder,  // ModelEngine::builder_mutex_
  kJournal,        // ShardedPipeline::journal_mutex_
  kIngressRing,    // ShardedPipeline::Ingress::ring_mutex
  kPool,           // ThreadPool::mutex_
  kPoolJob,        // ThreadPool::Job::done_mutex
};

namespace detail {

inline constexpr const char* kLockRankNames[] = {
    "kShard",      "kCoordinator", "kEngineBuilder", "kJournal",
    "kIngressRing", "kPool",       "kPoolJob"};
inline constexpr std::size_t kLockRankCount = std::size(kLockRankNames);

/// The calling thread's held ranks, strictly increasing from the
/// bottom, so the depth never exceeds the number of ranks.
struct HeldRanks {
  LockRank rank[kLockRankCount] = {};
  std::size_t depth = 0;
};
inline thread_local HeldRanks held_ranks;

[[noreturn]] inline void lock_rank_violation(LockRank held,
                                             LockRank wanted) {
  std::fprintf(stderr,
               "lock rank violation: acquiring %s while holding %s\n",
               kLockRankNames[static_cast<std::size_t>(wanted)],
               kLockRankNames[static_cast<std::size_t>(held)]);
  std::abort();
}

}  // namespace detail

/// std::mutex with capability annotations and a lock rank. Lock
/// through MutexLock; raw lock()/unlock() calls must nest the same way
/// (last locked, first unlocked), since unlock() pops the rank stack.
class REPRO_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() REPRO_ACQUIRE() {
    detail::HeldRanks& held = detail::held_ranks;
    if (held.depth != 0 && held.rank[held.depth - 1] >= rank_)
      detail::lock_rank_violation(held.rank[held.depth - 1], rank_);
    inner_.lock();
    held.rank[held.depth++] = rank_;
  }
  void unlock() REPRO_RELEASE() {
    --detail::held_ranks.depth;
    inner_.unlock();
  }

 private:
  friend class CondVar;
  /// A wait releases and re-acquires this mutex in place: it must be
  /// the innermost one the caller holds.
  void check_wait() const {
    const detail::HeldRanks& held = detail::held_ranks;
    if (held.rank[held.depth - 1] != rank_)
      detail::lock_rank_violation(held.rank[held.depth - 1], rank_);
  }

  std::mutex inner_;
  const LockRank rank_;
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
    mutex.check_wait();
    std::unique_lock<std::mutex> native(mutex.inner_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // hand the (re-acquired) lock back to the caller
  }

  /// Waits until pred() is true. Annotate the predicate with
  /// REPRO_REQUIRES(mutex) when it reads guarded state — it always
  /// runs with the mutex held.
  template <typename Pred>
  void wait(Mutex& mutex, Pred pred) REPRO_REQUIRES(mutex) {
    mutex.check_wait();
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
