// A small thread pool for fan-out model evaluation.
//
// The ModelEngine (repro/engine) evaluates many independent co-schedule
// candidates per batch; each candidate is CPU-bound and takes a few
// microseconds to a few milliseconds depending on the co-schedule size,
// so dynamic load balancing matters more than queueing sophistication.
// The pool's one operation is parallel_for: the calling thread posts a
// job, idle workers join the oldest posted job that still has unclaimed
// indices, and every participant — the caller included — claims
// indices one atomic increment at a time. Because the caller
// participates, a pool is never slower than the plain loop it replaces,
// and a pool of size 1 degenerates to serial execution on the caller
// plus one helper.
//
// Guarantees relied on by the engine's determinism tests: bodies
// receive only their index, workers never reorder a body's internal
// work, and parallel_for returns only after every index in [0, n) ran
// exactly once (rethrowing the first body exception, if any). Several
// threads may call parallel_for on one pool at once.
//
// Concurrency invariants are declared with clang thread-safety
// annotations (see repro/common/thread_annotations.hpp): the posted-job
// list and stopping_ are guarded by mutex_, each job's completion state
// by its own done_mutex. The two are never held together; both rank
// last (LockRank::kPool, kPoolJob) because a parallel_for caller may
// already hold any other lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "repro/common/mutex.hpp"
#include "repro/common/thread_annotations.hpp"

namespace repro::common {

class ThreadPool {
 public:
  /// `threads` = 0 picks one worker per hardware thread (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding callers joining parallel_for).
  std::size_t size() const { return workers_.size(); }

  /// Run body(i) for every i in [0, n), distributing indices over the
  /// workers *and* the calling thread, and block until all have
  /// completed. Indices are claimed dynamically, one at a time, so
  /// uneven per-index cost balances automatically. The first exception
  /// thrown by any body(i) is rethrown here after all claimed work has
  /// drained.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Default worker count: hardware_concurrency, at least 1.
  static std::size_t default_threads();

 private:
  /// One parallel_for call, shared by its caller and every worker that
  /// joined it: a worker may still hold the job after the caller has
  /// returned, so it is reference-counted, and `body` — owned by the
  /// caller's frame — is read only after a successful claim, which no
  /// participant makes once every index is handed out.
  struct Job {
    Job(const std::function<void(std::size_t)>& b, std::size_t n)
        : body(b), limit(n) {}

    /// Claim loop shared by the caller and the workers: indices are
    /// handed out one atomic fetch at a time, so load imbalance between
    /// candidates self-corrects. Returns once no index is left to claim.
    void drain();

    const std::function<void(std::size_t)>& body;
    const std::size_t limit;
    std::atomic<std::size_t> next{0};
    // Finished indices. Counted outside done_mutex so finishing an
    // index takes no lock: with microsecond bodies a per-index lock
    // convoys behind whichever thread was preempted holding it.
    std::atomic<std::size_t> completed{0};
    Mutex done_mutex{LockRank::kPoolJob};
    CondVar done_cv;
    bool done REPRO_GUARDED_BY(done_mutex) = false;
    std::exception_ptr error REPRO_GUARDED_BY(done_mutex);
  };

  void worker_loop();

  Mutex mutex_{LockRank::kPool};
  CondVar work_cv_;
  /// Posted parallel_for jobs, oldest first. A job leaves the list once
  /// a participant finds it has no unclaimed index left.
  std::deque<std::shared_ptr<Job>> jobs_ REPRO_GUARDED_BY(mutex_);
  bool stopping_ REPRO_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace repro::common
