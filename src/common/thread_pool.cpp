#include "repro/common/thread_pool.hpp"

#include <utility>

#include "repro/common/ensure.hpp"

namespace repro::common {

void ThreadPool::Job::drain() {
  while (true) {
    // relaxed: each index is claimed exactly once by atomicity
    // alone; the acq_rel count below orders the results.
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= limit) return;
    try {
      body(i);
    } catch (...) {
      MutexLock lock(done_mutex);
      if (!error) error = std::current_exception();
    }
    // acq_rel: releases this index's writes and, through the chain of
    // increments, acquires every other's for the last finisher, whose
    // done_mutex section then publishes them all to the caller.
    if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == limit) {
      MutexLock lock(done_mutex);
      done = true;
      done_cv.notify_all();
    }
  }
}

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_threads() : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mutex_);
      work_cv_.wait(mutex_, [this]() REPRO_REQUIRES(mutex_) {
        return stopping_ || !jobs_.empty();
      });
      if (stopping_) return;
      job = jobs_.front();
    }
    job->drain();
    MutexLock lock(mutex_);
    std::erase(jobs_, job);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  REPRO_ENSURE(static_cast<bool>(body), "empty body");

  const auto job = std::make_shared<Job>(body, n);
  {
    MutexLock lock(mutex_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();
  job->drain();
  {
    MutexLock lock(mutex_);
    std::erase(jobs_, job);
  }

  MutexLock lock(job->done_mutex);
  job->done_cv.wait(job->done_mutex, [&]() REPRO_REQUIRES(job->done_mutex) {
    return job->done;
  });
  // Taken out of the job: a worker may drop the last reference to the
  // job later, and must not be the one to release the exception the
  // caller is handling.
  if (job->error) std::rethrow_exception(std::exchange(job->error, nullptr));
}

}  // namespace repro::common
