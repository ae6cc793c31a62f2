// Tests for the thread pool behind ModelEngine batches.
#include "repro/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace repro::common {
namespace {

TEST(ThreadPool, ReportsRequestedSize) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // 0 = hardware concurrency
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> visits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
  }
}

// The engine's batches write plain (non-atomic) results from the
// workers and read them on the caller once parallel_for returns; under
// the thread sanitizer this is the check that the return publishes them.
TEST(ThreadPool, ParallelForPublishesPlainWritesToTheCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::size_t> out(257, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i + 1; });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], i * i + 1) << "index " << i << " round " << round;
  }
}

// ModelEngine lets several threads run predict_batch at once, so one
// pool serves several parallel_for jobs at a time.
TEST(ThreadPool, ConcurrentCallersEachSeeEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 513;
  std::vector<int> failures(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&pool, &failures, c] {
      for (int round = 0; round < 100; ++round) {
        std::vector<std::atomic<int>> visits(kN);
        pool.parallel_for(kN, [&](std::size_t i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kN; ++i)
          if (visits[i].load(std::memory_order_relaxed) != 1) ++failures[c];
      }
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c)
    EXPECT_EQ(failures[c], 0) << "caller " << c;
}

TEST(ThreadPool, ParallelForOnEmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 13) throw std::runtime_error("boom at 13");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 13");
  }
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, PoolStaysUsableAfterAThrowingParallelFor) {
  // The error slot lives in the per-call job, so one poisoned
  // loop must not leak state into the next one on the same pool.
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64, [](std::size_t) {
        throw std::runtime_error("poisoned");
      }),
      std::runtime_error);
  std::atomic<int> clean{0};
  pool.parallel_for(64, [&](std::size_t) {
    clean.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(clean.load(), 64);
}

}  // namespace
}  // namespace repro::common
