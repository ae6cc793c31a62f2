// Tests for the run-time lock-rank check in common::Mutex: nesting in
// rank order runs, every other nesting aborts naming both ranks.
#include "repro/common/mutex.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace repro::common {
namespace {

// The condvar scenarios start threads, and the default "fast" death
// test style forks a parent that may have threads of its own.
void use_threadsafe_death_tests() {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
}

TEST(LockRank, InOrderNestingRuns) {
  Mutex shard(LockRank::kShard);
  Mutex coordinator(LockRank::kCoordinator);
  Mutex builder(LockRank::kEngineBuilder);
  Mutex journal(LockRank::kJournal);
  Mutex ring(LockRank::kIngressRing);
  Mutex pool(LockRank::kPool);
  Mutex job(LockRank::kPoolJob);
  for (int round = 0; round < 2; ++round) {
    MutexLock a(shard);
    MutexLock b(coordinator);
    MutexLock c(builder);
    MutexLock d(journal);
    MutexLock e(ring);
    MutexLock f(pool);
    MutexLock g(job);
  }
  // Skipping ranks is in order too.
  MutexLock a(shard);
  MutexLock g(job);
}

TEST(LockRank, ReversedNestingDies) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Mutex coordinator(LockRank::kCoordinator);
        Mutex journal(LockRank::kJournal);
        MutexLock outer(journal);
        MutexLock inner(coordinator);
      },
      "acquiring kCoordinator while holding kJournal");
}

// Two shards locked together is the cross-shard deadlock shape.
TEST(LockRank, SameRankNestingDies) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Mutex one(LockRank::kShard);
        Mutex two(LockRank::kShard);
        MutexLock outer(one);
        MutexLock inner(two);
      },
      "acquiring kShard while holding kShard");
}

TEST(LockRank, NonNestedAcquisitionsRunInAnyOrder) {
  Mutex shard(LockRank::kShard);
  Mutex journal(LockRank::kJournal);
  Mutex job(LockRank::kPoolJob);
  { MutexLock lock(job); }
  { MutexLock lock(journal); }
  { MutexLock lock(shard); }
  {
    MutexLock outer(journal);
    MutexLock inner(job);
  }
  // Releasing the nest leaves nothing held: the lowest rank is free.
  MutexLock lock(shard);
}

// Another thread takes the waiter's mutex while it is parked. The
// waiter's own record of what it holds must come through the wait.
void wait_out_a_rival(Mutex& mutex) REPRO_REQUIRES(mutex) {
  CondVar cv;
  bool touched = false;
  // The rival can take the mutex only once the wait has released it.
  std::thread rival([&] {
    MutexLock theirs(mutex);
    touched = true;
    cv.notify_all();
  });
  cv.wait(mutex, [&] { return touched; });
  rival.join();
}

TEST(LockRank, CondVarWaiterKeepsItsRanksAcrossTheWait) {
  use_threadsafe_death_tests();
  Mutex coordinator(LockRank::kCoordinator);
  Mutex journal(LockRank::kJournal);
  Mutex shard(LockRank::kShard);
  {
    MutexLock lock(coordinator);
    wait_out_a_rival(coordinator);
    MutexLock higher(journal);
  }
  EXPECT_DEATH(
      {
        MutexLock lock(coordinator);
        wait_out_a_rival(coordinator);
        MutexLock lower(shard);
      },
      "acquiring kShard while holding kCoordinator");
}

// A wait re-acquires its mutex; doing so under a higher rank is the
// reversed nesting in disguise.
TEST(LockRank, CondVarWaitBelowTheTopDies) {
  use_threadsafe_death_tests();
  EXPECT_DEATH(
      {
        Mutex coordinator(LockRank::kCoordinator);
        Mutex journal(LockRank::kJournal);
        CondVar cv;
        MutexLock outer(coordinator);
        MutexLock inner(journal);
        cv.wait(coordinator, [] { return true; });
      },
      "acquiring kCoordinator while holding kJournal");
}

}  // namespace
}  // namespace repro::common
