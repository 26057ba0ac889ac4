#include "src/gc/stealable_queue.h"

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace rolp {
namespace {

TEST(StealableQueueTest, OwnerPushPopIsLifo) {
  StealableTaskQueue<int> q;
  for (int i = 0; i < 10; i++) {
    q.Push(i);
  }
  int v = -1;
  for (int i = 9; i >= 0; i--) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_TRUE(q.Empty());
}

TEST(StealableQueueTest, StealTakesOldestFirst) {
  StealableTaskQueue<int> q;
  for (int i = 0; i < 10; i++) {
    q.Push(i);
  }
  int v = -1;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(q.Steal(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Steal(&v));
}

TEST(StealableQueueTest, EmptyQueueYieldsNothing) {
  StealableTaskQueue<int> q;
  int v = 0;
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_FALSE(q.Steal(&v));
  EXPECT_TRUE(q.Empty());
}

TEST(StealableQueueTest, GrowthPreservesPendingItems) {
  StealableTaskQueue<int> q(/*initial_capacity=*/8);
  size_t cap0 = q.capacity();
  constexpr int kItems = 1000;
  for (int i = 0; i < kItems; i++) {
    q.Push(i);
  }
  EXPECT_GT(q.capacity(), cap0);
  std::vector<bool> seen(kItems, false);
  int v = -1;
  for (int i = 0; i < kItems; i++) {
    ASSERT_TRUE(q.Pop(&v));
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kItems);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_FALSE(q.Pop(&v));
}

// The last-element race: when one item remains, the owner's Pop and a thief's
// Steal CAS for it — exactly one side may win, never both, never neither.
TEST(StealableQueueTest, LastElementGoesToExactlyOneSide) {
  constexpr int kRounds = 300;
  StealableTaskQueue<int> q;
  for (int round = 0; round < kRounds; round++) {
    q.Push(round);
    std::atomic<int> thief_got{0};
    std::thread thief([&] {
      int v = -1;
      if (q.Steal(&v)) {
        EXPECT_EQ(v, round);
        thief_got.store(1, std::memory_order_relaxed);
      }
    });
    int v = -1;
    int owner_got = q.Pop(&v) ? 1 : 0;
    if (owner_got) {
      EXPECT_EQ(v, round);
    }
    thief.join();
    EXPECT_EQ(owner_got + thief_got.load(std::memory_order_relaxed), 1);
    EXPECT_TRUE(q.Empty());
  }
}

// Owner pushes and pops concurrently with two thieves; every pushed item must
// be claimed exactly once across the three threads.
TEST(StealableQueueTest, ConcurrentStealersClaimEachItemOnce) {
  constexpr int kItems = 20000;
  StealableTaskQueue<int> q(/*initial_capacity=*/64);  // force growth under load
  std::vector<std::atomic<int>> claims(kItems);
  std::atomic<bool> done_pushing{false};

  auto claim = [&](int v) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kItems);
    claims[v].fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < 2; t++) {
    thieves.emplace_back([&] {
      int v = -1;
      while (!done_pushing.load(std::memory_order_acquire) || !q.Empty()) {
        if (q.Steal(&v)) {
          claim(v);
        }
      }
    });
  }
  // Owner interleaves pushes with occasional pops (the GC drain does both).
  int v = -1;
  for (int i = 0; i < kItems; i++) {
    q.Push(i);
    if (i % 7 == 0 && q.Pop(&v)) {
      claim(v);
    }
  }
  done_pushing.store(true, std::memory_order_release);
  while (q.Pop(&v)) {
    claim(v);
  }
  for (auto& th : thieves) {
    th.join();
  }
  for (int i = 0; i < kItems; i++) {
    EXPECT_EQ(claims[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
}

// Termination protocol: outstanding hits zero only when every item — including
// ones published by other workers mid-drain — has been processed. Each seed of
// value d expands into a binary tree of depth d pushed onto the claiming
// worker's own deque, so work migrates between queues while others drain.
TEST(WorkStealingPoolTest, TerminationCountsInFlightExpansion) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kSeedsPerWorker = 50;
  constexpr int kDepth = 4;
  // Nodes per seed tree: 2^(kDepth+1) - 1.
  constexpr int kExpected = kWorkers * kSeedsPerWorker * ((1 << (kDepth + 1)) - 1);

  WorkStealingPool<int> pool(kWorkers);
  std::atomic<int> processed{0};

  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWorkers; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kSeedsPerWorker; i++) {
        pool.Push(w, kDepth);
      }
      int v = -1;
      for (;;) {
        if (pool.TryGet(w, &v)) {
          processed.fetch_add(1, std::memory_order_relaxed);
          if (v > 0) {
            pool.Push(w, v - 1);
            pool.Push(w, v - 1);
          }
          pool.FinishOne();
        } else if (pool.Done()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(processed.load(std::memory_order_relaxed), kExpected);
  EXPECT_TRUE(pool.Done());
}

// AddOutstanding models scan units finished outside the deques (cursor-claimed
// root chunks): Done() must stay false until those are finished too.
TEST(WorkStealingPoolTest, ExternalUnitsBlockTermination) {
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(3);
  EXPECT_FALSE(pool.Done());
  pool.Push(0, 42);
  pool.FinishOne();  // one external unit
  pool.FinishOne();  // second external unit
  EXPECT_FALSE(pool.Done());
  int v = -1;
  EXPECT_TRUE(pool.TryGet(1, &v));  // worker 1 steals worker 0's item
  EXPECT_EQ(v, 42);
  pool.FinishOne();  // the queued item
  EXPECT_FALSE(pool.Done());
  pool.FinishOne();  // last external unit
  EXPECT_TRUE(pool.Done());
}

// An idle worker parks instead of spinning: while the only other worker
// holds its last unit for 60 ms, the idle one burns a small fraction of that
// in CPU, and a Push wakes it to take the published item.
TEST(WorkStealingPoolTest, IdleWorkerParksAndWakesOnPush) {
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(1);  // the busy worker's unit
  std::atomic<int> taken{-1};
  uint64_t idle_cpu_ns = 0;
  std::thread idle([&] {
    timespec c0;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
    uint32_t rounds = 0;
    int v = -1;
    while (!pool.Done()) {
      if (pool.TryGet(1, &v)) {
        taken.store(v);
        rounds = 0;
        pool.FinishOne();
        continue;
      }
      pool.Idle(&rounds);
    }
    timespec c1;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
    idle_cpu_ns = static_cast<uint64_t>(c1.tv_sec - c0.tv_sec) * 1000000000ull +
                  static_cast<uint64_t>(c1.tv_nsec - c0.tv_nsec);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  pool.Push(0, 7);  // worker 0 publishes an item, then finishes its unit
  for (int i = 0; i < 2000 && taken.load() < 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.FinishOne();
  idle.join();
  EXPECT_EQ(taken.load(), 7);
  EXPECT_TRUE(pool.Done());
  EXPECT_LT(idle_cpu_ns, 20ull * 1000 * 1000);
}

}  // namespace
}  // namespace rolp
