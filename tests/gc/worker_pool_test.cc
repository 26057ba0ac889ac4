#include "src/gc/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/gc/gc_metrics.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/util/clock.h"

namespace rolp {
namespace {

TEST(WorkerPoolTest, RunsTaskOnAllWorkers) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  pool.RunTask([&](uint32_t w) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(WorkerPoolTest, WorkerIdsAreDistinct) {
  WorkerPool pool(3);
  std::mutex mu;
  std::set<uint32_t> ids;
  pool.RunTask([&](uint32_t w) {
    std::lock_guard<std::mutex> guard(mu);
    ids.insert(w);
  });
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(ids.count(0) && ids.count(1) && ids.count(2));
}

TEST(WorkerPoolTest, SequentialTasksReusable) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; i++) {
    pool.RunTask([&](uint32_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(WorkerPoolTest, RunTaskBlocksUntilDone) {
  WorkerPool pool(2);
  std::atomic<int> done{0};
  pool.RunTask([&](uint32_t) {
    for (volatile int i = 0; i < 100000; i++) {
    }
    done.fetch_add(1);
  });
  // If RunTask returned early this could be < 2.
  EXPECT_EQ(done.load(), 2);
}

TEST(WorkerPoolTest, SingleWorkerPool) {
  WorkerPool pool(1);
  int value = 0;
  pool.RunTask([&](uint32_t w) {
    EXPECT_EQ(w, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

// One worker: the item runs on the dispatching thread (no handoff), and the
// watchdog still sees it as worker 0's current item. ParallelFor takes the
// same path.
TEST(WorkerPoolTest, SingleWorkerRunsOnCallingThread) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int64_t item_seen = -1;
  pool.RunTask([&](uint32_t w) {
    ran_on = std::this_thread::get_id();
    item_seen = pool.SnapshotWorkerActivity()[0].current_item;
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(item_seen, 0);
  EXPECT_EQ(pool.SnapshotWorkerActivity()[0].current_item, -1);
  EXPECT_EQ(pool.alive_workers(), 1u);

  size_t covered = 0;
  pool.ParallelFor(1000, 10, [&](uint32_t w, size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += end - begin;
  });
  EXPECT_EQ(covered, 1000u);
  EXPECT_EQ(pool.worker_cpu_ns(), 0u);  // on the caller's clock, not the pool's
}

// Per-phase CPU covers the GC workers, not just the thread that opened the
// phase (which sleeps in RunTask while they run).
TEST(WorkerPoolTest, PhaseScopeChargesWorkerCpu) {
  constexpr uint64_t kBurnNs = 20 * 1000 * 1000;
  WorkerPool pool(2);
  GcMetrics metrics;
  {
    WatchdogPhaseScope scope(nullptr, GcPhase::kEvacuate, nullptr, &metrics, &pool);
    pool.RunTask([&](uint32_t) {
      uint64_t start = ThreadCpuNs();
      while (ThreadCpuNs() - start < kBurnNs) {
      }
    });
  }
  EXPECT_GE(pool.worker_cpu_ns(), 2 * kBurnNs);
  EXPECT_GE(metrics.PhaseCpuNs(static_cast<size_t>(GcPhase::kEvacuate)), 2 * kBurnNs);
}

}  // namespace
}  // namespace rolp
