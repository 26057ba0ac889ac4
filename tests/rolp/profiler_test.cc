#include "src/rolp/profiler.h"

#include <gtest/gtest.h>

#include "src/heap/object.h"

namespace rolp {
namespace {

uint64_t MarkFor(uint32_t context, uint32_t age, bool biased = false) {
  uint64_t m = markword::SetContext(0, context);
  m = markword::SetAge(m, age);
  if (biased) {
    m = markword::SetBiased(m, 0x1234);
  }
  return m;
}

RolpConfig SmallConfig() {
  RolpConfig cfg;
  cfg.old_table_entries = 4096;
  cfg.inference_period = 4;
  return cfg;
}

TEST(ProfilerTest, AllocationThenSurvivorsBuildCurve) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(10, 0);
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  for (int i = 0; i < 60; i++) {
    p.OnSurvivor(0, MarkFor(ctx, 0));
  }
  p.OnGcEnd({1, 1000, PauseKind::kYoung});  // merges worker tables
  auto row = p.old_table().Row(ctx);
  EXPECT_EQ(row[0], 40u);
  EXPECT_EQ(row[1], 60u);
}

TEST(ProfilerTest, BiasedLockedSurvivorsAreDiscarded) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(10, 0);
  p.RecordAllocation(ctx);
  p.OnSurvivor(0, MarkFor(ctx, 0, /*biased=*/true));
  EXPECT_EQ(p.survivors_skipped_biased(), 1u);
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  EXPECT_EQ(p.old_table().Row(ctx)[1], 0u);
}

TEST(ProfilerTest, UnknownContextSurvivorsAreDiscarded) {
  Profiler p(SmallConfig());
  p.OnSurvivor(0, MarkFor(markword::MakeContext(99, 0), 2));
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  EXPECT_EQ(p.survivors_seen(), 0u);
}

TEST(ProfilerTest, ZeroContextIgnored) {
  Profiler p(SmallConfig());
  p.OnSurvivor(0, MarkFor(0, 3));
  EXPECT_EQ(p.survivors_seen(), 0u);
}

TEST(ProfilerTest, InferencePretenuresLongLivedContext) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(20, 0);
  // Objects that reliably survive to age 3: build the triangle directly.
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (uint32_t age = 0; age < 3; age++) {
    for (int i = 0; i < 1000; i++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
    p.OnGcEnd({age + 1, 1000, PauseKind::kYoung});
  }
  // Cycle 4 triggers inference (period 4). Peak sits at age 3.
  p.OnGcEnd({4, 1000, PauseKind::kYoung});
  EXPECT_EQ(p.inferences_run(), 1u);
  EXPECT_EQ(p.TargetGen(ctx), 3u);
}

TEST(ProfilerTest, DieYoungContextStaysYoung) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(21, 0);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  // Only a handful survive one cycle.
  for (int i = 0; i < 20; i++) {
    p.OnSurvivor(0, MarkFor(ctx, 0));
  }
  for (uint64_t c = 1; c <= 4; c++) {
    p.OnGcEnd({c, 1000, PauseKind::kYoung});
  }
  EXPECT_EQ(p.TargetGen(ctx), 0u);
}

TEST(ProfilerTest, TableClearedAfterInference) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(22, 0);
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  p.OnGcEnd({4, 1000, PauseKind::kYoung});
  auto row = p.old_table().Row(ctx);
  EXPECT_EQ(row[0], 0u);
  EXPECT_TRUE(p.old_table().Contains(ctx));
}

TEST(ProfilerTest, ConflictGrowsTableAndEngagesResolver) {
  Profiler p(SmallConfig());
  class Sites : public CallSiteControl {
   public:
    size_t NumProfilableCallSites() const override { return 10; }
    void SetCallSiteTracking(size_t i, bool e) override { on[i] = e; }
    bool CallSiteTracking(size_t i) const override { return on[i]; }
    bool on[10] = {};
  } sites;
  p.SetCallSiteControl(&sites);

  uint32_t ctx = markword::MakeContext(30, 0);
  for (int i = 0; i < 2000; i++) {
    p.RecordAllocation(ctx);
  }
  // Two triangles: many die at age 0, many at age 6.
  for (int i = 0; i < 800; i++) {
    for (uint32_t age = 0; age < 6; age++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
  }
  size_t grow_before = p.old_table().grow_count();
  p.OnGcEnd({4, 1000, PauseKind::kYoung});
  EXPECT_GT(p.conflicts_total(), 0u);
  EXPECT_EQ(p.old_table().grow_count(), grow_before + 1);
  EXPECT_EQ(p.resolver()->phase(), ConflictResolver::Phase::kTrying);
  // No decision from an ambiguous curve.
  EXPECT_EQ(p.TargetGen(ctx), 0u);

  // The same conflict reported by the next inference grows nothing more.
  uint64_t conflicts_before = p.conflicts_total();
  for (int i = 0; i < 2000; i++) {
    p.RecordAllocation(ctx);
  }
  for (int i = 0; i < 800; i++) {
    for (uint32_t age = 0; age < 6; age++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
  }
  p.OnGcEnd({8, 1000, PauseKind::kYoung});
  EXPECT_GT(p.conflicts_total(), conflicts_before);
  EXPECT_EQ(p.old_table().grow_count(), grow_before + 1);
}

TEST(ProfilerTest, SurvivorTrackingShutsOffWhenStable) {
  RolpConfig cfg = SmallConfig();
  cfg.inference_period = 2;
  Profiler p(cfg);
  EXPECT_TRUE(p.SurvivorTrackingEnabled());
  // Several inferences with no decisions (stable empty state).
  for (uint64_t c = 1; c <= 8; c++) {
    p.OnGcEnd({c, 1000000, PauseKind::kYoung});
  }
  EXPECT_FALSE(p.SurvivorTrackingEnabled());
  EXPECT_GE(p.survivor_tracking_toggles(), 1u);
}

TEST(ProfilerTest, SurvivorTrackingReenablesOnPauseRegression) {
  RolpConfig cfg = SmallConfig();
  cfg.inference_period = 2;
  Profiler p(cfg);
  for (uint64_t c = 1; c <= 8; c++) {
    p.OnGcEnd({c, 1000000, PauseKind::kYoung});
  }
  ASSERT_FALSE(p.SurvivorTrackingEnabled());
  // Pause times jump far beyond the +10% threshold.
  for (uint64_t c = 9; c <= 20; c++) {
    p.OnGcEnd({c, 30000000, PauseKind::kYoung});
    if (p.SurvivorTrackingEnabled()) {
      break;
    }
  }
  EXPECT_TRUE(p.SurvivorTrackingEnabled());
}

TEST(ProfilerTest, FragmentationDemotesGenDecisions) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(40, 0);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (uint32_t age = 0; age < 5; age++) {
    for (int i = 0; i < 1000; i++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
    p.OnGcEnd({age + 1, 1000, PauseKind::kYoung});
  }
  p.RunInferenceNow();
  ASSERT_EQ(p.TargetGen(ctx), 5u);
  // Gen 5 turns out fragmented: contexts demote by one.
  p.OnGenFragmentation(5, 0.2);
  EXPECT_EQ(p.TargetGen(ctx), 4u);
  // Healthy generation: no change.
  p.OnGenFragmentation(4, 0.9);
  EXPECT_EQ(p.TargetGen(ctx), 4u);
}

TEST(ProfilerTest, FragmentationDemotionToYoungRemovesDecision) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(41, 0);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (int i = 0; i < 1000; i++) {
    p.OnSurvivor(0, MarkFor(ctx, 0));
  }
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  p.RunInferenceNow();
  ASSERT_EQ(p.TargetGen(ctx), 1u);
  p.OnGenFragmentation(1, 0.1);
  EXPECT_EQ(p.TargetGen(ctx), 0u);
}

TEST(ProfilerTest, DemotingTheLastDecisionReenablesSurvivorTracking) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(42, 0);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (uint32_t age = 0; age < 2; age++) {
    for (int i = 0; i < 1000; i++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
    p.OnGcEnd({age + 1, 1000, PauseKind::kYoung});
  }
  p.RunInferenceNow();
  ASSERT_EQ(p.TargetGen(ctx), 2u);
  // Quiet inferences: the decision holds, so tracking shuts off as stable.
  for (uint64_t c = 3; c <= 40 && p.SurvivorTrackingEnabled(); c++) {
    p.OnGcEnd({c, 1000, PauseKind::kYoung});
  }
  ASSERT_FALSE(p.SurvivorTrackingEnabled());
  // A demotion that leaves a decision standing keeps tracking off.
  p.OnGenFragmentation(2, 0.1);
  EXPECT_EQ(p.TargetGen(ctx), 1u);
  EXPECT_FALSE(p.SurvivorTrackingEnabled());
  // Demoting the last decision away would leave the profiler blind (only
  // survivor curves raise an estimate), so tracking comes back on.
  uint64_t toggles = p.survivor_tracking_toggles();
  p.OnGenFragmentation(1, 0.1);
  EXPECT_EQ(p.TargetGen(ctx), 0u);
  EXPECT_TRUE(p.SurvivorTrackingEnabled());
  EXPECT_EQ(p.survivor_tracking_toggles(), toggles + 1);
}

TEST(ProfilerTest, FirstDecisionCycleRecordsWarmup) {
  RolpConfig cfg = SmallConfig();
  cfg.inference_period = 2;
  Profiler p(cfg);
  uint32_t ctx = markword::MakeContext(50, 0);
  EXPECT_EQ(p.first_decision_cycle(), 0u);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (int i = 0; i < 900; i++) {
    p.OnSurvivor(0, MarkFor(ctx, 0));
  }
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  p.OnGcEnd({2, 1000, PauseKind::kYoung});  // inference at cycle 2
  EXPECT_EQ(p.first_decision_cycle(), 2u);
}

TEST(ProfilerTest, ParallelWorkerTablesMergeCorrectly) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(60, 0);
  for (int i = 0; i < 300; i++) {
    p.RecordAllocation(ctx);
  }
  // Three workers each report 50 survivors.
  for (uint32_t w = 0; w < 3; w++) {
    for (int i = 0; i < 50; i++) {
      p.OnSurvivor(w, MarkFor(ctx, 0));
    }
  }
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  auto row = p.old_table().Row(ctx);
  EXPECT_EQ(row[0], 150u);
  EXPECT_EQ(row[1], 150u);
}

}  // namespace
}  // namespace rolp
