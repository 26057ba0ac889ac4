// Market-data ingest pipeline (DESIGN.md §16): feed determinism, wire-parse
// validation, cross-arm book-state parity, VM-arm smoke, and the
// governor-throttle-under-GC regression for the pipeline threads.
#include "src/workloads/marketdata/pipeline.h"

#include <sched.h>

#include <cstdlib>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/proc_stats.h"
#include "src/workloads/marketdata/book.h"
#include "src/workloads/marketdata/feed.h"

namespace rolp {
namespace marketdata {
namespace {

// Small, fast pipeline settings: the point is semantics, not tail latency.
IngestOptions FastOptions() {
  IngestOptions o;
  o.events = 20000;
  o.rate_eps = 2e6;  // effectively unpaced: gap 0.5us, drains at CPU speed
  o.warmup_fraction = 0.2;
  o.heap_mb = 64;
  o.mode = PipelineMode::kFused;  // deterministic on any core count
  return o;
}

// kAuto counts the CPUs the process may run on, not the machine's: pinned to
// one CPU, the pipeline fuses its stages.
TEST(PipelineModeTest, AutoCountsAllowedCpus) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) {
    cpu++;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);  // this thread only
  EXPECT_EQ(AllowedCpuCount(), 1u);
  EXPECT_EQ(ResolveMode(PipelineMode::kAuto), PipelineMode::kFused);
  EXPECT_EQ(ResolveMode(PipelineMode::kThreaded), PipelineMode::kThreaded);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(AllowedCpuCount(), static_cast<unsigned>(CPU_COUNT(&saved)));
}

TEST(FeedGeneratorTest, DeterministicForSeed) {
  FeedGenerator a(1234), b(1234), c(9999);
  bool saw_divergence_from_c = false;
  for (int i = 0; i < 10000; i++) {
    RawMsg ma, mb, mc;
    a.Next(&ma);
    b.Next(&mb);
    c.Next(&mc);
    ASSERT_EQ(0, std::memcmp(&ma, &mb, sizeof(RawMsg))) << "message " << i;
    saw_divergence_from_c =
        saw_divergence_from_c || std::memcmp(&ma, &mc, sizeof(RawMsg)) != 0;
  }
  EXPECT_TRUE(saw_divergence_from_c) << "different seeds produced one stream";
  EXPECT_EQ(a.live_orders(), b.live_orders());
}

TEST(FeedGeneratorTest, LiveOrderWindowStaysBounded) {
  FeedOptions fopt;
  fopt.max_live_orders = 64;
  FeedGenerator gen(42, fopt);
  RawMsg m;
  for (int i = 0; i < 5000; i++) {
    gen.Next(&m);
    ASSERT_LE(gen.live_orders(), 64u);
  }
  EXPECT_GT(gen.live_orders(), 0u);
}

TEST(FeedParseTest, RoundTripAndCorruptionRejected) {
  FeedGenerator gen(7);
  RawMsg m;
  gen.Next(&m);
  ParsedEvent ev;
  ASSERT_TRUE(ParseMsg(m, &ev));
  EXPECT_EQ(ev.order_id, m.order_id);
  EXPECT_EQ(ev.price, m.price);
  EXPECT_EQ(ev.size, m.size);
  EXPECT_EQ(ev.symbol, m.symbol);
  EXPECT_EQ(static_cast<uint8_t>(ev.type), m.type);

  RawMsg bad_magic = m;
  bad_magic.magic ^= 0xffff;
  EXPECT_FALSE(ParseMsg(bad_magic, &ev));

  RawMsg bad_sum = m;
  bad_sum.size ^= 1;  // payload changed, checksum not recomputed
  EXPECT_FALSE(ParseMsg(bad_sum, &ev));
}

// The deterministic feed plus the shared book semantics give a cross-arm
// oracle: the pooled-manual book and the GC'd book must end the run with an
// identical fold checksum and identical resting state, or one of the arms
// corrupted an update.
TEST(MarketDataPipelineTest, PooledAndVmArmsAgreeOnBookState) {
  IngestOptions o = FastOptions();
  IngestResult pooled = RunIngest(ArmKind::kPooled, o);
  IngestResult g1 = RunIngest(ArmKind::kG1, o);

  ASSERT_TRUE(pooled.survived);
  ASSERT_TRUE(g1.survived);
  EXPECT_EQ(pooled.analyzed, o.events);
  EXPECT_EQ(g1.analyzed, o.events);
  EXPECT_EQ(pooled.book.checksum, g1.book.checksum);
  EXPECT_EQ(pooled.book.resting_orders, g1.book.resting_orders);
  EXPECT_EQ(pooled.book.live_levels, g1.book.live_levels);
  EXPECT_EQ(pooled.book.applied, g1.book.applied);
  // The pooled arm's conservation law at quiescence: the only objects still
  // held out of the pools are exactly the resting book state. (Teardown then
  // drains those too — ASan would flag anything the destructor missed.)
  EXPECT_EQ(pooled.book.pool_orders_outstanding, pooled.book.resting_orders);
  EXPECT_EQ(pooled.book.pool_levels_outstanding, pooled.book.live_levels);
}

TEST(MarketDataPipelineTest, RolpArmSmokes) {
  IngestOptions o = FastOptions();
  IngestResult r = RunIngest(ArmKind::kRolp, o);
  ASSERT_TRUE(r.survived);
  EXPECT_EQ(r.analyzed, o.events);
  EXPECT_EQ(r.parse_drops, 0u);
  EXPECT_EQ(r.book_drops, 0u);
  EXPECT_GT(r.book.applied, 0u);
  EXPECT_GT(r.alloc_ns_per_event, 0.0);
}

TEST(MarketDataPipelineTest, ThreadedModeMatchesFusedSemantics) {
  IngestOptions o = FastOptions();
  o.events = 10000;
  IngestResult fused = RunIngest(ArmKind::kPooled, o);
  o.mode = PipelineMode::kThreaded;
  IngestResult threaded = RunIngest(ArmKind::kPooled, o);
  ASSERT_TRUE(fused.survived);
  ASSERT_TRUE(threaded.survived);
  EXPECT_EQ(fused.book.checksum, threaded.book.checksum);
  EXPECT_EQ(fused.book.resting_orders, threaded.book.resting_orders);
  EXPECT_EQ(fused.analyzed, threaded.analyzed);
}

// Governor-throttle-under-GC regression: with the throttle watermark forced
// low on a small heap, pipeline threads hit the governor's stall rung inside
// the allocation slow path *while* collections run. The stall sits in a safe
// region (thread.cc), so a concurrent pause must never deadlock against a
// throttled pipeline thread — the regression here is "the run completes at
// all"; the stall counter proves the rung actually fired.
TEST(MarketDataPipelineTest, GovernorThrottleUnderGcCompletes) {
  setenv("ROLP_GOV_THROTTLE_WATERMARK", "0.05", 1);
  setenv("ROLP_GOV_GC_WATERMARK", "0.03", 1);
  setenv("ROLP_GOV_THROTTLE_US", "100", 1);
  IngestOptions o = FastOptions();
  o.events = 15000;
  o.heap_mb = 48;
  // Real pipeline threads (the regression target), not the fused fallback.
  o.mode = PipelineMode::kThreaded;
  IngestResult r = RunIngest(ArmKind::kG1, o);
  unsetenv("ROLP_GOV_THROTTLE_WATERMARK");
  unsetenv("ROLP_GOV_GC_WATERMARK");
  unsetenv("ROLP_GOV_THROTTLE_US");

  ASSERT_TRUE(r.survived) << "pipeline wedged under governor throttle";
  EXPECT_EQ(r.analyzed, o.events);
  EXPECT_GT(r.governor_throttle_stalls, 0u)
      << "throttle rung never fired: watermark override did not take";
  EXPECT_GT(r.gc_pauses, 0u) << "no GC ran: the test did not exercise "
                                "throttle-during-collection at all";
}

TEST(IngestVerdictTest, JsonCarriesArmsAndTailGate) {
  IngestOptions o = FastOptions();
  IngestResult a;
  a.arm = ArmKind::kG1;
  a.survived = true;
  a.p999_ns = 4000000;
  IngestResult b;
  b.arm = ArmKind::kRolp;
  b.survived = true;
  b.p999_ns = 3000000;
  std::string json = IngestVerdictJson({a, b}, o);
  EXPECT_NE(json.find("\"g1\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rolp\":{"), std::string::npos);
  EXPECT_NE(json.find("\"rolp_tail_ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);

  b.p999_ns = 5000000;  // rolp tail regresses past g1
  json = IngestVerdictJson({a, b}, o);
  EXPECT_NE(json.find("\"rolp_tail_ok\":false"), std::string::npos);

  a.survived = false;
  json = IngestVerdictJson({a, b}, o);
  EXPECT_NE(json.find("\"pass\":false"), std::string::npos);
}

}  // namespace
}  // namespace marketdata
}  // namespace rolp
