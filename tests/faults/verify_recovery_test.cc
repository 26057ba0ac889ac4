// In-pause verification + quarantine recovery: with ROLP_VERIFY=pause armed,
// injected gc/heap faults must be caught by the pause-time verifier and
// survived — the heap verifies clean again after the fault clears, and the
// process keeps allocating. The remset-drop scenario is the canonical one: a
// lost write barrier makes a young survivor invisible to the scavenger, and
// only the post-evacuation collection-set check stands between that and a
// dangling pointer.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/gc/heap_verifier.h"
#include "src/gc/regional_collector.h"
#include "src/util/fault_injection.h"
#include "src/workloads/driver.h"
#include "src/workloads/kvstore.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

// Regional collector with exhaustive in-pause verification (every pause
// checks every region), so an injected fault is caught on the very next
// collection.
struct RecoveryHarness {
  void Start(size_t heap_mb, GcConfig cfg) {
    env = std::make_unique<GcTestEnv>(heap_mb, cfg);
    env->SetCollector(
        std::make_unique<RegionalCollector>(env->heap.get(), cfg, &env->safepoints));
    VerifyOptions& vo = env->collector->mutable_verify_options();
    vo.level = VerifyLevel::kPause;
    vo.sample_period = 1;
    node_cls = env->heap->classes().RegisterInstance("Node", 24, {0});
  }

  // Linked structures + garbage churn; tolerates injected allocation failures.
  void BuildAndChurn() {
    size_t head = env->PushRoot(nullptr);
    for (int i = 0; i < 200; i++) {
      Object* n = env->AllocInstance(node_cls);
      if (n == nullptr) {
        continue;  // injected OOM: skip, keep driving
      }
      env->SetField(n, 0, env->Root(head));
      env->SetRoot(head, n);
    }
    env->ChurnYoung(16 * 1024 * 1024);
  }

  std::unique_ptr<GcTestEnv> env;
  ClassId node_cls = 0;
};

class VerifyRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }

  FaultInjection& fi() { return FaultInjection::Instance(); }

  RecoveryHarness h_;
};

// Acceptance scenario: an injected remembered-set drop is caught by
// post-evacuation verification and survived via region quarantine; the
// process keeps serving.
TEST_F(VerifyRecoveryTest, DroppedRemsetIsCaughtAndSurvivedViaQuarantine) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  h_.Start(32, cfg);
  GcTestEnv& env = *h_.env;

  // Promote an anchor array to the old generation.
  size_t ra = env.PushRoot(env.AllocRefArray(64));
  env.ChurnYoung(12 * 1024 * 1024);
  ASSERT_EQ(env.heap->regions().RegionFor(env.Root(ra))->kind(), RegionKind::kOld);

  // Lost write barrier: old->young edges are never recorded, so the young
  // objects below are invisible to the next scavenge's remset scan.
  fi().ArmAlways("heap.remset.drop");
  for (uint64_t i = 0; i < 64; i++) {
    Object* young = env.AllocInstance(h_.node_cls);
    if (young != nullptr) {
      env.SetElem(env.Root(ra), i, young);
    }
  }
  env.ChurnYoung(12 * 1024 * 1024);  // forces young collections
  fi().Disarm("heap.remset.drop");

  const VerifyStats& vs = env.collector->verify_stats();
  EXPECT_GT(fi().Fires("heap.remset.drop"), 0u);
  EXPECT_GT(vs.passes, 0u);
  EXPECT_GT(vs.findings, 0u);  // the dropped edge was detected in-pause
  // ...and recovered from: the doomed region was quarantined instead of freed
  // (or every stale reference was healed to its forwarding target).
  EXPECT_GT(vs.regions_quarantined + vs.refs_healed, 0u);

  // The process keeps serving: reads through the anchor stay safe, fresh
  // allocation works, and further collections complete.
  for (uint64_t i = 0; i < 64; i++) {
    Object* o = env.GetElem(env.Root(ra), i);
    if (o != nullptr) {
      ASSERT_NE(env.heap->regions().RegionFor(o), nullptr);
    }
  }
  EXPECT_NE(env.AllocInstance(h_.node_cls), nullptr);
  env.ChurnYoung(4 * 1024 * 1024);

  // Full compaction rehabilitates walkable quarantined regions (liveness is
  // recomputed from roots; remsets are rebuilt), leaving a clean heap.
  env.collector->CollectFull(&env.ctx);
  HeapVerifier verifier(env.heap.get(), &env.safepoints);
  auto report = verifier.Verify();
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
}

// Evacuation failure retires the failed young region in place, dead objects
// included, and those dead objects reference young objects the pause does
// not reach. The pause scans them like any tenured slot, so nothing in the
// retired region references a region the pause frees: the post-evacuation
// check reports nothing and quarantines nothing.
TEST_F(VerifyRecoveryTest, EvacuationFailureRegionReferencesNoFreedRegion) {
  GcConfig cfg;
  cfg.num_workers = 1;
  cfg.mixed_trigger_occupancy = 2.0;  // young pauses only
  h_.Start(32, cfg);
  GcTestEnv& env = *h_.env;
  RegionManager& regions = env.heap->regions();

  // Young nodes over several eden regions, each pointing about 1.2 MB back:
  // every node of the last region references an earlier region.
  constexpr uint64_t kNodes = 60000;
  constexpr uint64_t kStride = 30000;
  size_t arr = env.PushRoot(env.AllocRefArray(kNodes));
  for (uint64_t i = 0; i < kNodes; i++) {
    Object* n = env.AllocInstance(h_.node_cls);
    ASSERT_NE(n, nullptr);
    if (i >= kStride) {
      env.SetField(n, 0, env.GetElem(env.Root(arr), i - kStride));
    }
    env.SetElem(env.Root(arr), i, n);
  }
  Object* tail = env.GetElem(env.Root(arr), kNodes - 1);
  Region* failing = regions.RegionFor(tail);
  ASSERT_NE(regions.RegionFor(env.GetField(tail, 0)), failing);
  // Only the tail (and the chain behind it) stays live: it is the pause's
  // first copy, and the first to-space region fails, so the tail
  // self-forwards and its region is retired with the other nodes dead in it.
  env.PushRoot(tail);
  env.SetRoot(arr, nullptr);
  fi().ArmOnceAtHit("heap.region.oom", 1);
  ASSERT_TRUE(static_cast<RegionalCollector*>(env.collector.get())->CollectNow(&env.ctx));
  fi().Disarm("heap.region.oom");

  EXPECT_EQ(fi().Fires("heap.region.oom"), 1u);
  EXPECT_GT(env.PausesOfKind(PauseKind::kFull), 0u);  // the failure escalated
  const VerifyStats& vs = env.collector->verify_stats();
  EXPECT_GT(vs.passes, 0u);
  EXPECT_EQ(vs.findings, 0u);
  EXPECT_EQ(vs.regions_quarantined, 0u);
  HeapVerifier verifier(env.heap.get(), &env.safepoints);
  EXPECT_TRUE(verifier.Verify().ok());
}

// --- Quarantine pinning across collection kinds -----------------------------
// An unscannable quarantined region holds references that can never be
// rescanned or healed, so every region it references — old regions through
// the remset entries naming it (simulated below by seeding the remset
// directly), young regions through its slot bits — must be pinned: kept in
// place by full compaction, never selected as a mixed-collection candidate,
// and — when young — retired in place with its outgoing edges re-recorded.

// Allocates a fresh old region holding one node, simulating a region whose
// objects are referenced only from the unscannable region `u`.
Object* MakePinnedVictim(GcTestEnv& env, ClassId cls, Region* u, Region** out_region) {
  RegionManager& regions = env.heap->regions();
  Region* r = regions.AllocateRegion(RegionKind::kOld);
  if (r == nullptr) {
    return nullptr;
  }
  size_t bytes = env.heap->InstanceAllocSize(cls);
  Object* victim = env.heap->InitializeObject(r->BumpAlloc(bytes), cls, bytes, 0, 0);
  r->RemsetAddRegion(u->index());
  *out_region = r;
  return victim;
}

TEST_F(VerifyRecoveryTest, UnscannablePinSurvivesFullCompaction) {
  h_.Start(32, GcConfig{});
  GcTestEnv& env = *h_.env;
  RegionManager& regions = env.heap->regions();

  Region* u = regions.AllocateRegion(RegionKind::kOld);
  ASSERT_NE(u, nullptr);
  regions.Quarantine(u, /*walkable=*/false);

  Region* rv = nullptr;
  Object* victim = MakePinnedVictim(env, h_.node_cls, u, &rv);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(regions.PinnedByQuarantine(rv));

  // Two full compactions: the first must pin rv in place even though the
  // victim is unreachable from roots; the second proves the pinning remset
  // entry survived the first cycle's remset rebuild.
  for (int i = 0; i < 2; i++) {
    env.collector->CollectFull(&env.ctx);
    ASSERT_FALSE(rv->IsFree()) << "cycle " << i;
    EXPECT_EQ(reinterpret_cast<char*>(victim), rv->begin()) << "cycle " << i;
    EXPECT_EQ(victim->class_id, h_.node_cls) << "cycle " << i;
    EXPECT_TRUE(rv->RemsetContainsRegion(u->index())) << "cycle " << i;
    EXPECT_TRUE(regions.PinnedByQuarantine(rv)) << "cycle " << i;
  }
}

TEST_F(VerifyRecoveryTest, PinnedRegionNeverMixedCollectionCandidate) {
  GcConfig cfg;
  cfg.mixed_trigger_occupancy = 0.0;  // every pause is a mixed collection
  h_.Start(32, cfg);
  GcTestEnv& env = *h_.env;
  RegionManager& regions = env.heap->regions();

  Region* u = regions.AllocateRegion(RegionKind::kOld);
  ASSERT_NE(u, nullptr);
  regions.Quarantine(u, /*walkable=*/false);

  Region* rv = nullptr;
  Object* victim = MakePinnedVictim(env, h_.node_cls, u, &rv);
  ASSERT_NE(victim, nullptr);

  // The victim is unreachable from roots, so marking leaves rv almost empty —
  // the emptiest possible evacuation candidate. Pinning must win.
  env.ChurnYoung(12 * 1024 * 1024);
  ASSERT_FALSE(rv->IsFree());
  EXPECT_EQ(reinterpret_cast<char*>(victim), rv->begin());
  EXPECT_EQ(victim->class_id, h_.node_cls);
  EXPECT_TRUE(regions.PinnedByQuarantine(rv));
}

TEST_F(VerifyRecoveryTest, PinnedYoungRetirementRecordsOutgoingEdges) {
  h_.Start(32, GcConfig{});
  GcTestEnv& env = *h_.env;
  RegionManager& regions = env.heap->regions();

  Region* u = regions.AllocateRegion(RegionKind::kOld);
  ASSERT_NE(u, nullptr);
  size_t bytes = env.heap->InstanceAllocSize(h_.node_cls);
  Object* u_holder = env.heap->InitializeObject(u->BumpAlloc(bytes), h_.node_cls, bytes, 0, 0);
  regions.Quarantine(u, /*walkable=*/false);

  // z young; y young in a different region with y->z (a young-to-young edge,
  // which the write barrier never records). Neither is rooted: z is reachable
  // only through y, and y only through the unscannable region u, whose slot
  // bit records the edge u -> y.
  Object* z = env.AllocInstance(h_.node_cls);
  ASSERT_NE(z, nullptr);
  Region* rz = regions.RegionFor(z);
  Object* y = nullptr;
  Region* ry = rz;
  while (ry == rz) {  // roll the TLAB into the next eden region
    y = env.AllocInstance(h_.node_cls);
    ASSERT_NE(y, nullptr);
    ry = regions.RegionFor(y);
  }
  env.SetField(y, 0, z);
  env.SetField(u_holder, 0, y);
  ASSERT_TRUE(u->HasYoungSlot(u_holder->RefSlotAt(0)));
  EXPECT_EQ(ry->RemsetRegionCount(), 0u);
  ASSERT_TRUE(regions.PinnedByQuarantine(ry));

  env.ChurnYoung(12 * 1024 * 1024);  // at least one young collection

  // ry was retired in place, and its edge into the collection set was
  // re-recorded at retirement: the scavenge discovered z through it, so y's
  // field points at a live relocated object, not into a freed region.
  EXPECT_FALSE(ry->IsYoung());
  ASSERT_FALSE(ry->IsFree());
  // Retired to old, the region stays pinned by a remset entry.
  EXPECT_TRUE(ry->RemsetContainsRegion(u->index()));
  EXPECT_TRUE(regions.PinnedByQuarantine(ry));
  EXPECT_EQ(y->class_id, h_.node_cls);
  Object* z2 = env.GetField(y, 0);
  ASSERT_NE(z2, nullptr);
  EXPECT_FALSE(regions.RegionFor(z2)->IsFree());
  EXPECT_EQ(z2->class_id, h_.node_cls);
}

// Every gc/heap catalog point, armed at a recurring cadence while the
// workload churns through collections with exhaustive in-pause verification:
// after the fault clears and one full compaction runs, the heap must verify
// clean and allocation must still succeed.
class FaultPointRecoveryTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }

  RecoveryHarness h_;
};

TEST_P(FaultPointRecoveryTest, HeapVerifiesCleanAfterRecovery) {
  GcConfig cfg;
  cfg.tenuring_threshold = 2;
  h_.Start(32, cfg);

  FaultInjection::Instance().ArmEveryNth(GetParam(), 3);
  h_.BuildAndChurn();
  FaultInjection::Instance().Reset();  // fault clears

  h_.env->collector->CollectFull(&h_.env->ctx);
  HeapVerifier verifier(h_.env->heap.get(), &h_.env->safepoints);
  auto report = verifier.Verify();
  EXPECT_TRUE(report.ok()) << GetParam() << ": " << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_NE(h_.env->AllocInstance(h_.node_cls), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    GcAndHeapCatalog, FaultPointRecoveryTest,
    ::testing::Values("heap.region.oom", "heap.humongous.oom", "heap.tlab.alloc",
                      "heap.remset.drop", "gc.collect.skip", "gc.pause.inflate",
                      "gc.phase.mark.stall", "gc.phase.evacuate.stall",
                      "gc.phase.compact.stall", "gc.verify.stall", "gc.worker.stall",
                      "gc.worker.die"));

// End-to-end: a real workload under a lost-barrier fault with in-pause
// verification on. The VM must finish the run normally — every detection is
// absorbed by quarantine/degraded-mode recovery, never a crash.
TEST(ChaosServiceTest, KvStoreKeepsServingUnderRemsetDropWithVerify) {
  FaultInjection::Instance().Reset();
  setenv("ROLP_VERIFY", "pause", 1);
  setenv("ROLP_VERIFY_SAMPLE", "1", 1);
  std::string error;
  ASSERT_TRUE(FaultInjection::Instance().ParseSpec("heap.remset.drop=every:4", &error))
      << error;

  VmConfig cfg;
  cfg.heap_mb = 48;
  cfg.gc = GcKind::kRolp;
  KvStoreOptions opt;
  opt.seed = 42;
  KvStoreWorkload workload(opt);
  DriverOptions driver;
  driver.threads = 2;
  driver.duration_s = 0.75;
  RunResult result = RunWorkload(cfg, workload, driver);

  uint64_t barrier_hits = FaultInjection::Instance().Hits("heap.remset.drop");
  unsetenv("ROLP_VERIFY");
  unsetenv("ROLP_VERIFY_SAMPLE");
  FaultInjection::Instance().Reset();

  EXPECT_GT(result.ops, 0u);  // reaching here at all = no crash; ops = served
  EXPECT_GT(result.gc_cycles, 0u);
  EXPECT_GT(result.verify_passes, 0u);
  // Sanitizer builds run this workload 4-20x slower; a 0.75 s run may end
  // before any old->young store reaches the write barrier at all. The fire
  // expectation is only meaningful once the armed point has enough hits.
  if (barrier_hits >= 4) {
    EXPECT_GT(result.fault_fires, 0u);
  }
}

}  // namespace
}  // namespace rolp
