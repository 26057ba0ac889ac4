// Concurrent evacuation (DESIGN.md section 14): copy outside the pause,
// leaving only the root-scan arming pause and the final remap pause STW.
// Covers the single-threaded happy path, the NG2C whole-region fast path,
// the mutator-vs-GC copy-on-first-touch race (run under tsan in CI),
// mid-flight cancellation falling back to the STW full collection, and
// parity with the STW pause, which runs the same evacuation pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/gc/evacuation.h"
#include "src/gc/regional_collector.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics_registry.h"
#include "src/util/random.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

class ConcurrentEvacTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }

  void Start(size_t heap_mb, GcConfig cfg, bool concurrent = true) {
    cfg.concurrent_evac = concurrent;
    env_ = std::make_unique<GcTestEnv>(heap_mb, cfg);
    env_->SetCollector(
        std::make_unique<RegionalCollector>(env_->heap.get(), cfg, &env_->safepoints));
    node_cls_ = env_->heap->classes().RegisterInstance("Node", 24, {0});
  }

  RegionalCollector* rc() { return static_cast<RegionalCollector*>(env_->collector.get()); }

  // Same list shape as the regional collector tests: pair = [node, data],
  // node.next = previous pair, node payload stores the index, data carries a
  // pattern derived from the index.
  size_t BuildList(int n) {
    size_t head = env_->PushRoot(nullptr);
    for (int i = 0; i < n; i++) {
      Object* data = env_->AllocDataArray(64);
      FillPattern(data, i);
      size_t dr = env_->PushRoot(data);
      Object* node = env_->AllocInstance(node_cls_);
      env_->SetField(node, 0, env_->Root(head));
      *reinterpret_cast<uint64_t*>(node->payload() + 8) = static_cast<uint64_t>(i);
      size_t nr = env_->PushRoot(node);
      Object* pair = env_->AllocRefArray(2);
      env_->SetElem(pair, 0, env_->Root(nr));
      env_->SetElem(pair, 1, env_->Root(dr));
      env_->SetRoot(head, pair);
      env_->PopRoots(dr);
    }
    return head;
  }

  void FillPattern(Object* data, int seed) {
    char* p = data->DataArrayBytes();
    for (uint64_t i = 0; i < data->ArrayLength(); i++) {
      p[i] = static_cast<char>((seed * 31 + static_cast<int>(i)) & 0xFF);
    }
  }

  // Walks the list from `pair` through the heal barrier, verifying structure
  // and payload. Usable from any registered thread during a concurrent
  // window; holds no pointer across a safepoint poll.
  int WalkList(Object* pair) {
    int count = 0;
    int expected_index = -1;
    while (pair != nullptr) {
      EXPECT_EQ(pair->ArrayLength(), 2u);
      Object* node = env_->GetElem(pair, 0);
      Object* data = env_->GetElem(pair, 1);
      EXPECT_NE(node, nullptr);
      EXPECT_NE(data, nullptr);
      if (node == nullptr || data == nullptr) {
        return count;
      }
      int index = static_cast<int>(*reinterpret_cast<uint64_t*>(node->payload() + 8));
      if (expected_index >= 0) {
        EXPECT_EQ(index, expected_index);
      }
      expected_index = index - 1;
      char* p = data->DataArrayBytes();
      for (uint64_t i = 0; i < data->ArrayLength(); i++) {
        if (p[i] != static_cast<char>((index * 31 + static_cast<int>(i)) & 0xFF)) {
          ADD_FAILURE() << "data corruption at node " << index << " byte " << i;
          return count;
        }
      }
      count++;
      pair = env_->GetField(node, 0);
    }
    return count;
  }

  int VerifyList(size_t head_root) { return WalkList(env_->Root(head_root)); }

  // Address-free checksum of everything reachable from the local roots:
  // objects are numbered in breadth-first discovery order, and each one
  // hashes its class, size, non-reference payload bytes, and the numbers of
  // its referents. Run with no cycle in flight (raw loads, no barrier).
  uint64_t GraphChecksum() {
    std::unordered_map<Object*, uint64_t> ids;
    std::vector<Object*> order;
    uint64_t h = 0;
    auto mix = [&](uint64_t v) { h = Mix64(h ^ v); };
    auto id_of = [&](Object* o) -> uint64_t {
      if (o == nullptr) {
        return 0;
      }
      auto [it, fresh] = ids.emplace(o, ids.size() + 1);
      if (fresh) {
        order.push_back(o);
      }
      return it->second;
    };
    for (auto& slot : env_->ctx.local_roots) {
      mix(id_of(slot.load(std::memory_order_relaxed)));
    }
    for (size_t i = 0; i < order.size(); i++) {
      Object* o = order[i];
      mix(o->class_id);
      mix(o->size_bytes);
      std::string bytes(o->payload(), o->size_bytes - kObjectHeaderSize);
      env_->heap->ForEachRefSlot(o, [&](std::atomic<Object*>* slot) {
        std::memset(&bytes[reinterpret_cast<char*>(slot) - o->payload()], 0, sizeof(Object*));
        mix(id_of(slot->load(std::memory_order_relaxed)));
      });
      mix(std::hash<std::string>{}(bytes));
    }
    return h;
  }

  // The two-granularity remembered set after a cycle: young regions carry
  // no remset entries, and after an STW cycle (which trims the slot table)
  // every set slot bit names a slot pointing into young.
  void ExpectRememberedSetsSound(bool stw) {
    RegionManager& regions = env_->heap->regions();
    regions.ForEachRegion([&](Region* r) {
      if (r->IsYoung()) {
        EXPECT_EQ(r->RemsetRegionCount(), 0u) << "young region " << r->index();
      } else if (stw && !r->IsFree()) {
        r->ScanYoungSlots(0, r->slot_words(), /*clear=*/false, [&](std::atomic<Object*>* slot) {
          Object* v = slot->load(std::memory_order_relaxed);
          EXPECT_TRUE(v != nullptr && regions.RegionFor(v)->IsYoung())
              << "stale slot bit in region " << r->index();
          return true;
        });
      }
    });
  }

  std::unique_ptr<GcTestEnv> env_;
  ClassId node_cls_;
};

TEST_F(ConcurrentEvacTest, YoungCyclePreservesGraphWithRemapPause) {
  GcConfig cfg;
  cfg.num_workers = 2;
  Start(32, cfg);
  size_t head = BuildList(400);
  ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_EQ(VerifyList(head), 400);
  // The cycle splits into an arming pause (recorded as the young pause) and a
  // final remap pause; the copying happened between them, off-pause.
  EXPECT_GE(env_->PausesOfKind(PauseKind::kYoung), 1u);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kRemap), 1u);
  EXPECT_GT(env_->collector->metrics().EvacCpuNs() +
                env_->collector->metrics().RemapCpuNs(),
            0u);
  // Fully retired: barrier disarmed, no region still flagged evacuating.
  EXPECT_FALSE(rc()->evac_armed());
  env_->heap->regions().ForEachRegion(
      [](Region* r) { EXPECT_FALSE(r->evacuating()); });
  // Survives repeated cycles triggered from the allocation path too.
  env_->ChurnYoung(24 * 1024 * 1024);
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_EQ(VerifyList(head), 400);
}

TEST_F(ConcurrentEvacTest, DeadDynamicGenReclaimedWholeWithoutCopy) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  cfg.mixed_trigger_occupancy = 0.3;
  Start(32, cfg);
  // Fill gen 2 with ~14MB of data, then drop it all: after marking, those
  // regions have zero live bytes and the arming pause frees them outright
  // instead of routing them through the copy machinery.
  size_t root = env_->PushRoot(nullptr);
  for (int i = 0; i < 300; i++) {
    Object* d = env_->AllocDataArray(48 * 1024, /*gen=*/2);
    env_->SetRoot(root, d);
  }
  env_->SetRoot(root, nullptr);
  auto used_before = env_->heap->regions().ComputeUsage();
  ASSERT_GT(used_before.gen_regions, 8u);
  env_->ChurnYoung(16 * 1024 * 1024);
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kMixed), 1u);
  EXPECT_GT(rc()->whole_regions_reclaimed(), 0u);
  auto used_after = env_->heap->regions().ComputeUsage();
  EXPECT_LT(used_after.gen_regions, used_before.gen_regions / 2);
}

// Mutators race GC workers on copy-on-first-touch: readers traverse the
// graph through the load barrier while the main thread's churn drives
// back-to-back concurrent cycles. Exactly one copy may win per object — a
// structural walk plus payload checksums catches duplicated, torn, or lost
// nodes. This is the tsan target: the claim CAS, the shared to-space bump,
// and the slot-healing CAS all get exercised from multiple threads.
TEST_F(ConcurrentEvacTest, MutatorGcCopyRaceStress) {
  GcConfig cfg;
  cfg.num_workers = 2;
  Start(32, cfg);
  constexpr int kNodes = 300;
  size_t head = BuildList(kNodes);
  GlobalRef head_ref(&env_->heap->roots(), env_->Root(head));
  env_->PopRoots(head);  // reachable only via the shared global root now

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> walks{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; t++) {
    readers.emplace_back([&] {
      MutatorContext rctx;
      env_->safepoints.RegisterThread(&rctx);
      while (!stop.load(std::memory_order_relaxed)) {
        Object* pair = env_->heap->LoadRef(head_ref.slot());
        int count = WalkList(pair);
        EXPECT_EQ(count, kNodes);
        walks.fetch_add(1, std::memory_order_relaxed);
        // All locals dead here; safe to park for a pending STW pause.
        env_->safepoints.Poll(&rctx);
      }
      env_->collector->OnMutatorExit(&rctx);
      env_->safepoints.UnregisterThread(&rctx);
    });
  }
  // Drive several concurrent evacuation cycles under the readers.
  env_->ChurnYoung(48 * 1024 * 1024);
  stop.store(true);
  {
    SafepointManager::ScopedSafeRegion safe(&env_->safepoints, &env_->ctx);
    for (auto& th : readers) {
      th.join();
    }
  }
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_GT(walks.load(), 0u);
  EXPECT_EQ(WalkList(env_->heap->LoadRef(head_ref.slot())), kNodes);
  EXPECT_FALSE(rc()->evac_armed());
}

TEST_F(ConcurrentEvacTest, CancellationFinishesStwWithNoLostObjects) {
  // Cancel the first concurrent window before any copying starts: every cset
  // object self-forwards in place, the remap pause retires the cset regions
  // as failed (kept, scrubbed), and the cycle falls back to a full STW
  // collection. Nothing may be lost or corrupted.
  FaultInjection::Instance().ArmOnceAtHit("gc.concurrent_evac.cancel", 1);
  GcConfig cfg;
  cfg.num_workers = 2;
  Start(32, cfg);
  size_t head = BuildList(300);
  env_->ChurnYoung(24 * 1024 * 1024);
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_EQ(FaultInjection::Instance().Fires("gc.concurrent_evac.cancel"), 1u);
  EXPECT_EQ(VerifyList(head), 300);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kRemap), 1u);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kFull), 1u);  // fallback ladder fired
  EXPECT_FALSE(rc()->evac_armed());
  env_->heap->regions().ForEachRegion(
      [](Region* r) { EXPECT_FALSE(r->evacuating()); });
  // The heap still works after recovery.
  env_->ChurnYoung(16 * 1024 * 1024);
  rc()->WaitForConcurrentCycle(&env_->ctx);
  EXPECT_EQ(VerifyList(head), 300);
}

// STW evacuation is the zero-length-window case of the concurrent cycle: one
// worker body and one finalize routine serve both. The same seeded graph
// goes through a young and then a mixed cycle in each mode under full
// verification and must come out identical and verifier-clean, with dead
// tenured objects scrubbed in both modes (scrub regions are claimable units
// of the STW pause too).
TEST_F(ConcurrentEvacTest, StwAndConcurrentPipelinesAgree) {
  MetricCounter* scrubbed = MetricsRegistry::Instance().Counter("gc.scrubbed_bytes");
  uint64_t checksums[2] = {};
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "stw");
    GcConfig cfg;
    cfg.num_workers = 2;
    cfg.use_dynamic_gens = true;
    cfg.mixed_trigger_occupancy = 0.15;
    Start(32, cfg, concurrent);
    rc()->mutable_verify_options().level = VerifyLevel::kFull;
    const uint64_t scrubbed0 = scrubbed->Value();

    size_t head = BuildList(300);
    ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
    rc()->WaitForConcurrentCycle(&env_->ctx);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kYoung), 1u);
    ExpectRememberedSetsSound(!concurrent);

    // Tenured data: gen 2 keeps 9 in 10 arrays (live ratio above the cset
    // cutoff: stays put and gets scrubbed), gen 3 keeps 1 in 4 (a cset
    // candidate: evacuated). Sizes are seeded, identical in both modes.
    constexpr int kArrays = 200;
    Random rng(0x9a817);
    size_t keep = env_->PushRoot(env_->AllocRefArray(kArrays));
    for (int i = 0; i < kArrays; i++) {
      const bool gen2 = i % 2 == 0;
      Object* d = env_->AllocDataArray(24 * 1024 + rng.NextBounded(16 * 1024), gen2 ? 2 : 3);
      ASSERT_NE(d, nullptr);
      FillPattern(d, i);
      if (gen2 ? i % 20 != 0 : i % 8 == 1) {
        env_->SetElem(env_->Root(keep), i, d);
      }
    }
    const uint64_t before = GraphChecksum();
    ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
    rc()->WaitForConcurrentCycle(&env_->ctx);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kMixed), 1u);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kRemap), concurrent ? 2u : 0u);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);

    checksums[concurrent] = GraphChecksum();
    EXPECT_EQ(checksums[concurrent], before);
    ExpectRememberedSetsSound(!concurrent);
    EXPECT_EQ(VerifyList(head), 300);
    EXPECT_GT(rc()->verify_stats().passes, 0u);
    EXPECT_EQ(rc()->verify_stats().findings, 0u);
    EXPECT_GT(scrubbed->Value(), scrubbed0);
    EXPECT_GT(env_->collector->metrics().BytesCopied(), 0u);
  }
  EXPECT_EQ(checksums[0], checksums[1]);
}

// A remembered-set source region mixing reference-free objects (byte[],
// instances without reference fields, empty ref arrays) with ref arrays that
// point into young. Only the recorded slots are scanned; the young objects
// they reach are found through them alone, so a missed or mis-addressed slot
// shows up as a lost or dangling referent. A young
// and then a mixed cycle (marks trusted, dead sources skipped and scrubbed)
// must both keep the reachable graph intact in both pipelines.
TEST_F(ConcurrentEvacTest, RefFreeObjectsInSourceRegionKeepGraphInBothPipelines) {
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "stw");
    GcConfig cfg;
    cfg.num_workers = 2;
    cfg.use_dynamic_gens = true;
    cfg.mixed_trigger_occupancy = 0.15;
    Start(32, cfg, concurrent);
    rc()->mutable_verify_options().level = VerifyLevel::kFull;
    const ClassId plain_cls = env_->heap->classes().RegisterInstance("Plain", 16, {});

    // Gen 2 region: per holder a byte[], a ref-free instance, an empty ref
    // array and a 3-slot ref array; every 8th ref array is left unreachable
    // (dead, still pointing into young once filled).
    constexpr int kHolders = 96;
    size_t keep = env_->PushRoot(env_->AllocRefArray(kHolders * 4, /*gen=*/2));
    size_t dead = env_->PushRoot(env_->AllocRefArray(kHolders, /*gen=*/2));
    for (int i = 0; i < kHolders; i++) {
      Object* bytes = env_->AllocDataArray(100 + i, 2);
      FillPattern(bytes, i);
      env_->SetElem(env_->Root(keep), 4 * i, bytes);
      Object* plain = env_->AllocInstance(plain_cls, 2);
      *reinterpret_cast<uint64_t*>(plain->payload()) = static_cast<uint64_t>(i);
      env_->SetElem(env_->Root(keep), 4 * i + 1, plain);
      env_->SetElem(env_->Root(keep), 4 * i + 2, env_->AllocRefArray(0, 2));
      Object* refs = env_->AllocRefArray(3, 2);
      env_->SetElem(i % 8 == 0 ? env_->Root(dead) : env_->Root(keep),
                    i % 8 == 0 ? i : 4 * i + 3, refs);
    }
    Region* source = env_->heap->regions().RegionFor(env_->Root(keep));
    // Points every reachable ref array's slots (and, while the dead ones are
    // still rooted, theirs) at fresh young objects: a byte[], a Node and a
    // ref-free instance.
    auto point_into_young = [&](int round) {
      for (int i = 0; i < kHolders; i++) {
        if (i % 8 == 0 && env_->Root(dead) == nullptr) {
          continue;
        }
        for (int k = 0; k < 3; k++) {
          Object* young = nullptr;
          if (k == 0) {
            young = env_->AllocDataArray(48);
            FillPattern(young, round * 1000 + i);
          } else if (k == 1) {
            young = env_->AllocInstance(node_cls_);
            *reinterpret_cast<uint64_t*>(young->payload() + 8) = static_cast<uint64_t>(i);
          } else {
            young = env_->AllocInstance(plain_cls);
          }
          Object* refs = i % 8 == 0 ? env_->GetElem(env_->Root(dead), i)
                                    : env_->GetElem(env_->Root(keep), 4 * i + 3);
          ASSERT_EQ(env_->heap->regions().RegionFor(refs), source);
          env_->SetElem(refs, k, young);
        }
      }
    };
    point_into_young(0);
    env_->SetRoot(dead, nullptr);

    const uint64_t before_young = GraphChecksum();
    ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
    rc()->WaitForConcurrentCycle(&env_->ctx);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kYoung), 1u);
    EXPECT_EQ(GraphChecksum(), before_young);
    ExpectRememberedSetsSound(!concurrent);

    // Fresh young referents, then enough dead gen-3 data to push tenured
    // occupancy past the trigger: the next cycle is mixed.
    point_into_young(1);
    for (int i = 0; i < 200; i++) {
      ASSERT_NE(env_->AllocDataArray(32 * 1024, 3), nullptr);
    }
    const uint64_t before_mixed = GraphChecksum();
    ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
    rc()->WaitForConcurrentCycle(&env_->ctx);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kMixed), 1u);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
    EXPECT_EQ(GraphChecksum(), before_mixed);
    ExpectRememberedSetsSound(!concurrent);
    EXPECT_GT(rc()->verify_stats().passes, 0u);
    EXPECT_EQ(rc()->verify_stats().findings, 0u);
    EXPECT_EQ(rc()->verify_stats().regions_quarantined, 0u);
  }
}

// The skewed shape from BM_PauseYoungSkewedRemset, reduced to one source
// region: every young survivor is reachable only from ref arrays packed into
// a single gen 2 region, and the survivors hold no references, so they never
// become work items. The region's slot table is many scan units long, so
// with four workers more than one worker claims units and copies survivors
// in the same cycle. Retried over several cycles because
// stealing needs the other workers to be scheduled while the claimant scans;
// the survivors are 64 B so one cycle's copying outlasts a scheduler tick
// even when all four workers share one CPU.
TEST_F(ConcurrentEvacTest, DenseSourceRegionUnitsAreShared) {
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "stw");
    GcConfig cfg;
    cfg.num_workers = 4;
    cfg.use_dynamic_gens = true;
    cfg.mixed_trigger_occupancy = 2.0;  // young cycles only
    Start(96, cfg, concurrent);
    rc()->mutable_verify_options().level = VerifyLevel::kFull;
    const ClassId leaf_cls = env_->heap->classes().RegisterInstance("Leaf", 48, {});

    constexpr int kArrays = 14;
    constexpr uint64_t kSlots = 8000;
    std::vector<size_t> arrays;
    for (int a = 0; a < kArrays; a++) {
      arrays.push_back(env_->PushRoot(env_->AllocRefArray(kSlots, /*gen=*/2)));
    }
    Region* source = env_->heap->regions().RegionFor(env_->Root(arrays[0]));
    ASSERT_GT(source->slot_words_in_use(), 8 * EvacuationTask::kSlotUnitWords);
    for (size_t idx : arrays) {
      ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(idx)), source);
    }

    const GcMetrics& m = env_->collector->metrics();
    uint32_t most_copiers = 0;
    for (int round = 0; round < 60 && most_copiers < 2; round++) {
      for (size_t idx : arrays) {
        for (uint64_t i = 0; i < kSlots; i++) {
          env_->SetElem(env_->Root(idx), i, env_->AllocInstance(leaf_cls));
        }
      }
      uint64_t copied0[4];
      for (uint32_t w = 0; w < 4; w++) {
        copied0[w] = m.WorkerCopiedBytes(w);
      }
      ASSERT_TRUE(rc()->CollectNow(&env_->ctx));
      rc()->WaitForConcurrentCycle(&env_->ctx);
      uint32_t copiers = 0;
      for (uint32_t w = 0; w < 4; w++) {
        copiers += m.WorkerCopiedBytes(w) > copied0[w] ? 1 : 0;
      }
      most_copiers = std::max(most_copiers, copiers);
    }
    EXPECT_GE(most_copiers, 2u);
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
    EXPECT_EQ(rc()->verify_stats().findings, 0u);
    Object* last = env_->GetElem(env_->Root(arrays.back()), kSlots - 1);
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->class_id, leaf_cls);
  }
}

}  // namespace
}  // namespace rolp
