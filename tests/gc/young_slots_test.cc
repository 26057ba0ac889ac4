// Slot-granular remembered set for young targets (DESIGN.md section 5): the
// slot bits non-young regions keep for references into young, how young
// pauses scan and trim them, and every place that must clear or re-record
// them (scrubbing, free/uncommit, full compaction, region retirement).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/gc/cms_collector.h"
#include "src/gc/mark_bitmap.h"
#include "src/gc/regional_collector.h"
#include "src/util/clock.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

// Exposes the retirement helpers young pauses run on retired regions.
class ExposedRegionalCollector : public RegionalCollector {
 public:
  using RegionalCollector::RegionalCollector;
  using Collector::RecordCrossRegionEdges;
  using Collector::ScrubRetiredEvacFailure;
};

class YoungSlotsTest : public ::testing::Test {
 protected:
  void Start(size_t heap_mb, GcConfig cfg, bool concurrent = false) {
    cfg.concurrent_evac = concurrent;
    env_ = std::make_unique<GcTestEnv>(heap_mb, cfg);
    env_->SetCollector(std::make_unique<ExposedRegionalCollector>(env_->heap.get(), cfg,
                                                                  &env_->safepoints));
    collector()->mutable_verify_options().level = VerifyLevel::kFull;
    node_cls_ = env_->heap->classes().RegisterInstance("Node", 24, {0});
  }

  ExposedRegionalCollector* collector() {
    return static_cast<ExposedRegionalCollector*>(env_->collector.get());
  }

  void Collect() {
    ASSERT_TRUE(collector()->CollectNow(&env_->ctx));
    collector()->WaitForConcurrentCycle(&env_->ctx);
  }

  Object* YoungData(int seed) {
    Object* d = env_->AllocDataArray(40);
    FillPattern(d, seed);
    return d;
  }

  static void FillPattern(Object* data, int seed) {
    char* p = data->DataArrayBytes();
    for (uint64_t i = 0; i < data->ArrayLength(); i++) {
      p[i] = static_cast<char>((seed * 31 + static_cast<int>(i)) & 0xFF);
    }
  }

  static bool HasPattern(Object* data, int seed) {
    const char* p = data->DataArrayBytes();
    for (uint64_t i = 0; i < data->ArrayLength(); i++) {
      if (p[i] != static_cast<char>((seed * 31 + static_cast<int>(i)) & 0xFF)) {
        return false;
      }
    }
    return true;
  }

  // Young regions carry no remset entries; with `exact` (after an STW
  // pause) every set slot bit names a slot that points into young.
  void ExpectSlotTableSound(bool exact) {
    RegionManager& regions = env_->heap->regions();
    regions.ForEachRegion([&](Region* r) {
      if (r->IsYoung()) {
        EXPECT_EQ(r->RemsetRegionCount(), 0u) << "young region " << r->index();
        return;
      }
      if (!exact || r->IsFree()) {
        return;
      }
      r->ScanYoungSlots(0, r->slot_words(), /*clear=*/false, [&](std::atomic<Object*>* slot) {
        Object* v = slot->load(std::memory_order_relaxed);
        EXPECT_TRUE(v != nullptr && regions.RegionFor(v)->IsYoung())
            << "stale bit in region " << r->index();
        return true;
      });
    });
  }

  std::unique_ptr<GcTestEnv> env_;
  ClassId node_cls_ = 0;
};

GcConfig YoungOnlyConfig(uint32_t tenuring_threshold) {
  GcConfig cfg;
  cfg.num_workers = 2;
  cfg.use_dynamic_gens = true;
  cfg.mixed_trigger_occupancy = 2.0;  // young pauses only
  cfg.tenuring_threshold = tenuring_threshold;
  return cfg;
}

// Slots overwritten with null or an old reference keep their bit until the
// next young pause, which drops them; slots whose referents survive in
// survivor space keep theirs. Promotion moves the edge to the target's
// remset and drops the bit.
TEST_F(YoungSlotsTest, YoungPauseClearsStaleBitsAndKeepsSurvivors) {
  for (uint32_t tenuring : {16u, 1u}) {
    SCOPED_TRACE(tenuring == 1 ? "promoted" : "survivors");
    Start(32, YoungOnlyConfig(tenuring));
    constexpr int kSlots = 64;
    size_t arr = env_->PushRoot(env_->AllocRefArray(kSlots, kOldGenId));
    Object* old_target = env_->AllocDataArray(16, kOldGenId);
    Region* src = env_->heap->regions().RegionFor(env_->Root(arr));
    for (int i = 0; i < kSlots; i++) {
      env_->SetElem(env_->Root(arr), i, YoungData(i));
    }
    for (int i = 0; i < kSlots; i++) {
      if (i % 4 == 1) {
        env_->SetElem(env_->Root(arr), i, nullptr);
      } else if (i % 4 == 2) {
        env_->SetElem(env_->Root(arr), i, old_target);
      }
    }
    ASSERT_EQ(src->CountYoungSlots(), static_cast<size_t>(kSlots));

    Collect();
    Object* a = env_->Root(arr);
    size_t expect_bits = 0;
    for (int i = 0; i < kSlots; i++) {
      Object* v = env_->GetElem(a, i);
      bool young_ref = i % 4 == 0 || i % 4 == 3;
      if (young_ref) {
        ASSERT_NE(v, nullptr);
        EXPECT_TRUE(HasPattern(v, i));
        Region* vr = env_->heap->regions().RegionFor(v);
        EXPECT_EQ(vr->IsYoung(), tenuring > 1);
        if (tenuring == 1) {
          EXPECT_TRUE(vr->RemsetContainsRegion(src->index()));
        }
      }
      bool bit = young_ref && tenuring > 1;
      EXPECT_EQ(src->HasYoungSlot(a->RefArraySlot(i)), bit) << "slot " << i;
      expect_bits += bit ? 1 : 0;
    }
    EXPECT_EQ(src->CountYoungSlots(), expect_bits);
    EXPECT_EQ(src->has_young_slots(), expect_bits > 0);
    ExpectSlotTableSound(/*exact=*/true);
    EXPECT_EQ(collector()->verify_stats().findings, 0u);
  }
}

// A copy promoted into old space while its referent stays young records the
// referent's slot bit when the copy is scanned; the next young pause finds
// the referent through that bit alone.
TEST_F(YoungSlotsTest, PromotedCopiesRecordBitsForYoungReferents) {
  Start(32, YoungOnlyConfig(2));
  constexpr int kHolders = 32;
  size_t holders = env_->PushRoot(env_->AllocRefArray(kHolders));
  for (int i = 0; i < kHolders; i++) {
    env_->SetElem(env_->Root(holders), i, env_->AllocInstance(node_cls_));
  }
  Collect();  // holders and their array: age 1, survivor space
  for (int i = 0; i < kHolders; i++) {
    Object* h = env_->GetElem(env_->Root(holders), i);
    env_->SetField(h, 0, YoungData(i));  // young -> young: no record yet
  }
  Collect();  // holders reach age 2 and promote; referents stay young (age 1)
  RegionManager& regions = env_->heap->regions();
  for (int i = 0; i < kHolders; i++) {
    Object* h = env_->GetElem(env_->Root(holders), i);
    ASSERT_FALSE(regions.RegionFor(h)->IsYoung());
    ASSERT_TRUE(regions.RegionFor(env_->GetField(h, 0))->IsYoung());
    EXPECT_TRUE(regions.RegionFor(h)->HasYoungSlot(h->RefSlotAt(0))) << "holder " << i;
  }
  Collect();  // referents are reachable only through the promoted holders
  for (int i = 0; i < kHolders; i++) {
    Object* d = env_->GetField(env_->GetElem(env_->Root(holders), i), 0);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(HasPattern(d, i)) << "referent " << i;
  }
  EXPECT_EQ(collector()->verify_stats().findings, 0u);
  EXPECT_EQ(env_->heap->regions().quarantined_regions(), 0u);
}

// A mixed pause scrubs dead objects in tenured regions it keeps; their slot
// bits go with them, while a live neighbour's bits stay.
TEST_F(YoungSlotsTest, ScrubbingClearsDeadObjectBits) {
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "stw");
    GcConfig cfg = YoungOnlyConfig(16);
    cfg.mixed_trigger_occupancy = 0.0;  // every pause is mixed
    cfg.cset_live_ratio_max = 0.0;      // only fully dead regions are evacuated
    Start(32, cfg, concurrent);
    constexpr int kSlots = 8;
    size_t live = env_->PushRoot(env_->AllocRefArray(kSlots, /*gen=*/2));
    size_t dead_root = env_->PushRoot(env_->AllocRefArray(kSlots, /*gen=*/2));
    for (int i = 0; i < kSlots; i++) {
      env_->SetElem(env_->Root(live), i, YoungData(i));
      env_->SetElem(env_->Root(dead_root), i, YoungData(100 + i));
    }
    Object* dead = env_->Root(dead_root);
    Region* src = env_->heap->regions().RegionFor(dead);
    ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(live)), src);
    ASSERT_EQ(src->CountYoungSlots(), 2u * kSlots);
    env_->SetRoot(dead_root, nullptr);

    Collect();
    ASSERT_EQ(env_->PausesOfKind(PauseKind::kMixed), 1u);
    ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(live)), src);  // not evacuated
    EXPECT_EQ(dead->class_id, kFreeBlockClassId);
    for (int i = 0; i < kSlots; i++) {
      EXPECT_FALSE(src->HasYoungSlot(dead->RefArraySlot(i))) << "dead slot " << i;
      EXPECT_TRUE(src->HasYoungSlot(env_->Root(live)->RefArraySlot(i))) << "live slot " << i;
      EXPECT_TRUE(HasPattern(env_->GetElem(env_->Root(live), i), i));
    }
    ExpectSlotTableSound(/*exact=*/true);
    EXPECT_EQ(collector()->verify_stats().findings, 0u);
  }
}

// With trusted marks, a young-slot bit of a dead holder must not be healed:
// that would copy the holder's dead young referent and, through the copy,
// keep a reference to a dead tenured object the same pause scrubs into a
// free block. Scrub units finish before any slot unit starts, so the dead
// holder's bits are gone first; one worker claims units strictly in order.
TEST_F(YoungSlotsTest, MixedPauseDoesNotResurrectThroughDeadHolders) {
  for (uint32_t workers : {1u, 2u}) {
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE(::testing::Message() << workers << " workers, "
                                        << (concurrent ? "concurrent" : "stw"));
      GcConfig cfg = YoungOnlyConfig(16);
      cfg.num_workers = workers;
      cfg.mixed_trigger_occupancy = 0.0;  // every pause is mixed
      cfg.cset_live_ratio_max = 0.0;      // only fully dead regions are evacuated
      Start(32, cfg, concurrent);
      size_t live = env_->PushRoot(env_->AllocRefArray(4, /*gen=*/2));
      size_t holder_root = env_->PushRoot(env_->AllocRefArray(4, /*gen=*/2));
      Object* dead_old = env_->AllocInstance(node_cls_, /*gen=*/2);
      Object* dead_young = env_->AllocInstance(node_cls_);
      env_->SetField(dead_young, 0, dead_old);
      env_->SetElem(env_->Root(holder_root), 0, dead_young);
      Object* holder = env_->Root(holder_root);
      Region* src = env_->heap->regions().RegionFor(holder);
      ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(live)), src);
      ASSERT_EQ(env_->heap->regions().RegionFor(dead_old), src);
      ASSERT_TRUE(src->HasYoungSlot(holder->RefArraySlot(0)));
      env_->SetRoot(holder_root, nullptr);

      uint64_t copied0 = env_->collector->metrics().BytesCopied();
      Collect();
      ASSERT_EQ(env_->PausesOfKind(PauseKind::kMixed), 1u);
      EXPECT_EQ(env_->collector->metrics().BytesCopied(), copied0) << "dead young copied";
      EXPECT_EQ(holder->class_id, kFreeBlockClassId);
      EXPECT_EQ(dead_old->class_id, kFreeBlockClassId);
      EXPECT_EQ(src->CountYoungSlots(), 0u);
      // No object anywhere references a free block.
      RegionManager& regions = env_->heap->regions();
      regions.ForEachRegion([&](Region* r) {
        if (r->IsFree() || r->kind() == RegionKind::kHumongousCont) {
          return;
        }
        r->ForEachObject([&](Object* obj) {
          if (obj->class_id == kFreeBlockClassId) {
            return;
          }
          env_->heap->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
            Object* v = slot->load(std::memory_order_relaxed);
            EXPECT_TRUE(v == nullptr || v->class_id != kFreeBlockClassId)
                << "object " << obj << " in region " << r->index() << " names a free block";
          });
        });
      });
      ExpectSlotTableSound(/*exact=*/true);
      EXPECT_EQ(collector()->verify_stats().findings, 0u);
    }
  }
}

// Concurrent young cycles keep every bit during the window; the remap pause
// trims the ones whose slots no longer point into young, and the region's
// flag goes once none is left.
TEST_F(YoungSlotsTest, ConcurrentRemapPauseTrimsStaleBits) {
  Start(32, YoungOnlyConfig(16), /*concurrent=*/true);
  constexpr int kSlots = 64;
  size_t arr = env_->PushRoot(env_->AllocRefArray(kSlots, kOldGenId));
  Region* src = env_->heap->regions().RegionFor(env_->Root(arr));
  for (int i = 0; i < kSlots; i++) {
    env_->SetElem(env_->Root(arr), i, YoungData(i));
  }
  for (int i = 0; i < kSlots; i += 2) {
    env_->SetElem(env_->Root(arr), i, nullptr);
  }
  ASSERT_EQ(src->CountYoungSlots(), static_cast<size_t>(kSlots));
  Collect();
  ASSERT_EQ(env_->PausesOfKind(PauseKind::kRemap), 1u);
  EXPECT_EQ(src->CountYoungSlots(), static_cast<size_t>(kSlots / 2));
  EXPECT_TRUE(src->has_young_slots());
  for (int i = 1; i < kSlots; i += 2) {
    EXPECT_TRUE(HasPattern(env_->GetElem(env_->Root(arr), i), i));
  }
  ExpectSlotTableSound(/*exact=*/true);
  for (int i = 1; i < kSlots; i += 2) {
    env_->SetElem(env_->Root(arr), i, nullptr);
  }
  Collect();
  EXPECT_EQ(src->CountYoungSlots(), 0u);
  EXPECT_FALSE(src->has_young_slots());
  EXPECT_EQ(collector()->verify_stats().findings, 0u);
}

// Freed regions drop their bits; uncommitting and recommitting a free region
// brings back neither bits nor the flag.
TEST(YoungSlotsRegionTest, FreeUncommitAndRecommitLeaveNoBits) {
  constexpr size_t kMiB = 1024 * 1024;
  RegionManager mgr(8 * kMiB, kMiB);
  std::vector<Region*> taken;
  for (size_t i = 0; i < mgr.num_regions(); i++) {
    Region* r = mgr.AllocateRegion(RegionKind::kOld);
    ASSERT_NE(r, nullptr);
    for (size_t off = 8 * i; off < kMiB; off += 4096 + 8 * i) {
      r->AddYoungSlot(r->begin() + off);
    }
    ASSERT_GT(r->CountYoungSlots(), 0u);
    taken.push_back(r);
  }
  for (Region* r : taken) {
    mgr.FreeRegion(r);
    EXPECT_FALSE(r->has_young_slots());
    EXPECT_EQ(r->CountYoungSlots(), 0u);
  }
  EXPECT_GT(mgr.UncommitIdleRegions(NowNs()), 0u);
  for (size_t i = 0; i < mgr.num_regions(); i++) {
    Region* r = mgr.AllocateRegion(RegionKind::kOld);
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->has_young_slots());
    EXPECT_EQ(r->CountYoungSlots(), 0u);
  }
  EXPECT_GT(mgr.region_commits(), 0u);
}

// Range clearing drops exactly the bits inside the range, across table words.
TEST(YoungSlotsRegionTest, RangeClearIsExact) {
  constexpr size_t kMiB = 1024 * 1024;
  RegionManager mgr(8 * kMiB, kMiB);
  Region* r = mgr.AllocateRegion(RegionKind::kOld);
  for (size_t off = 0; off < 4096; off += 8) {
    r->AddYoungSlot(r->begin() + off);
  }
  r->ClearYoungSlots(r->begin() + 24, r->begin() + 3000);
  for (size_t off = 0; off < 4096; off += 8) {
    EXPECT_EQ(r->HasYoungSlot(r->begin() + off), off < 24 || off >= 3000) << off;
  }
  EXPECT_EQ(r->CountYoungSlots(), 4096u / 8 - (3000u - 24u) / 8);
}

// Compaction moves everything and leaves no young region: it drops every
// bit, rebuilds old-target remsets, and new stores re-record bits.
TEST_F(YoungSlotsTest, FullGcRebuildsTheSlotTable) {
  Start(32, YoungOnlyConfig(16));
  constexpr int kSlots = 32;
  size_t arr = env_->PushRoot(env_->AllocRefArray(kSlots, kOldGenId));
  for (int i = 0; i < kSlots; i++) {
    env_->SetElem(env_->Root(arr), i, YoungData(i));
  }
  env_->collector->CollectFull(&env_->ctx);
  env_->heap->regions().ForEachRegion([](Region* r) {
    EXPECT_FALSE(r->IsYoung());
    EXPECT_FALSE(r->has_young_slots());
    EXPECT_EQ(r->CountYoungSlots(), 0u);
  });
  HeapVerifier verifier(env_->heap.get(), &env_->safepoints);
  EXPECT_TRUE(verifier.Verify().ok());
  for (int i = 0; i < kSlots; i++) {
    EXPECT_TRUE(HasPattern(env_->GetElem(env_->Root(arr), i), i));
  }

  Object* a = env_->Root(arr);
  for (int i = 0; i < kSlots; i += 2) {
    env_->SetElem(a, i, YoungData(1000 + i));
  }
  Region* src = env_->heap->regions().RegionFor(a);
  EXPECT_EQ(src->CountYoungSlots(), static_cast<size_t>(kSlots / 2));
  Collect();
  a = env_->Root(arr);
  for (int i = 0; i < kSlots; i++) {
    EXPECT_TRUE(HasPattern(env_->GetElem(a, i), i % 2 == 0 ? 1000 + i : i));
  }
  EXPECT_TRUE(verifier.Verify().ok());
  EXPECT_EQ(collector()->verify_stats().findings, 0u);
}

// A humongous ref array spans several regions; the bits of its slots live
// in the continuation regions that hold them, and young pauses scan them
// there (continuation regions are never walked as objects).
TEST_F(YoungSlotsTest, HumongousContinuationSlotsAreScanned) {
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "stw");
    Start(32, YoungOnlyConfig(16), concurrent);
    const uint64_t len = 300000;  // ~2.3 MB: head plus two continuations
    size_t arr = env_->PushRoot(env_->AllocRefArray(len));
    Object* big = env_->Root(arr);
    RegionManager& regions = env_->heap->regions();
    ASSERT_EQ(regions.RegionFor(big)->kind(), RegionKind::kHumongous);
    std::vector<uint64_t> picked;
    for (uint64_t i = 7; i < len; i += 9973) {
      picked.push_back(i);
      env_->SetElem(big, i, YoungData(static_cast<int>(i % 1000)));
    }
    ASSERT_EQ(regions.RegionFor(big->RefArraySlot(len - 1))->kind(), RegionKind::kHumongousCont);
    ASSERT_TRUE(regions.RegionFor(big->RefArraySlot(len - 1))->has_young_slots());

    for (int round = 0; round < 3; round++) {
      Collect();
      ASSERT_EQ(env_->Root(arr), big);  // humongous objects never move
      for (uint64_t i : picked) {
        Object* v = env_->GetElem(big, i);
        ASSERT_NE(v, nullptr);
        EXPECT_TRUE(regions.RegionFor(v)->IsYoung());
        EXPECT_TRUE(HasPattern(v, static_cast<int>(i % 1000))) << "slot " << i;
        EXPECT_TRUE(regions.RegionFor(big->RefArraySlot(i))->HasYoungSlot(big->RefArraySlot(i)));
      }
    }
    EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
    ExpectSlotTableSound(/*exact=*/true);
    EXPECT_EQ(collector()->verify_stats().findings, 0u);
  }
}

// A young region retired in place (pinned, or after evacuation failure)
// turns its young-to-young edges into slot bits; the failure scrub also
// drops the bits of the stale originals it frees.
TEST_F(YoungSlotsTest, RetiredRegionsRecordSlotBits) {
  Start(32, YoungOnlyConfig(16));
  RegionManager& regions = env_->heap->regions();
  Object* target = env_->AllocInstance(node_cls_);
  size_t target_root = env_->PushRoot(target);
  Region* target_region = regions.RegionFor(target);
  // Roll the TLAB into the next eden region for the retiring objects.
  Object* holder = nullptr;
  do {
    holder = env_->AllocInstance(node_cls_);
  } while (regions.RegionFor(holder) == target_region);
  size_t holder_root = env_->PushRoot(holder);
  Object* stale = env_->AllocInstance(node_cls_);
  size_t stale_root = env_->PushRoot(stale);
  Region* retiring = regions.RegionFor(holder);
  ASSERT_EQ(regions.RegionFor(stale), retiring);
  env_->SetField(holder, 0, env_->Root(target_root));
  env_->SetField(stale, 0, env_->Root(target_root));
  ASSERT_FALSE(retiring->has_young_slots());  // young -> young: no record

  // Pinned retirement: outgoing edges become slot bits.
  regions.RetireToOld(retiring);
  collector()->RecordCrossRegionEdges(retiring);
  EXPECT_TRUE(retiring->HasYoungSlot(holder->RefSlotAt(0)));
  EXPECT_TRUE(retiring->HasYoungSlot(stale->RefSlotAt(0)));
  EXPECT_EQ(target_region->RemsetRegionCount(), 0u);

  // Evacuation-failure scrub: `stale` plays a copied original (forwarded),
  // `holder` an in-place survivor.
  stale->StoreMark(markword::EncodeForwarded(holder));
  collector()->ScrubRetiredEvacFailure(retiring);
  EXPECT_EQ(stale->class_id, kFreeBlockClassId);
  EXPECT_FALSE(retiring->HasYoungSlot(stale->RefSlotAt(0)));
  EXPECT_TRUE(retiring->HasYoungSlot(holder->RefSlotAt(0)));
  EXPECT_EQ(retiring->CountYoungSlots(), 1u);
  env_->SetRoot(stale_root, nullptr);

  // The next pause finds the survivor's young referent through the bit.
  Collect();
  Object* moved = env_->GetField(env_->Root(holder_root), 0);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved, env_->Root(target_root));
  EXPECT_EQ(moved->class_id, node_cls_);

  // With trusted marks the scrub also frees the unmarked (dead) objects and
  // their bits: their slots may name regions the pause frees.
  Object* live = env_->AllocInstance(node_cls_);
  size_t live_root = env_->PushRoot(live);
  Region* marked_region = regions.RegionFor(live);
  Object* dead = env_->AllocInstance(node_cls_);
  ASSERT_EQ(regions.RegionFor(dead), marked_region);
  env_->SetField(env_->Root(live_root), 0, env_->Root(target_root));
  env_->SetField(dead, 0, env_->Root(target_root));
  regions.RetireToOld(marked_region);
  collector()->RecordCrossRegionEdges(marked_region);
  ASSERT_TRUE(marked_region->HasYoungSlot(dead->RefSlotAt(0)));
  MarkBitmap marks(regions.heap_base(), regions.committed_bytes());
  marks.Mark(env_->Root(live_root));
  collector()->ScrubRetiredEvacFailure(marked_region, &marks);
  EXPECT_EQ(dead->class_id, kFreeBlockClassId);
  EXPECT_FALSE(marked_region->HasYoungSlot(dead->RefSlotAt(0)));
  EXPECT_TRUE(marked_region->HasYoungSlot(env_->Root(live_root)->RefSlotAt(0)));
}

// CMS young collections find old-to-young edges through the same slot bits,
// including edges held by objects promoted into the free-list old space.
TEST_F(YoungSlotsTest, CmsYoungKeepsGraph) {
  GcConfig cfg;
  cfg.tenuring_threshold = 2;
  cfg.cms_trigger_occupancy = 2.0;  // young pauses only
  env_ = std::make_unique<GcTestEnv>(32, cfg);
  env_->SetCollector(
      std::make_unique<CmsCollector>(env_->heap.get(), cfg, &env_->safepoints));
  env_->collector->mutable_verify_options().level = VerifyLevel::kFull;
  const ClassId holder_cls = env_->heap->classes().RegisterInstance("Holder", 16, {0, 8});
  constexpr int kHolders = 200;
  size_t head = env_->PushRoot(nullptr);
  for (int i = 0; i < kHolders; i++) {
    Object* h = env_->AllocInstance(holder_cls);
    env_->SetField(h, 0, env_->Root(head));
    env_->SetRoot(head, h);
  }
  env_->ChurnYoung(20 * 1024 * 1024);  // holders promote into old space
  ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(head))->kind(), RegionKind::kOld);
  for (int round = 0; round < 4; round++) {
    int i = 0;
    for (Object* h = env_->Root(head); h != nullptr; h = env_->GetField(h, 0), i++) {
      Object* d = env_->AllocDataArray(40);
      FillPattern(d, round * 1000 + i);
      env_->SetField(h, 8, d);
    }
    env_->ChurnYoung(10 * 1024 * 1024);
    i = 0;
    for (Object* h = env_->Root(head); h != nullptr; h = env_->GetField(h, 0), i++) {
      Object* d = env_->GetField(h, 8);
      ASSERT_NE(d, nullptr);
      EXPECT_TRUE(HasPattern(d, round * 1000 + i)) << "round " << round << " holder " << i;
    }
    EXPECT_EQ(i, kHolders);
  }
  EXPECT_GE(env_->PausesOfKind(PauseKind::kYoung), 4u);
  EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
  ExpectSlotTableSound(/*exact=*/true);
  EXPECT_EQ(env_->collector->verify_stats().findings, 0u);
  HeapVerifier verifier(env_->heap.get(), &env_->safepoints);
  EXPECT_TRUE(verifier.Verify().ok());
}

// A mutator keeps storing fresh young referents into an old array while
// concurrent cycles scan that array's slot bits off-pause: the barrier's
// fetch_or and the scan's reads share table words (tsan target). No edge may
// be lost: every slot ends holding its latest referent, intact.
TEST_F(YoungSlotsTest, MutatorStoresRaceOffPauseSlotScan) {
  Start(48, YoungOnlyConfig(16), /*concurrent=*/true);
  constexpr int kSlots = 2048;
  size_t arr = env_->PushRoot(env_->AllocRefArray(kSlots, kOldGenId));
  GlobalRef arr_ref(&env_->heap->roots(), env_->Root(arr));
  env_->PopRoots(arr);
  std::atomic<bool> stop{false};
  std::vector<int> last(kSlots, -1);
  std::thread mutator([&] {
    MutatorContext mctx;
    env_->safepoints.RegisterThread(&mctx);
    AllocRequest req;
    req.cls = env_->heap->classes().data_array_class();
    req.total_bytes = env_->heap->DataArrayAllocSize(40);
    req.array_length = 40;
    int seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int k = 0; k < 64; k++, seq++) {
        char* mem = mctx.tlab.Allocate(req.total_bytes);
        Object* d = mem != nullptr
                        ? env_->heap->InitializeObject(mem, req.cls, req.total_bytes,
                                                       req.array_length, 0)
                        : env_->collector->AllocateSlow(&mctx, req).object;
        if (d == nullptr) {
          ADD_FAILURE() << "allocation failed";
          stop.store(true);
          break;
        }
        FillPattern(d, seq);
        Object* a = env_->heap->LoadRef(arr_ref.slot());
        int slot = seq % kSlots;
        env_->heap->StoreRef(a, a->RefArraySlot(slot), d);
        last[slot] = seq;
      }
      env_->safepoints.Poll(&mctx);
    }
    env_->collector->OnMutatorExit(&mctx);
    env_->safepoints.UnregisterThread(&mctx);
  });
  for (int cycle = 0; cycle < 12; cycle++) {
    Collect();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    env_->safepoints.Poll(&env_->ctx);
  }
  stop.store(true);
  {
    SafepointManager::ScopedSafeRegion safe(&env_->safepoints, &env_->ctx);
    mutator.join();
  }
  Collect();
  Object* a = env_->heap->LoadRef(arr_ref.slot());
  for (int i = 0; i < kSlots; i++) {
    Object* v = env_->heap->LoadRef(a->RefArraySlot(i));
    if (last[i] < 0) {
      EXPECT_EQ(v, nullptr);
      continue;
    }
    ASSERT_NE(v, nullptr) << "slot " << i;
    EXPECT_TRUE(HasPattern(v, last[i])) << "slot " << i;
  }
  EXPECT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
  EXPECT_EQ(collector()->verify_stats().findings, 0u);
}

}  // namespace
}  // namespace rolp
