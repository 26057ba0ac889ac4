#include "src/heap/heap.h"

#include <gtest/gtest.h>

#include "src/heap/roots.h"

namespace rolp {
namespace {

constexpr size_t kMiB = 1024 * 1024;

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() {
    HeapConfig config;
    config.heap_bytes = 32 * kMiB;
    config.region_bytes = kMiB;
    heap_ = std::make_unique<Heap>(config);
  }

  Object* AllocInRegion(Region* r, ClassId cls, size_t total, uint64_t len = 0,
                        uint32_t ctx = 0) {
    char* mem = r->BumpAlloc(total);
    EXPECT_NE(mem, nullptr);
    return heap_->InitializeObject(mem, cls, total, len, ctx);
  }

  std::unique_ptr<Heap> heap_;
};

TEST_F(HeapTest, AllocSizesIncludeHeaderAndAlignment) {
  ClassId cls = heap_->classes().RegisterInstance("P", 24, {0});
  EXPECT_EQ(heap_->InstanceAllocSize(cls), 40u);
  EXPECT_EQ(heap_->RefArrayAllocSize(2), 16u + 8u + 16u);
  EXPECT_EQ(heap_->DataArrayAllocSize(5), AlignObjectSize(16 + 8 + 5));
}

TEST_F(HeapTest, InitializeObjectZeroesPayloadAndSetsHeader) {
  ClassId cls = heap_->classes().RegisterInstance("Node", 16, {0});
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  // Dirty the memory first.
  memset(r->begin(), 0xAB, 64);
  Object* obj = AllocInRegion(r, cls, heap_->InstanceAllocSize(cls), 0,
                              markword::MakeContext(7, 9));
  EXPECT_EQ(obj->class_id, cls);
  EXPECT_EQ(obj->size_bytes, 32u);
  EXPECT_EQ(markword::Context(obj->LoadMark()), markword::MakeContext(7, 9));
  EXPECT_EQ(markword::Age(obj->LoadMark()), 0u);
  // Payload zeroed.
  EXPECT_EQ(obj->RefSlotAt(0)->load(), nullptr);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(obj->payload() + 8), 0u);
}

TEST_F(HeapTest, IdentityHashesAreAssignedAndMostlyDistinct) {
  ClassId cls = heap_->classes().RegisterInstance("H", 8, {});
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  std::set<uint32_t> hashes;
  for (int i = 0; i < 100; i++) {
    Object* obj = AllocInRegion(r, cls, heap_->InstanceAllocSize(cls));
    hashes.insert(markword::IdentityHash(obj->LoadMark()));
  }
  EXPECT_GT(hashes.size(), 95u);
}

TEST_F(HeapTest, RefArrayLengthAndSlots) {
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  ClassId cls = heap_->classes().ref_array_class();
  Object* arr = AllocInRegion(r, cls, heap_->RefArrayAllocSize(4), 4);
  EXPECT_EQ(arr->ArrayLength(), 4u);
  for (uint64_t i = 0; i < 4; i++) {
    EXPECT_EQ(arr->RefArraySlot(i)->load(), nullptr);
  }
}

TEST_F(HeapTest, ForEachRefSlotInstance) {
  ClassId cls = heap_->classes().RegisterInstance("Two", 24, {0, 16});
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  Object* obj = AllocInRegion(r, cls, heap_->InstanceAllocSize(cls));
  int count = 0;
  heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { count++; });
  EXPECT_EQ(count, 2);
}

TEST_F(HeapTest, ForEachRefSlotRefArray) {
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  Object* arr = AllocInRegion(r, heap_->classes().ref_array_class(),
                              heap_->RefArrayAllocSize(7), 7);
  int count = 0;
  heap_->ForEachRefSlot(arr, [&](std::atomic<Object*>* slot) { count++; });
  EXPECT_EQ(count, 7);
}

TEST_F(HeapTest, ForEachRefSlotDataArrayHasNone) {
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  Object* arr = AllocInRegion(r, heap_->classes().data_array_class(),
                              heap_->DataArrayAllocSize(100), 100);
  int count = 0;
  heap_->ForEachRefSlot(arr, [&](std::atomic<Object*>* slot) { count++; });
  EXPECT_EQ(count, 0);
}

// Barrier table: tenured (old, gen, humongous) -> young stores set exactly
// the stored slot's bit in the slot's own region and leave the young region
// without remset entries; young -> young, same-region, null and
// old -> old stores set no bit (old -> old records a source entry instead).
TEST_F(HeapTest, StoreBarrierRecordsSlotBitForTenuredToYoung) {
  ClassId cls = heap_->classes().RegisterInstance("Link", 16, {0, 8});
  RegionManager& regions = heap_->regions();
  Region* eden_r = regions.AllocateRegion(RegionKind::kEden);
  Object* dst = AllocInRegion(eden_r, cls, heap_->InstanceAllocSize(cls));
  for (RegionKind kind : {RegionKind::kOld, RegionKind::kGen}) {
    Region* src_r = regions.AllocateRegion(kind, kind == RegionKind::kGen ? 3 : 0);
    Object* src = AllocInRegion(src_r, cls, heap_->InstanceAllocSize(cls));
    ASSERT_FALSE(src_r->has_young_slots());
    heap_->StoreRef(src, src->RefSlotAt(8), dst);
    EXPECT_TRUE(src_r->HasYoungSlot(src->RefSlotAt(8)));
    EXPECT_FALSE(src_r->HasYoungSlot(src->RefSlotAt(0)));
    EXPECT_EQ(src_r->CountYoungSlots(), 1u);
    EXPECT_TRUE(src_r->has_young_slots());
    heap_->StoreRef(src, src->RefSlotAt(8), dst);  // already recorded
    EXPECT_EQ(src_r->CountYoungSlots(), 1u);
    EXPECT_EQ(heap_->LoadRef(src->RefSlotAt(8)), dst);
  }
  // A humongous ref array: the slot's bit lands in the continuation region
  // that holds it, not in the head region.
  uint64_t len = 2 * kMiB / sizeof(Object*);
  size_t bytes = heap_->RefArrayAllocSize(len);
  Region* head = regions.AllocateHumongous(bytes);
  ASSERT_NE(head, nullptr);
  Object* big = heap_->InitializeObject(head->begin(), heap_->classes().ref_array_class(),
                                        bytes, len, 0);
  std::atomic<Object*>* far_slot = big->RefArraySlot(len - 1);
  Region* cont = regions.RegionFor(far_slot);
  ASSERT_EQ(cont->kind(), RegionKind::kHumongousCont);
  heap_->StoreRef(big, far_slot, dst);
  EXPECT_TRUE(cont->HasYoungSlot(far_slot));
  EXPECT_EQ(cont->CountYoungSlots(), 1u);
  EXPECT_EQ(head->CountYoungSlots(), 0u);
  EXPECT_EQ(eden_r->RemsetRegionCount(), 0u);
}

TEST_F(HeapTest, StoreBarrierSkipsYoungToYoung) {
  ClassId cls = heap_->classes().RegisterInstance("Link", 8, {0});
  Region* a = heap_->regions().AllocateRegion(RegionKind::kEden);
  Region* b = heap_->regions().AllocateRegion(RegionKind::kEden);
  Object* src = AllocInRegion(a, cls, heap_->InstanceAllocSize(cls));
  Object* dst = AllocInRegion(b, cls, heap_->InstanceAllocSize(cls));
  heap_->StoreRef(src, src->RefSlotAt(0), dst);
  EXPECT_EQ(b->RemsetRegionCount(), 0u);
  EXPECT_EQ(a->CountYoungSlots(), 0u);
  EXPECT_FALSE(a->has_young_slots());
}

TEST_F(HeapTest, StoreBarrierRecordsOldToOldCrossRegion) {
  ClassId cls = heap_->classes().RegisterInstance("Link", 8, {0});
  Region* a = heap_->regions().AllocateRegion(RegionKind::kOld);
  Region* b = heap_->regions().AllocateRegion(RegionKind::kOld);
  Object* src = AllocInRegion(a, cls, heap_->InstanceAllocSize(cls));
  Object* dst = AllocInRegion(b, cls, heap_->InstanceAllocSize(cls));
  heap_->StoreRef(src, src->RefSlotAt(0), dst);
  EXPECT_TRUE(b->RemsetContainsRegion(a->index()));
  EXPECT_EQ(a->CountYoungSlots(), 0u);
}

TEST_F(HeapTest, StoreBarrierSkipsSameRegionAndNull) {
  ClassId cls = heap_->classes().RegisterInstance("Link", 16, {0, 8});
  Region* a = heap_->regions().AllocateRegion(RegionKind::kOld);
  Object* src = AllocInRegion(a, cls, heap_->InstanceAllocSize(cls));
  Object* dst = AllocInRegion(a, cls, heap_->InstanceAllocSize(cls));
  heap_->StoreRef(src, src->RefSlotAt(0), dst);
  heap_->StoreRef(src, src->RefSlotAt(8), nullptr);
  EXPECT_EQ(a->RemsetRegionCount(), 0u);
  EXPECT_EQ(a->CountYoungSlots(), 0u);
  EXPECT_FALSE(a->has_young_slots());
}

TEST_F(HeapTest, GlobalRefRegistersAndUnregisters) {
  EXPECT_EQ(heap_->roots().Count(), 0u);
  {
    GlobalRef ref(&heap_->roots(), nullptr);
    EXPECT_EQ(heap_->roots().Count(), 1u);
  }
  EXPECT_EQ(heap_->roots().Count(), 0u);
}

TEST_F(HeapTest, GlobalRefMovePreservesRegistration) {
  GlobalRef a(&heap_->roots(), nullptr);
  GlobalRef b = std::move(a);
  EXPECT_EQ(heap_->roots().Count(), 1u);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
}

TEST_F(HeapTest, HumongousSizeThreshold) {
  EXPECT_FALSE(heap_->IsHumongousSize(kMiB / 2 - 8));
  EXPECT_TRUE(heap_->IsHumongousSize(kMiB / 2));
  EXPECT_TRUE(heap_->IsHumongousSize(3 * kMiB));
}

TEST_F(HeapTest, AllocatedBytesAreCallerAccounted) {
  // InitializeObject no longer touches the shared allocated-bytes counter
  // (mutator threads batch their credits and drain them via
  // AddAllocatedBytes at safepoints / detach — see RuntimeThread).
  ClassId cls = heap_->classes().RegisterInstance("C", 16, {});
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  uint64_t before = heap_->total_allocated_bytes();
  AllocInRegion(r, cls, heap_->InstanceAllocSize(cls));
  EXPECT_EQ(heap_->total_allocated_bytes(), before);
  heap_->AddAllocatedBytes(32);
  EXPECT_EQ(heap_->total_allocated_bytes(), before + 32);
}

TEST_F(HeapTest, MaxUsedBytesTracksHighWater) {
  Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
  r->BumpAlloc(1000);
  heap_->UpdateMaxUsedBytes();
  EXPECT_GE(heap_->max_used_bytes(), 1000u);
  uint64_t peak = heap_->max_used_bytes();
  heap_->regions().FreeRegion(r);
  heap_->UpdateMaxUsedBytes();
  EXPECT_EQ(heap_->max_used_bytes(), peak);  // high water does not drop
}

}  // namespace
}  // namespace rolp
