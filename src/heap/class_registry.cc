#include "src/heap/class_registry.h"

#include <mutex>

#include "src/util/check.h"

namespace rolp {

ClassRegistry::ClassRegistry() {
  ref_array_class_ = RegisterRefArray("Object[]");
  data_array_class_ = RegisterDataArray("byte[]");
}

ClassRegistry::~ClassRegistry() {
  for (std::atomic<ClassInfo*>& bucket : buckets_) {
    delete[] bucket.load(std::memory_order_relaxed);
  }
}

ClassId ClassRegistry::RegisterInstance(const std::string& name, uint32_t payload_size,
                                        std::vector<uint32_t> ref_offsets) {
  ROLP_CHECK(payload_size % kObjectAlignment == 0);
  for (uint32_t off : ref_offsets) {
    ROLP_CHECK(off % sizeof(Object*) == 0);
    ROLP_CHECK(off + sizeof(Object*) <= payload_size);
  }
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kInstance;
  info.payload_size = payload_size;
  info.ref_offsets = std::move(ref_offsets);
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterRefArray(const std::string& name) {
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kRefArray;
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterDataArray(const std::string& name) {
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kDataArray;
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterLocked(ClassInfo info) {
  std::lock_guard<SpinLock> guard(lock_);
  uint32_t id = size_.load(std::memory_order_relaxed);
  ROLP_CHECK(id < kFreeBlockClassId);
  Slot slot = SlotOf(id);
  ClassInfo* entries = buckets_[slot.bucket].load(std::memory_order_relaxed);
  if (entries == nullptr) {
    entries = new ClassInfo[kFirstBucketSize << slot.bucket];
    buckets_[slot.bucket].store(entries, std::memory_order_relaxed);
  }
  info.id = id;
  entries[slot.index] = std::move(info);
  size_.store(id + 1, std::memory_order_release);  // publishes entry and bucket
  return id;
}

}  // namespace rolp
