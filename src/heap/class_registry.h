// Class descriptors: the GC needs to know, for every object, which payload
// offsets hold references. Workloads register their classes at startup.
#ifndef SRC_HEAP_CLASS_REGISTRY_H_
#define SRC_HEAP_CLASS_REGISTRY_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/heap/object.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace rolp {

enum class ClassKind : uint8_t {
  kInstance,   // fixed payload size, explicit reference offsets
  kRefArray,   // variable length array of references
  kDataArray,  // variable length array of raw bytes (no references)
};

struct ClassInfo {
  ClassId id = 0;
  std::string name;
  ClassKind kind = ClassKind::kInstance;
  uint32_t payload_size = 0;             // kInstance only
  std::vector<uint32_t> ref_offsets;     // kInstance only, payload byte offsets
};

// Append-only table. Registration is serialized by a lock; Get and
// NumClasses are lock-free: entries live in buckets that never move (bucket
// b holds kFirstBucketSize << b entries, allocated when the first id in it
// is registered), and each entry is published by a release store of the
// class count after it is fully written.
class ClassRegistry {
 public:
  ClassRegistry();
  ~ClassRegistry();

  ClassRegistry(const ClassRegistry&) = delete;
  ClassRegistry& operator=(const ClassRegistry&) = delete;

  // Registers a fixed-size instance class. ref_offsets are payload byte
  // offsets of reference fields; each must be 8-aligned and within
  // payload_size.
  ClassId RegisterInstance(const std::string& name, uint32_t payload_size,
                           std::vector<uint32_t> ref_offsets);

  ClassId RegisterRefArray(const std::string& name);
  ClassId RegisterDataArray(const std::string& name);

  // Safe against concurrent registration; the returned reference stays valid
  // for the registry's lifetime.
  const ClassInfo& Get(ClassId id) const {
    ROLP_CHECK(id < size_.load(std::memory_order_acquire));
    Slot slot = SlotOf(id);
    // The acquire above ordered this bucket's publication before us.
    return buckets_[slot.bucket].load(std::memory_order_relaxed)[slot.index];
  }
  size_t NumClasses() const { return size_.load(std::memory_order_acquire); }

  // Pre-registered array classes available on every heap.
  ClassId ref_array_class() const { return ref_array_class_; }
  ClassId data_array_class() const { return data_array_class_; }

 private:
  static constexpr int kFirstBucketLog2 = 6;
  static constexpr uint64_t kFirstBucketSize = uint64_t{1} << kFirstBucketLog2;
  // Enough buckets for every 32-bit id.
  static constexpr int kNumBuckets = 33 - kFirstBucketLog2;

  struct Slot {
    int bucket;
    uint64_t index;
  };
  static Slot SlotOf(ClassId id) {
    uint64_t x = uint64_t{id} + kFirstBucketSize;
    int bucket = 63 - __builtin_clzll(x) - kFirstBucketLog2;
    return {bucket, x - (kFirstBucketSize << bucket)};
  }

  ClassId RegisterLocked(ClassInfo info);

  SpinLock lock_;  // serializes registration
  std::atomic<uint32_t> size_{0};
  std::atomic<ClassInfo*> buckets_[kNumBuckets] = {};
  ClassId ref_array_class_;
  ClassId data_array_class_;
};

}  // namespace rolp

#endif  // SRC_HEAP_CLASS_REGISTRY_H_
