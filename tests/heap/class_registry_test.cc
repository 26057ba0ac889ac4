#include "src/heap/class_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace rolp {
namespace {

TEST(ClassRegistryTest, PreRegisteredArrayClasses) {
  ClassRegistry reg;
  EXPECT_EQ(reg.Get(reg.ref_array_class()).kind, ClassKind::kRefArray);
  EXPECT_EQ(reg.Get(reg.data_array_class()).kind, ClassKind::kDataArray);
  EXPECT_EQ(reg.NumClasses(), 2u);
}

TEST(ClassRegistryTest, RegisterInstanceClass) {
  ClassRegistry reg;
  ClassId id = reg.RegisterInstance("Foo", 32, {0, 8});
  const ClassInfo& info = reg.Get(id);
  EXPECT_EQ(info.name, "Foo");
  EXPECT_EQ(info.kind, ClassKind::kInstance);
  EXPECT_EQ(info.payload_size, 32u);
  EXPECT_EQ(info.ref_offsets.size(), 2u);
}

TEST(ClassRegistryTest, IdsAreSequential) {
  ClassRegistry reg;
  ClassId a = reg.RegisterInstance("A", 8, {});
  ClassId b = reg.RegisterInstance("B", 8, {});
  EXPECT_EQ(b, a + 1);
}

TEST(ClassRegistryTest, ReferencesStayValidAcrossRegistrations) {
  ClassRegistry reg;
  ClassId a = reg.RegisterInstance("A", 8, {});
  const ClassInfo& info_a = reg.Get(a);
  for (int i = 0; i < 1000; i++) {
    reg.RegisterInstance("X" + std::to_string(i), 8, {});
  }
  EXPECT_EQ(info_a.name, "A");
}

// Get is lock-free: readers racing a registering thread must only ever see
// fully published entries (run under the tsan preset).
TEST(ClassRegistryTest, GetRacesRegistration) {
  ClassRegistry reg;
  constexpr uint32_t kClasses = 3000;  // spans several buckets
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&] {
      uint64_t checked = 0;
      while (!done.load(std::memory_order_acquire) || checked == 0) {
        size_t n = reg.NumClasses();
        for (ClassId id = 2; id < n; id += 7) {
          const ClassInfo& info = reg.Get(id);
          EXPECT_EQ(info.id, id);
          EXPECT_EQ(info.payload_size, 8u * (id % 4 + 1));
          EXPECT_EQ(info.name, "C" + std::to_string(id));
          checked++;
        }
        const ClassInfo& newest = reg.Get(static_cast<ClassId>(n - 1));
        EXPECT_EQ(newest.id, n - 1);
      }
    });
  }
  for (uint32_t i = 2; i < kClasses; i++) {
    ClassId id = reg.RegisterInstance("C" + std::to_string(i), 8 * (i % 4 + 1), {0});
    ASSERT_EQ(id, i);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(reg.NumClasses(), kClasses);
}

TEST(ClassRegistryDeathTest, GetRejectsOutOfRangeId) {
  ClassRegistry reg;
  reg.RegisterInstance("A", 8, {});
  EXPECT_DEATH(reg.Get(static_cast<ClassId>(reg.NumClasses())), "CHECK failed");
}

TEST(ClassRegistryDeathTest, RejectsMisalignedPayload) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 13, {}), "CHECK failed");
}

TEST(ClassRegistryDeathTest, RejectsOutOfRangeRefOffset) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 16, {16}), "CHECK failed");
}

TEST(ClassRegistryDeathTest, RejectsMisalignedRefOffset) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 16, {4}), "CHECK failed");
}

}  // namespace
}  // namespace rolp
