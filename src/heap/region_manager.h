// Reserves the heap with one 2MB-aligned mmap call and manages the region
// table, carved into N per-shard arenas (DESIGN.md section 15). Each arena
// owns an extent of the reservation, its own free list + lock, and (when
// enabled) a NUMA-node binding, THP advice, and an uncommit lifecycle that
// returns idle regions' RSS to the OS.
#ifndef SRC_HEAP_REGION_MANAGER_H_
#define SRC_HEAP_REGION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/heap/region.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace rolp {

// Arena-layer policy knobs. Defaults reproduce the pre-arena behavior exactly:
// one arena, no THP advice, no NUMA binding, never uncommit.
struct HeapArenaOptions {
  // Number of independent arenas the reservation is carved into. Clamped to
  // [1, num_regions / 4] at construction so every arena holds useful regions.
  size_t arenas = 1;
  // madvise(MADV_HUGEPAGE) the reservation (ROLP_HEAP_THP=on).
  bool thp = false;
  // Bind each arena's extent to a NUMA node round-robin via mbind
  // (ROLP_NUMA=on). Silently falls back to first-touch when the box has one
  // node or the syscall is unavailable.
  bool numa = false;
  // Regions continuously free for longer than this are uncommitted with
  // MADV_DONTNEED by a background sweeper (0 disables). Recommit on next
  // allocation is implicit: anonymous memory reads back as zero.
  int64_t uncommit_ms = 0;
  // Soft minimum of committed free regions retained heap-wide; the sweeper
  // never uncommits below max(soft_min_regions, evac_reserve).
  size_t soft_min_regions = 2;

  // Reads ROLP_HEAP_ARENAS (default ROLP_SHARDS, default 1), ROLP_HEAP_THP,
  // ROLP_NUMA, ROLP_HEAP_UNCOMMIT_MS, ROLP_HEAP_SOFT_MIN_REGIONS.
  static HeapArenaOptions FromEnv();
};

class RegionManager {
 public:
  // heap_bytes rounded up to a multiple of region_bytes; region_bytes must be
  // a power of two. The default-constructed HeapArenaOptions keeps the
  // historical single-arena behavior for direct users (tests).
  RegionManager(size_t heap_bytes, size_t region_bytes,
                const HeapArenaOptions& arena_opts = HeapArenaOptions());
  ~RegionManager();

  RegionManager(const RegionManager&) = delete;
  RegionManager& operator=(const RegionManager&) = delete;

  // Takes a free region and transitions it to the given kind. Returns nullptr
  // if the heap is exhausted. Mutator-sourced requests (the default) also fail
  // once the free pool would dip into the evacuation reserve; GC-internal
  // requests (evacuation/promotion destinations) pass gc_internal=true and may
  // consume the reserve — that is what it is for: an evacuation that cannot
  // get a destination region self-forwards and the failed region is retired or
  // quarantined, which under sustained pressure cascades toward full-heap
  // quarantine. The reserve keeps copying alive while mutators are shed.
  // The reserve is a single heap-wide guarantee (enforced on the global free
  // counter), never multiplied per-arena. Allocation prefers the calling
  // thread's home arena and steals from the others when it drains.
  Region* AllocateRegion(RegionKind kind, uint8_t gen = 0, bool gc_internal = false);

  // Allocates ceil(bytes / region_size) contiguous regions for one humongous
  // object. The run never straddles an arena boundary. Returns the head region
  // or nullptr. Mutator-sourced (never dips into the evacuation reserve).
  Region* AllocateHumongous(size_t object_bytes);

  // Regions held back from mutator allocation so GC evacuation always has
  // destinations (0 disables). Set once at heap construction.
  void set_evac_reserve(size_t regions) { evac_reserve_ = regions; }
  size_t evac_reserve() const { return evac_reserve_; }

  // Returns a region (and its humongous continuations) to the free pool.
  void FreeRegion(Region* region);

  // Pause-time promotion: transitions a region to kOld (gen 0), keeping the
  // incremental tenured count coherent. Used by evacuation-failure recovery
  // and mark-compact instead of raw set_kind. A young region pinned by an
  // unscannable region's slot bit gets that pin as a remset entry, which is
  // how old regions stay pinned.
  void RetireToOld(Region* region);

  // Verifier recovery: pins the region out of all future collection sets and
  // out of the free pool. Young regions are retired to old first so the
  // barrier and cset selection treat them as tenured. `walkable` states
  // whether the region's object tiling was intact at quarantine time (only
  // walkable quarantined regions may ever be scanned again). Idempotent;
  // must run inside a pause.
  void Quarantine(Region* region, bool walkable);
  // Lifts a *walkable* quarantine. Only the full mark-compact cycle may call
  // this: it recomputes liveness from roots without remsets, which removes
  // the reason the region was pinned. Unscannable regions stay quarantined
  // forever. No-op for regions that are not quarantined.
  void Unquarantine(Region* region);
  size_t quarantined_regions() const {
    return quarantined_regions_.load(std::memory_order_relaxed);
  }
  // Indices of quarantined regions that cannot be walked. Small (each entry
  // is a distinct corruption event); callers use it to keep unscannable
  // regions out of remset-source scans and collection sets.
  std::vector<uint32_t> UnscannableQuarantined() const;
  // True when an unscannable quarantined region holds an edge into `region`:
  // a remset entry naming it (old targets), or one of its set slot bits whose
  // slot points into `region` (young targets). Collecting the region would
  // require scanning a region we cannot walk.
  bool PinnedByQuarantine(const Region* region) const;

  // Region holding address p: one subtract and shift (region_bytes is a
  // power of two). On every slot visit, copy and write barrier.
  Region* RegionFor(const void* p) {
    ROLP_DCHECK(Contains(p));
    return &regions_[static_cast<size_t>(static_cast<const char*>(p) - base_) >> region_shift_];
  }
  const Region* RegionFor(const void* p) const {
    return const_cast<RegionManager*>(this)->RegionFor(p);
  }
  // Region whose object walk covers `slot`: the slot's own region, or the
  // head of its humongous run (remset entries name walkable sources).
  Region* ObjectRegionFor(const void* slot) {
    Region* r = RegionFor(slot);
    while (r->kind() == RegionKind::kHumongousCont && r->index() > 0) {
      r = &regions_[r->index() - 1];
    }
    return r;
  }

  // Records the cross-region edge held in `slot`, a field of an object in
  // `src` (its head region for humongous objects), pointing into `target`:
  // a slot bit in the slot's own region for a young target held by a
  // non-young source, a source entry in the target's remset for an old
  // target. Young-to-young and same-region edges need no record.
  // `src_tenured` records under tenured-source rules while `src` is still
  // young (a young region about to be pinned as old).
  void RecordEdge(Region* src, const void* slot, Region* target, bool src_tenured = false) {
    if (target == src) {
      return;
    }
    if (target->IsYoung()) {
      if (src_tenured || !src->IsYoung()) {
        RegionFor(slot)->AddYoungSlot(slot);
      }
      return;
    }
    target->RemsetAddRegion(src->index());
  }

  // Whether the edge RecordEdge(src, slot, target) would record is on file.
  // An old target is also covered by a slot bit: the edge moves to the
  // target's remset at the next young-slot scan (ScanYoungSlotRange).
  bool EdgeRecorded(const Region* src, const void* slot, const Region* target) const {
    if (target == src || (src->IsYoung() && target->IsYoung())) {
      return true;
    }
    if (RegionFor(slot)->HasYoungSlot(slot)) {
      return true;
    }
    return !target->IsYoung() && target->RemsetContainsRegion(src->index());
  }

  // Young-slot scan shared by the young collections: visits every set bit
  // of table words [word_begin, word_end) of `region`; heal(slot) heals the
  // recorded slot and returns its value. A slot still pointing into young
  // keeps its bit (and sets the region's flag). Otherwise the edge —
  // promoted, retired, or overwritten with an old reference since the bit
  // was set — moves to the target's remset, and with `clear` (world stopped
  // only) the bit is dropped. A free target is a dead object's stale slot:
  // nothing to record.
  template <typename Heal>
  void ScanYoungSlotRange(Region* region, size_t word_begin, size_t word_end, bool clear,
                          Heal&& heal) {
    size_t kept = region->ScanYoungSlots(
        word_begin, word_end, clear, [&](std::atomic<Object*>* slot) {
          Object* v = heal(slot);
          if (v == nullptr) {
            return false;
          }
          Region* vr = RegionFor(v);
          if (vr->IsYoung()) {
            return true;
          }
          Region* src = ObjectRegionFor(slot);
          if (!vr->IsFree() && vr != src) {
            vr->RemsetAddRegion(src->index());
          }
          return false;
        });
    if (kept > 0 && !region->has_young_slots()) {
      region->set_has_young_slots(true);
    }
  }

  // STW rescan of a region's whole slot table: the flag restarts clear and
  // is set again if any bit stays.
  template <typename Heal>
  void RescanYoungSlots(Region* region, Heal&& heal) {
    region->set_has_young_slots(false);
    ScanYoungSlotRange(region, 0, region->slot_words_in_use(), /*clear=*/true, heal);
  }

  bool Contains(const void* p) const {
    return p >= base_ && p < base_ + num_regions_ * region_bytes_;
  }

  const char* heap_base() const { return base_; }
  size_t region_bytes() const { return region_bytes_; }
  size_t num_regions() const { return num_regions_; }
  size_t free_regions() const {
    return total_free_.load(std::memory_order_relaxed);
  }
  size_t committed_bytes() const { return num_regions_ * region_bytes_; }

  // Regions currently in a tenured kind (old, dynamic gen, humongous head or
  // continuation), maintained incrementally at every kind transition — the
  // O(1) replacement for walking the region table with ComputeUsage just to
  // answer the mixed-collection occupancy trigger.
  size_t tenured_regions() const {
    return tenured_regions_.load(std::memory_order_relaxed);
  }

  static bool IsTenuredKind(RegionKind k) {
    return k == RegionKind::kOld || k == RegionKind::kGen ||
           k == RegionKind::kHumongous || k == RegionKind::kHumongousCont;
  }

  Region& region(size_t i) { return regions_[i]; }
  const Region& region(size_t i) const { return regions_[i]; }

  template <typename Fn>
  void ForEachRegion(Fn&& fn) {
    for (size_t i = 0; i < num_regions_; i++) {
      fn(&regions_[i]);
    }
  }

  // Count of non-free regions of each kind, and bytes used in them.
  struct Usage {
    size_t eden_regions = 0;
    size_t survivor_regions = 0;
    size_t old_regions = 0;
    size_t gen_regions = 0;
    size_t humongous_regions = 0;
    size_t used_bytes = 0;
  };
  Usage ComputeUsage() const;

  // --- Arena layer ----------------------------------------------------------
  size_t num_arenas() const { return arenas_.size(); }
  // Arena that owns region index `idx`.
  size_t ArenaOf(size_t idx) const { return arena_of_[idx]; }
  // Free regions currently in arena `a`'s list (approximate under load).
  size_t ArenaFreeRegions(size_t a) const;

  // One MADV_DONTNEED pass: uncommits regions continuously free since before
  // `now_ns - uncommit_ms`, respecting the soft-min retained pool. Returns the
  // number of regions uncommitted. Called by the background sweeper when
  // ROLP_HEAP_UNCOMMIT_MS > 0; public so tests can drive it deterministically.
  size_t UncommitIdleRegions(uint64_t now_ns);
  size_t uncommitted_regions() const {
    return uncommitted_now_.load(std::memory_order_relaxed);
  }
  uint64_t region_commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t region_uncommits() const { return uncommits_.load(std::memory_order_relaxed); }

  // Region-lock contention counters, summed across arenas: total lock
  // acquisitions on the allocation/free paths, and CPU-visible wait time spent
  // in contended acquisitions (the 1-CPU-container-proof scaling signal).
  uint64_t lock_acquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }
  uint64_t lock_stall_ns() const { return lock_stall_ns_.load(std::memory_order_relaxed); }

  // Pins the calling thread's home arena (-1 restores round-robin assignment).
  // Test hook: lets single-threaded tests target a specific arena.
  static void SetHomeArenaForTest(int arena);

 private:
  struct Arena {
    uint32_t first_region = 0;  // inclusive
    uint32_t end_region = 0;    // exclusive
    mutable SpinLock lock;
    std::vector<uint32_t> free_list;  // guarded by lock
    int numa_node = -1;               // -1: unbound
  };

  size_t HomeArena() const;
  // True when a set slot bit of the unscannable region `unscannable` names a
  // slot whose (untrusted) value points into `target`.
  bool UnscannableSlotsPointInto(Region& unscannable, const Region* target);
  // Pops one free region from arena `a` (committing it if needed) or returns
  // nullptr. The caller must already hold a unit of total_free_ entitlement.
  Region* PopFromArena(Arena& a);
  // Timed lock acquisition feeding the contention counters.
  void LockArena(Arena& a) const;
  void UncommitThreadBody();

  char* base_ = nullptr;
  size_t map_size_ = 0;  // full aligned reservation released in the dtor
  size_t region_bytes_ = 0;
  unsigned region_shift_ = 0;
  size_t num_regions_ = 0;
  // Heap-wide slot table (Region::AddYoungSlot): one bit per heap word,
  // reserved with MAP_NORESERVE so pages are zero-filled on first touch.
  uint64_t* slot_bits_ = nullptr;
  size_t slot_bits_bytes_ = 0;
  std::unique_ptr<Region[]> regions_;
  HeapArenaOptions opts_;

  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<uint8_t> arena_of_;  // region index -> arena index
  // Global free-region count. Allocation first claims an entitlement here
  // (CAS-decrement that respects the evacuation reserve), then scans arenas
  // for an actual entry; frees push first, then increment. The invariant
  // "list entries >= outstanding entitlements" makes the scan's retry loop
  // terminate, and keeps the reserve a heap-wide guarantee independent of how
  // free regions are distributed across arenas.
  std::atomic<size_t> total_free_{0};
  size_t evac_reserve_ = 0;

  // Commit lifecycle state. committed_[i] / free_since_ns_[i] are only
  // touched by a region's exclusive owner (the allocator that popped it, or
  // the sweeper while it holds the region out of the free list), so plain
  // bytes suffice.
  std::vector<uint8_t> committed_;
  std::vector<uint64_t> free_since_ns_;
  std::atomic<size_t> uncommitted_now_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> uncommits_{0};

  mutable std::atomic<uint64_t> lock_acquisitions_{0};
  mutable std::atomic<uint64_t> lock_stall_ns_{0};

  std::atomic<size_t> tenured_regions_{0};
  std::atomic<size_t> quarantined_regions_{0};
  mutable SpinLock quarantine_lock_;
  std::vector<uint32_t> unscannable_quarantined_;  // guarded by quarantine_lock_

  // Background uncommit sweeper (runs when opts_.uncommit_ms > 0).
  std::thread uncommit_thread_;
  std::mutex uncommit_mu_;
  std::condition_variable uncommit_cv_;
  bool uncommit_stop_ = false;
};

}  // namespace rolp

#endif  // SRC_HEAP_REGION_MANAGER_H_
