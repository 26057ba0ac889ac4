// The ROLP profiler facade.
//
// Mutator side (called by the runtime's allocation path):
//   * RecordAllocationWithGen(context, buffer): the allocation fast lane —
//     one OLD-table probe (usually absorbed by the per-thread sample buffer)
//     both records the sample and returns the pretenuring decision stored in
//     the row (DESIGN.md §9)
//   * RecordAllocation(context): increment-only variant (NG2C sample feed)
//
// Collector side (ProfilerHooks, all called with the world stopped):
//   * OnSurvivor: per-GC-worker private table updates (paper section 7.6)
//   * OnGcEnd: private-table merge + every-16-cycles lifetime inference
//     (section 4), conflict resolution (section 5), survivor-tracking
//     shut-off (section 7.4)
//   * OnGenFragmentation: estimated-lifetime demotion (section 6)
#ifndef SRC_ROLP_PROFILER_H_
#define SRC_ROLP_PROFILER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/gc/profiler_hooks.h"
#include "src/rolp/alloc_buffer.h"
#include "src/rolp/conflict_resolver.h"
#include "src/rolp/curve_analysis.h"
#include "src/rolp/old_table.h"
#include "src/rolp/package_filter.h"

namespace rolp {

struct RolpConfig {
  // Run inference every this many GC cycles (paper: 16, the max object age).
  uint32_t inference_period = 16;
  // P: fraction of profilable call sites enabled per conflict-resolution
  // round (paper recommends <= 0.20).
  double conflict_p = 0.20;
  // Dynamically shut off survivor tracking when decisions are stable
  // (paper section 7.4).
  bool auto_survivor_tracking = true;
  // Re-enable survivor tracking when the average pause regresses by more
  // than this fraction over the last value seen while tracking was active.
  double pause_regression_threshold = 0.10;
  size_t old_table_entries = OldTable::kInitialEntries;
  // Per-thread allocation sample buffer (fast lane, DESIGN.md §9): number of
  // direct-mapped slots, rounded up to a power of two. 0 disables buffering
  // (every profiled allocation probes the shared table directly).
  uint32_t alloc_buffer_slots = AllocBuffer::kDefaultSlots;
  uint32_t max_gc_workers = 16;
  // Dynamic generations span 1..14; estimated ages clamp into this range
  // (age 15 maps to the old generation).
  uint8_t max_gen = 14;
  uint64_t seed = 0x5eed;

  // --- Degraded-mode thresholds (robustness) -------------------------------
  // Enter degraded mode when the OLD table drops more than this many samples
  // within a single GC cycle (saturation). An absolute per-cycle delta rather
  // than a drop *ratio*: a ratio would need a total-samples counter on the
  // mutator hot path.
  uint64_t degrade_dropped_per_cycle = 4096;
  // Leave degraded mode after this many consecutive cycles with no (or
  // negligible) new drops.
  uint32_t rearm_clean_cycles = 8;
  // Enter degraded mode when fragmentation feedback demotes contexts this
  // many times within one inference window (decision churn: the profiler is
  // fighting itself).
  uint32_t degrade_demotion_churn = 8;
  // A per-age survivor count above this is implausible (corrupt header or
  // counter): OldTable counts are 32-bit, so 2^31 within one 16-cycle window
  // cannot come from real survivors.
  uint64_t implausible_count = 1ull << 31;
  // After re-arming, suppress the stable-decisions tracking shut-off for this
  // many inferences. Degraded mode cleared both decisions and histograms, so
  // the first post-re-arm inferences see a stable *empty* state; shutting
  // tracking off on that would starve the profiler permanently.
  uint32_t rearm_grace_inferences = 4;
  // Enter degraded mode after this many GC-watchdog overruns observed while
  // survivor tracking was active (ladder rung 4: if GC keeps blowing its
  // deadline while we are profiling survivors, stop adding profiler weight
  // to the pause).
  uint32_t degrade_overrun_threshold = 2;
  // Run lifetime inference on a background thread: OnGcEnd only snapshots the
  // OLD table at an inference boundary; the analysis happens off-pause and the
  // resulting decisions are staged for publication at the NEXT safepoint.
  // Default off so directly-constructed profilers (unit tests) keep the
  // synchronous run-inference-inside-OnGcEnd semantics; the VM wires this from
  // ROLP_ASYNC_INFERENCE (default on).
  bool async_inference = false;
};

// Why the profiler last entered degraded mode.
enum class DegradeReason : uint8_t {
  kNone,
  kOldTableSaturation,    // dropped-sample rate over threshold
  kImplausibleHistogram,  // per-age count beyond any physical rate
  kDemotionChurn,         // fragmentation feedback thrashing decisions
  kGcOverrun,             // watchdog overruns correlated with survivor tracking
  kHeapCorruption,        // in-pause heap verification found (and repaired) damage
  kHeapPressure,          // governor at/above the degrade watermark
};

const char* DegradeReasonName(DegradeReason reason);

class Profiler : public ProfilerHooks {
 public:
  explicit Profiler(const RolpConfig& config);
  ~Profiler() override;

  // The runtime's JIT engine registers itself so the conflict resolver can
  // toggle call-site tracking. May be null (e.g. unit tests).
  void SetCallSiteControl(CallSiteControl* control);

  // --- Mutator-side API ----------------------------------------------------
  // The fast lane: records one allocation and returns the estimated target
  // generation (0 = young, 1..14 = dynamic generation, 15 = old) in a single
  // OLD-table probe — or no probe at all when the caller's sample buffer
  // absorbs the increment.
  uint8_t RecordAllocationWithGen(uint32_t context, AllocBuffer* buffer) {
    if (buffer != nullptr && buffer->enabled()) {
      return buffer->Record(old_table_, context);
    }
    int r = old_table_.RecordAllocationAndGen(context);
    return r < 0 ? 0 : static_cast<uint8_t>(r);
  }

  // Increment-only variant: feeds the OLD table without consulting decisions
  // (NG2C mode, where the hand-placed annotation decides the generation).
  void RecordAllocation(uint32_t context) { old_table_.RecordAllocation(context); }

  // Decision lookup against the safepoint-side source of truth (the
  // DecisionMap). The allocation hot path no longer calls this — it reads the
  // decision byte fused into the OLD-table row; this survives for tests,
  // introspection, and safepoint-side consumers.
  uint8_t TargetGen(uint32_t context) const {
    const DecisionMap* d = decisions_.load(std::memory_order_acquire);
    auto it = d->find(context);
    return it == d->end() ? 0 : it->second;
  }

  // --- ProfilerHooks (world stopped) ---------------------------------------
  bool SurvivorTrackingEnabled() const override {
    return survivor_tracking_.load(std::memory_order_relaxed);
  }
  void OnSurvivor(uint32_t worker_id, uint64_t old_mark) override;
  void OnGcEnd(const GcEndInfo& info) override;
  void OnGenFragmentation(uint8_t gen, double live_ratio) override;
  void OnGcOverrun(bool survivor_tracking_active) override;
  void OnHeapCorruption(size_t finding_count) override;
  // Heap-pressure governor rung 3 (called world-stopped from VM::OnGcEnd):
  // under_pressure=true sheds the profiler's pause and memory weight by
  // entering degraded mode; re-arm is held off until the pressure clears AND
  // the usual quiet condition holds for rearm_clean_cycles cycles.
  void OnHeapPressure(bool under_pressure);

  // --- Introspection (tables, benches, tests) ------------------------------
  OldTable& old_table() { return old_table_; }
  const RolpConfig& config() const { return config_; }
  ConflictResolver* resolver() { return resolver_.get(); }
  uint64_t inferences_run() const { return inferences_; }
  uint64_t conflicts_total() const { return conflicts_total_; }
  uint64_t decisions_count() const {
    return decisions_.load(std::memory_order_acquire)->size();
  }
  uint64_t survivors_seen() const { return survivors_seen_.load(std::memory_order_relaxed); }
  uint64_t survivors_skipped_biased() const {
    return survivors_skipped_biased_.load(std::memory_order_relaxed);
  }
  uint64_t survivor_tracking_toggles() const { return tracking_toggles_; }
  // Degraded mode: profiling is suspended (decisions cleared, TargetGen -> 0,
  // survivor tracking off) until the trouble signal stays quiet for
  // rearm_clean_cycles GC cycles.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  uint64_t degraded_entries() const { return degraded_entries_; }
  DegradeReason last_degrade_reason() const { return last_degrade_reason_; }
  uint64_t survivors_dropped() const {
    return survivors_dropped_.load(std::memory_order_relaxed);
  }
  // Heap-verifier corruption reports delivered via OnHeapCorruption.
  uint64_t heap_corruption_reports() const { return heap_corruption_reports_; }
  // First GC cycle at which a non-empty decision set existed (warmup metric,
  // Fig. 10); 0 if never.
  uint64_t first_decision_cycle() const { return first_decision_cycle_; }
  std::unordered_map<uint32_t, uint8_t> DecisionsSnapshot() const {
    return *decisions_.load(std::memory_order_acquire);
  }
  // Retired decision maps awaiting safepoint reclamation (tests: bounded).
  size_t retired_decision_maps() const { return retired_decisions_.size(); }
  // Force one inference now (tests). Always synchronous, even with
  // async_inference on; any in-flight async snapshot becomes stale.
  void RunInferenceNow();
  // Blocks until the background inference thread has no snapshot in flight
  // (benches/tests). No-op when async inference is off.
  void WaitForStagedInference();
  // Async-inference introspection. Started counts snapshots handed to the
  // background thread; discarded counts staged outputs dropped because the
  // table epoch moved (degraded-mode transition, demotion, sync inference)
  // between snapshot and the publish safepoint.
  uint64_t async_inferences_started() const;
  uint64_t stale_inferences_discarded() const;
  // True while an analyzed decision set is staged awaiting the next safepoint.
  bool staged_inference_pending() const;

  // Writes a human-readable introspection dump: OLD-table stats, degraded
  // state, the current DecisionMap, and every occupied row with its age
  // histogram (rows and decisions sorted by context, so output is
  // deterministic for a given profiler state). Call from a quiesced state
  // (no mutators allocating, no GC running) for an exact snapshot; the VM
  // wires ROLP_DUMP_OLD_TABLE=<path> to this at teardown.
  void DumpIntrospection(std::FILE* out) const;
  // DumpIntrospection to a file; returns false (and logs) on I/O failure.
  bool WriteIntrospection(const std::string& path) const;

 private:
  using DecisionMap = std::unordered_map<uint32_t, uint8_t>;
  // worker -> context -> survivor counts by (pre-increment) age
  using WorkerTable = std::unordered_map<uint32_t, std::array<uint32_t, 16>>;

  // --- Off-pause inference pipeline -----------------------------------------
  // The analysis is a pure function over an immutable snapshot, so it can run
  // either inline (sync mode) or on the background thread (async mode):
  //   snapshot (safepoint) -> AnalyzeRows (anywhere) -> apply (safepoint).
  // `epoch` stamps the snapshot; any safepoint-side mutation of the decision
  // set or histograms bumps table_epoch_, so a staged output whose epoch no
  // longer matches is discarded instead of resurrecting pre-mutation state.
  struct InferenceInput {
    uint64_t epoch = 0;
    uint64_t seq = 0;  // inference ordinal (logging only)
    std::vector<std::pair<uint32_t, std::array<uint64_t, 16>>> rows;
    // Decisions at snapshot time, by pointer: copying the map would put its
    // full cost back inside the pause. The pointee stays valid for the whole
    // analysis because decision maps are only freed by ReclaimRetiredDecisions,
    // which defers while an analysis is in flight.
    const DecisionMap* base = nullptr;
  };
  struct InferenceOutput {
    uint64_t epoch = 0;
    bool implausible = false;
    // next != base, computed during analysis so the publish safepoint does
    // not pay a full map comparison. Valid under the epoch guard: no publish
    // separated the snapshot from the apply, so base still equals the live
    // map.
    bool changed = false;
    std::unique_ptr<DecisionMap> next;
    std::vector<uint32_t> conflicted_sites;
  };

  void MergeWorkerTables(WorkerPool* workers);
  void RunInference();
  InferenceInput SnapshotInferenceInput();
  InferenceOutput AnalyzeRows(const InferenceInput& in) const;
  void ApplyInferenceOutput(InferenceOutput out);
  // Snapshots the OLD table at an inference boundary and wakes the background
  // thread; skipped (no-op) while a previous snapshot is still in the pipe.
  void StartAsyncInference();
  // Publishes a staged output if its epoch is still current; returns whether
  // decisions were applied. World stopped.
  bool TryPublishStagedInference();
  void InferenceThreadLoop();

  // Publishes `next` as the current decision set: swaps the safepoint-side
  // map, writes the decisions back into OLD-table rows (the fast lane's
  // source), and retires the previous map for reclamation at the next
  // safepoint. World stopped.
  void PublishDecisions(std::unique_ptr<DecisionMap> next);
  // Frees retired maps. Safe once a safepoint separates retirement from the
  // last possible mutator read (TargetGen holds the pointer only within one
  // call, never across a pause). Defers while a background analysis is in
  // flight: its snapshot references a decision map by pointer, and that map
  // may have been retired since.
  void ReclaimRetiredDecisions();

  // Both run with the world stopped (called from the GC hooks only).
  void EnterDegraded(DegradeReason reason);
  void ExitDegraded();
  void PublishEmptyDecisions();

  RolpConfig config_;
  OldTable old_table_;
  std::unique_ptr<ConflictResolver> resolver_;
  CallSiteControl* callsites_ = nullptr;

  std::vector<WorkerTable> worker_tables_;

  std::atomic<DecisionMap*> decisions_;    // points at live_decisions_
  std::unique_ptr<DecisionMap> live_decisions_;
  // Maps superseded since the last safepoint reclamation. A mutator stuck
  // inside TargetGen can still be reading the most recently retired map, so
  // retirees are only freed at the next world-stopped point (OnGcEnd /
  // RunInferenceNow) — bounded, unlike the retired-forever history this
  // replaces.
  std::vector<std::unique_ptr<DecisionMap>> retired_decisions_;

  std::atomic<bool> survivor_tracking_{true};
  double last_tracking_avg_pause_ns_ = 0.0;
  double recent_pause_ema_ns_ = 0.0;
  bool decisions_changed_since_last_inference_ = true;

  uint64_t inferences_ = 0;
  uint64_t conflicts_total_ = 0;
  // Sites the OLD table has grown for. A conflict grows it once (paper
  // section 7.5: 4 MB per conflict), however many inferences re-report it.
  std::unordered_set<uint32_t> grown_conflict_sites_;
  uint64_t tracking_toggles_ = 0;
  uint64_t first_decision_cycle_ = 0;
  std::atomic<uint64_t> survivors_seen_{0};
  std::atomic<uint64_t> survivors_skipped_biased_{0};
  std::atomic<uint64_t> survivors_dropped_{0};

  // Degraded-mode state (mutated only with the world stopped).
  std::atomic<bool> degraded_{false};
  uint64_t degraded_entries_ = 0;
  DegradeReason last_degrade_reason_ = DegradeReason::kNone;
  uint64_t last_dropped_seen_ = 0;  // dropped_samples() at the previous GC end
  uint32_t clean_cycles_ = 0;       // consecutive quiet cycles while degraded
  uint32_t demotion_churn_ = 0;     // demotions since the last inference
  uint32_t rearm_grace_left_ = 0;   // inferences left with shut-off suppressed
  uint32_t overruns_while_tracking_ = 0;  // watchdog overruns with tracking on
  uint64_t heap_corruption_reports_ = 0;  // OnHeapCorruption calls (world stopped)
  uint64_t last_corruption_seen_ = 0;     // reports at the previous GC end
  bool heap_pressure_ = false;            // governor >= degrade rung right now

  // Off-pause inference state. table_epoch_ is only touched by safepoint-side
  // code; everything else crossing the background thread sits under inf_mu_.
  uint64_t table_epoch_ = 1;
  size_t last_snapshot_rows_ = 0;  // reserve hint for the next snapshot
  mutable std::mutex inf_mu_;
  std::condition_variable inf_cv_;       // wakes the thread: input or stop
  std::condition_variable inf_done_cv_;  // wakes waiters: analysis finished
  bool inf_stop_ = false;
  bool inf_busy_ = false;  // snapshot handed off, analysis not yet staged
  std::unique_ptr<InferenceInput> inf_input_;
  std::unique_ptr<InferenceOutput> inf_staged_;
  uint64_t async_inferences_started_ = 0;
  uint64_t stale_inferences_discarded_ = 0;
  std::thread inf_thread_;  // last member: joined in dtor before state dies
};

}  // namespace rolp

#endif  // SRC_ROLP_PROFILER_H_
