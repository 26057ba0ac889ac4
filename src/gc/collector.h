// Abstract collector interface. The runtime's allocation fast path is a TLAB
// bump; everything else (TLAB refill, pretenured allocation, humongous
// allocation, GC triggering) funnels into AllocateSlow.
#ifndef SRC_GC_COLLECTOR_H_
#define SRC_GC_COLLECTOR_H_

#include <memory>

#include "src/gc/gc_config.h"
#include "src/gc/gc_metrics.h"
#include "src/gc/heap_verifier.h"
#include "src/gc/profiler_hooks.h"
#include "src/gc/thread_context.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/gc/worker_pool.h"
#include "src/heap/heap.h"

namespace rolp {

struct AllocRequest {
  ClassId cls = 0;
  size_t total_bytes = 0;    // header + payload, aligned
  uint64_t array_length = 0; // for array classes
  uint32_t context = 0;      // allocation context to install (0 = unprofiled)
  // 0 = young, 1..14 = NG2C dynamic generation, 15 = old (pretenured).
  uint8_t target_gen = kYoungGen;
};

// Outcome of a slow-path allocation. Genuine out-of-memory is recoverable:
// the collector runs bounded GC-and-retry and then reports kOutOfMemory
// instead of aborting, so callers (workloads, services) can shed load, free
// caches, or fail the one request while the process lives on.
enum class AllocStatus : uint8_t {
  kOk,
  kOutOfMemory,  // bounded GC-and-retry exhausted without satisfying the request
};

struct AllocResult {
  Object* object = nullptr;
  AllocStatus status = AllocStatus::kOk;
  // Collections this request triggered before succeeding or giving up.
  uint8_t gc_attempts = 0;

  bool ok() const { return status == AllocStatus::kOk; }

  static AllocResult Ok(Object* obj, uint8_t attempts = 0) {
    return AllocResult{obj, AllocStatus::kOk, attempts};
  }
  static AllocResult OutOfMemory(uint8_t attempts) {
    return AllocResult{nullptr, AllocStatus::kOutOfMemory, attempts};
  }
};

// Cumulative in-pause verification accounting (see DESIGN.md section 12).
struct VerifyStats {
  uint64_t passes = 0;
  uint64_t findings = 0;
  uint64_t refs_healed = 0;
  uint64_t refs_nulled = 0;
  uint64_t passes_cancelled = 0;
  uint64_t regions_quarantined = 0;
};

class Collector {
 public:
  Collector(Heap* heap, const GcConfig& config, SafepointManager* safepoints);
  virtual ~Collector() = default;

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  virtual const char* name() const = 0;

  // Allocates and initializes an object when the TLAB fast path cannot. May
  // stop the world (bounded GC-and-retry). Never aborts: genuine exhaustion
  // comes back as AllocStatus::kOutOfMemory.
  virtual AllocResult AllocateSlow(MutatorContext* ctx, const AllocRequest& req) = 0;

  // Hands the mutator a fresh eden region for its TLAB, possibly collecting
  // first. Returns nullptr on out-of-memory.
  virtual Region* RefillTlab(MutatorContext* ctx) = 0;

  // Forces a full collection (tests, examples, leak reports).
  virtual void CollectFull(MutatorContext* ctx) = 0;

  // Called when a mutator thread exits; releases its TLAB region back.
  virtual void OnMutatorExit(MutatorContext* ctx) { ctx->tlab.Release(); }

  GcMetrics& metrics() { return metrics_; }
  const GcConfig& config() const { return config_; }
  Heap& heap() { return *heap_; }
  SafepointManager& safepoints() { return *safepoints_; }

  void set_profiler(ProfilerHooks* profiler) { profiler_ = profiler; }
  ProfilerHooks* profiler() const { return profiler_; }

  // nullptr when ROLP_WATCHDOG=0 (the disabled watchdog has no cost).
  GcWatchdog* watchdog() const { return watchdog_.get(); }
  // Replaces the env-configured watchdog (tests use short deadlines).
  void InstallWatchdog(const WatchdogConfig& config) {
    watchdog_ = std::make_unique<GcWatchdog>(config, workers_.get());
  }
  WorkerPool* workers() const { return workers_.get(); }

  // In-pause verification knobs (ROLP_VERIFY / ROLP_VERIFY_SAMPLE at
  // construction; tests and the runtime override, e.g. to install the
  // OLD-table cross-check or force exhaustive sampling).
  const VerifyOptions& verify_options() const { return verify_options_; }
  VerifyOptions& mutable_verify_options() { return verify_options_; }
  const VerifyStats& verify_stats() const { return verify_stats_; }

 protected:
  // Logs a pause in the metrics together with its "gc.pause" trace span.
  void RecordPause(const PauseRecord& rec);

  // Recovery policy for a completed verification pass: account the report,
  // log findings, abort (with crash context) on fatal corruption, and push
  // the profiler into degraded mode otherwise. Returns true if the report
  // carried any finding.
  bool ApplyVerification(const char* when, const HeapVerifier::Report& report);

  // Quarantines every region the post-evacuation check flagged (closing the
  // set over `doomed` first). Quarantined regions must not be freed by the
  // caller. Returns the quarantined region indices.
  std::vector<uint32_t> QuarantineFlagged(HeapVerifier* verifier,
                                          const std::vector<Region*>& doomed,
                                          HeapVerifier::Report* report);

  // An evacuation-failure region retired to old still holds the stale
  // originals of successfully-copied objects, and its in-place survivors'
  // cross-region edges were recorded under young-to-young rules. Scrub the
  // stale copies into free blocks (dropping the region's slot bits), recount
  // live bytes, and re-record the survivors' edges — slot bits for young
  // targets, remset entries for old ones — so the retired region is
  // indistinguishable from a normal old region. With trusted `marks`, the
  // unmarked (dead) objects are scrubbed too: their slots may name regions
  // this pause frees.
  void ScrubRetiredEvacFailure(Region* region, const MarkBitmap* marks = nullptr);

  // Region scrubbing (G1-style, post-remark): overwrite every unmarked object
  // in a tenured region with a free-block header. Precise (marks-trusted)
  // collections skip dead objects when scanning remset sources, so dead
  // objects keep whatever references they held when they died — stale edges
  // into regions the cycle frees. Nothing live ever reads those slots, but
  // the conservative heap walk does, and conservative young scans would
  // resurrect their referents. Scrubbing removes the stale slots from the
  // parsable heap and clears their slot bits. Safe to run concurrently with
  // mutators: unmarked objects
  // are unreachable, and region iteration reads only size_bytes, which
  // scrubbing never changes. Returns the number of bytes scrubbed.
  size_t ScrubDeadObjects(Region* region, const MarkBitmap& bitmap);

  // Records every cross-region edge held by `region`'s objects: slot bits
  // for young targets, remset entries for old ones. Needed when a young
  // region is retired in place (pinned by quarantine): its outgoing edges
  // were recorded under young-source rules — i.e. never — so without this,
  // references into the same pause's collection set would go undiscovered
  // and later pauses could not rescan the region as a source.
  void RecordCrossRegionEdges(Region* region);

  // Brackets one phase: watchdog deadline plus per-phase CPU (this thread's
  // and the GC workers') charged to metrics_.
  WatchdogPhaseScope PhaseScope(GcPhase phase, CancellationToken* token) {
    return WatchdogPhaseScope(watchdog_.get(), phase, token, &metrics_, workers_.get());
  }

  // Monotonic pass counter driving the rotating sampling offset.
  uint64_t NextVerifyPass() { return verify_pass_++; }

  // Bounded backoff between failed allocation attempts: lets a competing
  // thread's collection finish instead of hammering the region lock, without
  // ever blocking indefinitely.
  static void AllocationBackoff(int attempt);

  Heap* heap_;
  GcConfig config_;
  SafepointManager* safepoints_;
  GcMetrics metrics_;
  ProfilerHooks* profiler_ = nullptr;
  std::unique_ptr<WorkerPool> workers_;
  std::unique_ptr<GcWatchdog> watchdog_;

  VerifyOptions verify_options_;
  VerifyStats verify_stats_;
  uint64_t verify_pass_ = 0;
};

}  // namespace rolp

#endif  // SRC_GC_COLLECTOR_H_
