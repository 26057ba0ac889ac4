#include "src/gc/collector.h"

#include <chrono>
#include <thread>

#include "src/util/crash_context.h"
#include "src/util/log.h"
#include "src/util/metrics_registry.h"
#include "src/util/trace.h"

namespace rolp {

Collector::Collector(Heap* heap, const GcConfig& config, SafepointManager* safepoints)
    : heap_(heap), config_(config), safepoints_(safepoints) {
  workers_ = std::make_unique<WorkerPool>(config_.num_workers);
  watchdog_ = GcWatchdog::CreateFromEnv(workers_.get());
  verify_options_ = VerifyOptions::FromEnv();
}

void Collector::AllocationBackoff(int attempt) {
  if (attempt < 4) {
    std::this_thread::yield();
    return;
  }
  int shift = attempt - 4 < 7 ? attempt - 4 : 7;
  std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
}

void Collector::RecordPause(const PauseRecord& rec) {
  metrics_.RecordPause(rec);
  Trace::EmitComplete("gc", "gc.pause", rec.start_ns, rec.duration_ns,
                      static_cast<uint64_t>(rec.kind));
}

bool Collector::ApplyVerification(const char* when, const HeapVerifier::Report& report) {
  verify_stats_.passes++;
  verify_stats_.refs_healed += report.refs_healed;
  verify_stats_.refs_nulled += report.refs_nulled;
  if (report.cancelled) {
    verify_stats_.passes_cancelled++;
    MetricsRegistry::Instance().Counter("verify.passes_cancelled")->Add();
  }
  MetricsRegistry::Instance().Counter("verify.passes")->Add();
  if (report.findings.empty()) {
    return false;
  }
  verify_stats_.findings += report.findings.size();
  MetricsRegistry::Instance().Counter("verify.findings")->Add(report.findings.size());
  ROLP_LOG_ERROR("heap verification (%s): %s", when, report.Summary().c_str());
  size_t shown = 0;
  for (const HeapVerifier::Finding& f : report.findings) {
    if (shown++ >= 8) {
      ROLP_LOG_ERROR("  ... %zu more finding(s) suppressed", report.findings.size() - 8);
      break;
    }
    ROLP_LOG_ERROR("  finding: %s", f.detail.c_str());
  }
  if (report.has_fatal()) {
    // Root-set or forwarding-graph corruption: no quarantine can make
    // continued execution safe. Dump everything and abort.
    CrashContext::Dump(stderr);
    ROLP_CHECK_MSG(false, "heap verification found unrecoverable corruption "
                          "(root set or forwarding graph)");
  }
  if (profiler_ != nullptr) {
    profiler_->OnHeapCorruption(report.findings.size());
  }
  return true;
}

std::vector<uint32_t> Collector::QuarantineFlagged(HeapVerifier* verifier,
                                                   const std::vector<Region*>& doomed,
                                                   HeapVerifier::Report* report) {
  std::vector<uint32_t> kept = verifier->CascadeQuarantine(doomed, report);
  if (kept.empty()) {
    return kept;
  }
  // The cascade may itself uncover fatal forwarding corruption.
  if (report->has_fatal()) {
    CrashContext::Dump(stderr);
    ROLP_CHECK_MSG(false, "heap verification found unrecoverable corruption "
                          "(forwarding graph, during quarantine cascade)");
  }
  RegionManager& regions = heap_->regions();
  for (uint32_t idx : kept) {
    regions.Quarantine(&regions.region(idx), /*walkable=*/true);
  }
  verify_stats_.regions_quarantined += kept.size();
  MetricsRegistry::Instance().Counter("verify.regions_quarantined")->Add(kept.size());
  return kept;
}

void Collector::RecordCrossRegionEdges(Region* region) {
  RegionManager& regions = heap_->regions();
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId) {
      return;
    }
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
      Object* v = slot->load(std::memory_order_relaxed);
      if (v == nullptr || !regions.Contains(v)) {
        return;
      }
      Region* vr = regions.RegionFor(v);
      if (!vr->IsFree()) {
        regions.RecordEdge(region, slot, vr);
      }
    });
  });
}

void Collector::ScrubRetiredEvacFailure(Region* region, const MarkBitmap* marks) {
  RegionManager& regions = heap_->regions();
  // The stale originals' slot bits go with them; the survivors' edges are
  // recorded afresh below.
  region->ClearYoungSlots();
  size_t live = 0;
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId) {
      return;
    }
    if (markword::IsForwarded(obj->LoadMark()) || (marks != nullptr && !marks->IsMarked(obj))) {
      obj->StoreMark(0);
      obj->class_id = kFreeBlockClassId;
      return;
    }
    live += obj->size_bytes;
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
      Object* v = slot->load(std::memory_order_relaxed);
      if (v == nullptr || !regions.Contains(v)) {
        return;
      }
      Region* vr = regions.RegionFor(v);
      if (!vr->IsFree()) {
        regions.RecordEdge(region, slot, vr);
      }
    });
  });
  region->set_live_bytes(live);
}

size_t Collector::ScrubDeadObjects(Region* region, const MarkBitmap& bitmap) {
  size_t scrubbed = 0;
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId || bitmap.IsMarked(obj)) {
      return;
    }
    // The dead object's slots leave the heap's slot set: no young scan may
    // read them once they are free-block payload.
    char* p = reinterpret_cast<char*>(obj);
    region->ClearYoungSlots(p, p + obj->size_bytes);
    obj->StoreMark(0);
    obj->class_id = kFreeBlockClassId;
    scrubbed += obj->size_bytes;
  });
  if (scrubbed > 0) {
    MetricsRegistry::Instance().Counter("gc.scrubbed_bytes")->Add(scrubbed);
  }
  return scrubbed;
}

}  // namespace rolp
