#include "src/rolp/profiler.h"

#include <algorithm>

#include "src/gc/worker_pool.h"
#include "src/heap/object.h"
#include "src/util/check.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/trace.h"

namespace rolp {

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kOldTableSaturation:
      return "old-table-saturation";
    case DegradeReason::kImplausibleHistogram:
      return "implausible-histogram";
    case DegradeReason::kDemotionChurn:
      return "demotion-churn";
    case DegradeReason::kGcOverrun:
      return "gc-overrun";
    case DegradeReason::kHeapCorruption:
      return "heap-corruption";
    case DegradeReason::kHeapPressure:
      return "heap-pressure";
  }
  return "unknown";
}

Profiler::Profiler(const RolpConfig& config)
    : config_(config), old_table_(config.old_table_entries) {
  worker_tables_.resize(config.max_gc_workers);
  live_decisions_ = std::make_unique<DecisionMap>();
  decisions_.store(live_decisions_.get(), std::memory_order_release);
  if (config_.async_inference) {
    inf_thread_ = std::thread([this] { InferenceThreadLoop(); });
  }
}

Profiler::~Profiler() {
  if (inf_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> guard(inf_mu_);
      inf_stop_ = true;
    }
    inf_cv_.notify_all();
    inf_thread_.join();
  }
}

void Profiler::SetCallSiteControl(CallSiteControl* control) {
  callsites_ = control;
  if (control != nullptr) {
    resolver_ = std::make_unique<ConflictResolver>(control, config_.conflict_p, config_.seed);
  }
}

void Profiler::OnSurvivor(uint32_t worker_id, uint64_t old_mark) {
  ROLP_DCHECK(worker_id < worker_tables_.size());
  // Paper section 3.2.2: a biased-locked object's upper header bits hold a
  // thread pointer, not an allocation context; discard it.
  if (markword::IsBiased(old_mark)) {
    survivors_skipped_biased_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint32_t context = markword::Context(old_mark);
  if (context == 0) {
    return;  // allocated by unprofiled (cold) code
  }
  if (ROLP_FAULT_POINT("rolp.survivor.drop")) {
    survivors_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;  // simulated lost survivor update (starves the histograms)
  }
  // Paper section 3.3: contexts not present in the OLD table are discarded —
  // they may be residue of a revoked biased lock or of cleared profiling.
  if (!old_table_.Contains(context)) {
    return;
  }
  uint32_t age = markword::Age(old_mark);
  worker_tables_[worker_id][context][age]++;
  survivors_seen_.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::MergeWorkerTables(WorkerPool* workers) {
  ROLP_TRACE_SCOPE("rolp", "rolp.profiler.merge-workers");
  // Stall-only fail point: watchdog tests inject hangs into the merge step
  // (the profiler-merge GC phase) with a delay:<ms> arm. Fired on the pause
  // thread so the watchdog sees the stall regardless of pool dispatch.
  (void)ROLP_FAULT_POINT("rolp.merge.stall");
  auto flush = [this](WorkerTable& table) {
    for (auto& [context, by_age] : table) {
      for (uint32_t age = 0; age < 16; age++) {
        if (by_age[age] > 0) {
          old_table_.RecordSurvivor(context, age, by_age[age]);
        }
      }
    }
    table.clear();
  };
  if (workers == nullptr || workers->size() <= 1) {
    for (WorkerTable& table : worker_tables_) {
      flush(table);
    }
    return;
  }
  // Each pool item flushes a disjoint stride of worker tables; RecordSurvivor
  // is lock-free (read-only probe + CAS/fetch_add), so rows shared between
  // tables merge correctly under concurrency.
  uint32_t n = workers->size();
  size_t num_tables = worker_tables_.size();
  workers->RunTask([&](uint32_t item) {
    for (size_t i = item; i < num_tables; i += n) {
      workers->Heartbeat(item);
      flush(worker_tables_[i]);
    }
  });
}

void Profiler::PublishDecisions(std::unique_ptr<DecisionMap> next) {
  ROLP_TRACE_INSTANT("rolp", "rolp.inference.publish", next->size());
  // Write the decisions into OLD-table rows first (RCU-style: the world is
  // stopped, so mutators observe the full new set when they resume and their
  // flushed sample buffers re-read it).
  old_table_.ClearDecisions();
  for (const auto& [context, gen] : *next) {
    old_table_.SetDecision(context, gen);
  }
  decisions_.store(next.get(), std::memory_order_release);
  retired_decisions_.push_back(std::move(live_decisions_));
  live_decisions_ = std::move(next);
  // Any async snapshot taken before this publish is now based on a superseded
  // decision set; invalidate it so its staged output gets discarded.
  table_epoch_++;
}

void Profiler::OnGcEnd(const GcEndInfo& info) {
  // A safepoint separates us from any mutator that read a since-retired
  // decision map: free the retirees.
  ReclaimRetiredDecisions();
  // This pause is the "next safepoint" the async pipeline stages decisions
  // for: publish them before merging this cycle's survivors.
  TryPublishStagedInference();
  MergeWorkerTables(info.workers);

  // Pause EMA drives the survivor-tracking re-enable heuristic.
  double pause = static_cast<double>(info.pause_ns);
  recent_pause_ema_ns_ =
      recent_pause_ema_ns_ == 0.0 ? pause : 0.8 * recent_pause_ema_ns_ + 0.2 * pause;

  // Saturation watch: how many samples did the OLD table shed this cycle?
  uint64_t dropped_now = old_table_.dropped_samples();
  uint64_t dropped_delta = dropped_now - last_dropped_seen_;
  last_dropped_seen_ = dropped_now;
  // Corruption watch: did the heap verifier report damage this cycle?
  uint64_t corruption_delta = heap_corruption_reports_ - last_corruption_seen_;
  last_corruption_seen_ = heap_corruption_reports_;

  bool degraded = degraded_.load(std::memory_order_relaxed);
  if (!degraded && config_.degrade_dropped_per_cycle != 0 &&
      dropped_delta > config_.degrade_dropped_per_cycle) {
    EnterDegraded(DegradeReason::kOldTableSaturation);
    degraded = true;
  }

  if (degraded) {
    // Re-arm once the trouble signal has been quiet long enough. Inference is
    // suspended meanwhile: decisions built from a saturated or corrupt table
    // would be worse than none.
    if (dropped_delta <= config_.degrade_dropped_per_cycle / 8 && corruption_delta == 0 &&
        !heap_pressure_) {
      if (++clean_cycles_ >= config_.rearm_clean_cycles) {
        ExitDegraded();
      }
    } else {
      clean_cycles_ = 0;
    }
    return;
  }

  if (config_.inference_period != 0 && info.gc_cycle % config_.inference_period == 0) {
    if (config_.async_inference) {
      StartAsyncInference();
    } else {
      RunInference();
    }
  }
  // Checked every cycle (not just at boundaries): with async inference the
  // first non-empty decision set appears at the staged-publish safepoint, one
  // or more cycles after the boundary that snapshotted it.
  if (first_decision_cycle_ == 0 &&
      !decisions_.load(std::memory_order_relaxed)->empty()) {
    first_decision_cycle_ = info.gc_cycle;
  }

  if (config_.auto_survivor_tracking && !degraded_.load(std::memory_order_relaxed) &&
      !survivor_tracking_.load(std::memory_order_relaxed)) {
    // Paper section 7.4: re-enable survivor tracking if average pauses
    // regressed more than the threshold over the last tracked value. Not while
    // degraded: tracking stays off until re-arm.
    if (last_tracking_avg_pause_ns_ > 0.0 &&
        recent_pause_ema_ns_ >
            last_tracking_avg_pause_ns_ * (1.0 + config_.pause_regression_threshold)) {
      survivor_tracking_.store(true, std::memory_order_relaxed);
      tracking_toggles_++;
      ROLP_LOG_INFO("survivor tracking re-enabled (pause regression)");
    }
  }
}

void Profiler::WaitForStagedInference() {
  if (!config_.async_inference) {
    return;
  }
  std::unique_lock<std::mutex> lock(inf_mu_);
  inf_done_cv_.wait(lock, [&] { return !inf_busy_; });
}

void Profiler::RunInferenceNow() {
  // Tests drive inference without GC cycles; this stands in for the
  // world-stopped point, so retired maps are reclaimed here too.
  ReclaimRetiredDecisions();
  RunInference();
}

void Profiler::ReclaimRetiredDecisions() {
  if (config_.async_inference) {
    std::lock_guard<std::mutex> guard(inf_mu_);
    if (inf_busy_) {
      return;  // the in-flight analysis may still read a retired map
    }
  }
  retired_decisions_.clear();
}

Profiler::InferenceInput Profiler::SnapshotInferenceInput() {
  InferenceInput in;
  in.epoch = table_epoch_;
  in.seq = inferences_ + 1;
  in.rows.reserve(last_snapshot_rows_ + 64);
  old_table_.ForEachRow([&](uint32_t context, const std::array<uint64_t, 16>& counts) {
    // All-zero rows carry no signal and trivially pass the implausibility
    // check: skipping them keeps the snapshot proportional to the active
    // context set, not the table capacity.
    for (uint64_t c : counts) {
      if (c != 0) {
        in.rows.emplace_back(context, counts);
        break;
      }
    }
  });
  in.base = decisions_.load(std::memory_order_relaxed);
  last_snapshot_rows_ = in.rows.size();
  return in;
}

Profiler::InferenceOutput Profiler::AnalyzeRows(const InferenceInput& in) const {
  InferenceOutput out;
  out.epoch = in.epoch;

  // Sanity pass: a per-age count beyond any physical allocation rate means a
  // corrupt header or counter leaked into the table. Decisions derived from it
  // would be garbage — drop everything and ride out the storm degraded.
  out.implausible = ROLP_FAULT_POINT("rolp.inference.implausible");
  if (!out.implausible) {
    for (const auto& [context, counts] : in.rows) {
      (void)context;
      for (uint64_t c : counts) {
        if (c > config_.implausible_count) {
          out.implausible = true;
        }
      }
    }
  }
  if (out.implausible) {
    return out;
  }

  out.next = std::make_unique<DecisionMap>(*in.base);
  DecisionMap* next = out.next.get();
  for (const auto& [context, counts] : in.rows) {
    // Contexts that already pretenure produce no young-survivor signal (their
    // objects never pass through the young generation again), so their rows
    // degenerate to an age-0 spike. Paper section 6: curves can only raise an
    // estimate; lowering happens through the fragmentation feedback
    // (OnGenFragmentation), never by re-reading a starved curve.
    auto existing = next->find(context);
    CurveResult curve = CurveAnalysis::Analyze(counts);
    if (!curve.HasSignal()) {
      continue;
    }
    if (existing == next->end() && curve.IsConflict()) {
      out.conflicted_sites.push_back(markword::ContextSite(context));
      continue;  // no decision from an ambiguous curve
    }
    int lifetime = curve.EstimatedLifetime();
    uint8_t gen;
    if (lifetime == 0) {
      gen = 0;  // dies young: keep in young generation
    } else if (lifetime >= 15) {
      gen = 15;  // effectively immortal: old generation
    } else {
      gen = static_cast<uint8_t>(lifetime);
      if (gen > config_.max_gen) {
        gen = config_.max_gen;
      }
    }
    if (existing != next->end()) {
      if (gen > existing->second) {
        existing->second = gen;  // lifetime increased (section 6, case 1)
      }
      continue;
    }
    if (gen > 0) {
      (*next)[context] = gen;
    }
  }

  if (LogEnabled(LogLevel::kInfo)) {
    uint64_t with_signal = 0;
    for (const auto& [context, counts] : in.rows) {
      CurveResult c = CurveAnalysis::Analyze(counts);
      if (c.HasSignal()) {
        with_signal++;
        ROLP_LOG_INFO(
            "inference %llu: ctx site=%u tss=%u peak=%d conflict=%d total=%llu "
            "[%llu %llu %llu %llu %llu %llu %llu %llu]",
            (unsigned long long)in.seq, markword::ContextSite(context),
            markword::ContextTss(context), c.EstimatedLifetime(), c.IsConflict() ? 1 : 0,
            (unsigned long long)c.total, (unsigned long long)counts[0],
            (unsigned long long)counts[1], (unsigned long long)counts[2],
            (unsigned long long)counts[3], (unsigned long long)counts[4],
            (unsigned long long)counts[5], (unsigned long long)counts[6],
            (unsigned long long)counts[7]);
      }
    }
    ROLP_LOG_INFO("inference %llu: rows=%zu signal=%llu conflicts=%zu decisions=%zu",
                  (unsigned long long)in.seq, in.rows.size(),
                  (unsigned long long)with_signal, out.conflicted_sites.size(),
                  next->size());
  }
  if (ROLP_FAULT_POINT("rolp.inference.conflict")) {
    // Simulated ambiguous curve: exercises table growth + conflict resolution.
    out.conflicted_sites.push_back(0);
  }
  out.changed = *out.next != *in.base;
  return out;
}

void Profiler::ApplyInferenceOutput(InferenceOutput out) {
  inferences_++;
  demotion_churn_ = 0;  // fresh churn window (see OnGenFragmentation)

  if (out.implausible) {
    EnterDegraded(DegradeReason::kImplausibleHistogram);
    return;
  }

  conflicts_total_ += out.conflicted_sites.size();
  bool new_conflict = false;
  for (uint32_t site : out.conflicted_sites) {
    new_conflict |= grown_conflict_sites_.insert(site).second;
  }
  if (new_conflict) {
    old_table_.GrowForConflict();
  }
  if (resolver_ != nullptr) {
    resolver_->OnInference(out.conflicted_sites);
  }

  bool changed = out.changed;
  PublishDecisions(std::move(out.next));

  // Survivor-tracking shut-off (paper section 7.4): disable when the workload
  // is stable, i.e. two consecutive inferences produced identical decisions.
  if (config_.auto_survivor_tracking) {
    // Post-re-arm grace: decisions and histograms were just cleared, so a
    // "stable" (empty == empty) reading here is starvation, not stability.
    bool in_grace = rearm_grace_left_ > 0;
    if (in_grace) {
      rearm_grace_left_--;
    }
    if (!in_grace && !changed && !decisions_changed_since_last_inference_ &&
        survivor_tracking_.load(std::memory_order_relaxed)) {
      last_tracking_avg_pause_ns_ = recent_pause_ema_ns_;
      survivor_tracking_.store(false, std::memory_order_relaxed);
      tracking_toggles_++;
      ROLP_LOG_INFO("survivor tracking shut off (stable decisions)");
    }
    decisions_changed_since_last_inference_ = changed;
  }
}

void Profiler::RunInference() {
  ROLP_TRACE_SCOPE("rolp", "rolp.inference.sync");
  InferenceInput in = SnapshotInferenceInput();
  InferenceOutput out = AnalyzeRows(in);
  // Freshness: clear all counters for the next window (paper section 4). The
  // snapshot carries the closing window, so the apply step never re-reads the
  // table.
  old_table_.ClearCounts();
  ApplyInferenceOutput(std::move(out));
}

void Profiler::StartAsyncInference() {
  {
    std::lock_guard<std::mutex> guard(inf_mu_);
    if (inf_busy_ || inf_staged_ != nullptr) {
      // The previous snapshot is still being analyzed (or awaits publication):
      // skip this boundary rather than queue a second window behind it.
      return;
    }
    {
      ROLP_TRACE_SCOPE("rolp", "rolp.inference.snapshot");
      inf_input_ = std::make_unique<InferenceInput>(SnapshotInferenceInput());
    }
    inf_busy_ = true;
    async_inferences_started_++;
  }
  inf_cv_.notify_one();
  // Fresh counting window starts immediately; the handed-off snapshot owns
  // the window that just closed. No epoch bump — clearing counts here is part
  // of the snapshot protocol, not an invalidation.
  old_table_.ClearCounts();
}

bool Profiler::TryPublishStagedInference() {
  std::unique_ptr<InferenceOutput> out;
  {
    std::lock_guard<std::mutex> guard(inf_mu_);
    if (inf_staged_ == nullptr) {
      return false;
    }
    out = std::move(inf_staged_);
    if (out->epoch != table_epoch_ || degraded_.load(std::memory_order_relaxed)) {
      // The table moved under the analysis (degraded-mode transition,
      // fragmentation demotion, forced sync inference): applying this output
      // would resurrect pre-mutation decisions. Drop it; the next boundary
      // snapshots fresh state.
      stale_inferences_discarded_++;
      ROLP_TRACE_INSTANT("rolp", "rolp.inference.stale-discard", out->epoch);
      return false;
    }
  }
  ApplyInferenceOutput(std::move(*out));
  return true;
}

void Profiler::InferenceThreadLoop() {
  std::unique_lock<std::mutex> lock(inf_mu_);
  for (;;) {
    inf_cv_.wait(lock, [&] { return inf_stop_ || inf_input_ != nullptr; });
    if (inf_stop_) {
      return;
    }
    std::unique_ptr<InferenceInput> in = std::move(inf_input_);
    lock.unlock();
    // The pure analysis runs with no profiler locks held: mutators keep
    // allocating into the (cleared) table and GC pauses proceed; only the
    // publish waits for a safepoint.
    std::unique_ptr<InferenceOutput> out;
    {
      ROLP_TRACE_SCOPE_ARG("rolp", "rolp.inference.analyze", in->seq);
      out = std::make_unique<InferenceOutput>(AnalyzeRows(*in));
    }
    lock.lock();
    inf_staged_ = std::move(out);
    inf_busy_ = false;
    inf_done_cv_.notify_all();
  }
}

uint64_t Profiler::async_inferences_started() const {
  std::lock_guard<std::mutex> guard(inf_mu_);
  return async_inferences_started_;
}

uint64_t Profiler::stale_inferences_discarded() const {
  std::lock_guard<std::mutex> guard(inf_mu_);
  return stale_inferences_discarded_;
}

bool Profiler::staged_inference_pending() const {
  std::lock_guard<std::mutex> guard(inf_mu_);
  return inf_staged_ != nullptr;
}

void Profiler::OnGenFragmentation(uint8_t gen, double live_ratio) {
  // Paper section 6: when a dynamic generation shows fragmentation (few live
  // bytes pinning unreclaimable regions), the lifetime of contexts
  // allocating into it was overestimated; demote them by one. The ratio is
  // computed over pinned (live) regions only; fully-dead regions are the
  // success case.
  if (live_ratio >= 0.25 || gen == 0) {
    return;
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    return;  // decisions are already cleared; nothing to demote
  }
  if (config_.degrade_demotion_churn != 0 &&
      ++demotion_churn_ >= config_.degrade_demotion_churn) {
    // Demoting this often within one inference window means the estimates are
    // oscillating, not converging; stop fighting and rebuild from scratch.
    EnterDegraded(DegradeReason::kDemotionChurn);
    return;
  }
  const DecisionMap* current = decisions_.load(std::memory_order_relaxed);
  auto next = std::make_unique<DecisionMap>();
  bool changed = false;
  for (const auto& [context, g] : *current) {
    if (g == gen) {
      if (g > 1) {
        (*next)[context] = static_cast<uint8_t>(g - 1);
      }
      // g == 1 demotes to young: drop the entry entirely.
      changed = true;
    } else {
      (*next)[context] = g;
    }
  }
  if (!changed) {
    return;
  }
  const bool emptied = next->empty();
  PublishDecisions(std::move(next));
  decisions_changed_since_last_inference_ = true;
  if (emptied && config_.auto_survivor_tracking &&
      !survivor_tracking_.load(std::memory_order_relaxed)) {
    // The last decision was demoted away while tracking was off. Only
    // survivor curves can raise an estimate again, so without tracking the
    // profiler would stay blind until a pause regression: relearn now.
    survivor_tracking_.store(true, std::memory_order_relaxed);
    tracking_toggles_++;
    ROLP_LOG_INFO("survivor tracking re-enabled (no decisions left)");
  }
}

void Profiler::OnGcOverrun(bool survivor_tracking_active) {
  if (!survivor_tracking_active || degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  if (config_.degrade_overrun_threshold != 0 &&
      ++overruns_while_tracking_ >= config_.degrade_overrun_threshold) {
    // GC keeps blowing its deadline while survivor tracking is feeding the
    // pause: stop adding profiler weight until things stay quiet (rung 4).
    overruns_while_tracking_ = 0;
    EnterDegraded(DegradeReason::kGcOverrun);
  }
}

void Profiler::OnHeapCorruption(size_t finding_count) {
  // World stopped (called from the in-pause verifier). The heap survived —
  // the damage was repaired or quarantined — but lifetime evidence gathered
  // from a corrupt heap is untrustworthy: stop steering allocation until
  // verification stays quiet for rearm_clean_cycles cycles.
  heap_corruption_reports_++;
  ROLP_TRACE_INSTANT("rolp", "rolp.heap_corruption", static_cast<uint64_t>(finding_count));
  EnterDegraded(DegradeReason::kHeapCorruption);
  clean_cycles_ = 0;
}

void Profiler::OnHeapPressure(bool under_pressure) {
  // World stopped (VM::OnGcEnd). While the governor sits at or above the
  // degrade rung, the profiler's survivor tracking and inference are weight
  // the overloaded heap cannot afford; shed them. Re-arm is automatic: once
  // the pressure flag clears, the normal quiet-cycle counting resumes.
  heap_pressure_ = under_pressure;
  if (under_pressure) {
    EnterDegraded(DegradeReason::kHeapPressure);
  }
}

void Profiler::PublishEmptyDecisions() {
  PublishDecisions(std::make_unique<DecisionMap>());
}

void Profiler::EnterDegraded(DegradeReason reason) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  degraded_.store(true, std::memory_order_relaxed);
  degraded_entries_++;
  last_degrade_reason_ = reason;
  ROLP_TRACE_INSTANT("rolp", "rolp.degraded.enter", static_cast<uint64_t>(reason));
  clean_cycles_ = 0;
  demotion_churn_ = 0;

  // Stop steering allocation: TargetGen reverts to 0 (young) for every
  // context, which is always safe — it is the un-profiled baseline.
  PublishEmptyDecisions();
  // Stop collecting a signal we would distrust anyway.
  if (survivor_tracking_.exchange(false, std::memory_order_relaxed)) {
    tracking_toggles_++;
  }
  // Drop the poisoned histograms; rows stay so re-arm starts warm.
  old_table_.ClearCounts();
  if (reason == DegradeReason::kOldTableSaturation) {
    // More headroom for when profiling resumes (same mechanism as conflicts).
    old_table_.GrowForConflict();
  }
  decisions_changed_since_last_inference_ = true;
  ROLP_LOG_INFO("profiler degraded (%s); decisions cleared, tracking off",
                DegradeReasonName(reason));
}

void Profiler::ExitDegraded() {
  if (!degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  degraded_.store(false, std::memory_order_relaxed);
  clean_cycles_ = 0;
  overruns_while_tracking_ = 0;
  ROLP_TRACE_INSTANT("rolp", "rolp.degraded.exit", 0);
  // Start rebuilding the signal; decisions repopulate at the next inference.
  if (!survivor_tracking_.exchange(true, std::memory_order_relaxed)) {
    tracking_toggles_++;
  }
  decisions_changed_since_last_inference_ = true;
  rearm_grace_left_ = config_.rearm_grace_inferences;
  ROLP_LOG_INFO("profiler re-armed after %u clean cycles", config_.rearm_clean_cycles);
}

void Profiler::DumpIntrospection(std::FILE* out) const {
  const OldTable& table = old_table_;
  std::fprintf(out, "== ROLP profiler introspection ==\n");
  std::fprintf(out,
               "old_table: capacity=%zu occupied=%zu dropped=%llu rejected=%llu "
               "grows=%zu paper_bytes=%zu\n",
               table.capacity(), table.occupied(),
               (unsigned long long)table.dropped_samples(),
               (unsigned long long)table.rejected_contexts(), table.grow_count(),
               table.PaperMemoryBytes());
  std::fprintf(out, "degraded: %s (entries=%llu, last_reason=%s)\n",
               degraded() ? "yes" : "no", (unsigned long long)degraded_entries_,
               DegradeReasonName(last_degrade_reason_));
  std::fprintf(out, "survivor_tracking: %s (toggles=%llu)\n",
               SurvivorTrackingEnabled() ? "on" : "off",
               (unsigned long long)tracking_toggles_);
  std::fprintf(out, "inferences: %llu (async_started=%llu, stale_discarded=%llu)\n",
               (unsigned long long)inferences_,
               (unsigned long long)async_inferences_started(),
               (unsigned long long)stale_inferences_discarded());
  std::fprintf(out, "conflicts_total: %llu\n", (unsigned long long)conflicts_total_);

  auto decision_map = DecisionsSnapshot();
  std::vector<std::pair<uint32_t, uint8_t>> decisions(decision_map.begin(),
                                                      decision_map.end());
  std::sort(decisions.begin(), decisions.end());
  std::fprintf(out, "decisions: %zu\n", decisions.size());
  for (const auto& [ctx, gen] : decisions) {
    std::fprintf(out, "  ctx=0x%08x site=%u tss=%u gen=%u\n", ctx,
                 markword::ContextSite(ctx), markword::ContextTss(ctx), gen);
  }

  std::vector<std::pair<uint32_t, std::array<uint64_t, OldTable::kAges>>> rows;
  table.ForEachRow([&rows](uint32_t ctx, const std::array<uint64_t, OldTable::kAges>& counts) {
    rows.emplace_back(ctx, counts);
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::fprintf(out, "rows: %zu\n", rows.size());
  for (const auto& [ctx, counts] : rows) {
    uint64_t total = 0;
    for (uint64_t c : counts) {
      total += c;
    }
    std::fprintf(out, "  ctx=0x%08x site=%u tss=%u decision=%u total=%llu ages:", ctx,
                 markword::ContextSite(ctx), markword::ContextTss(ctx),
                 table.DecisionFor(ctx), (unsigned long long)total);
    for (int a = 0; a < OldTable::kAges; a++) {
      if (counts[a] != 0) {
        std::fprintf(out, " %d:%llu", a, (unsigned long long)counts[a]);
      }
    }
    std::fprintf(out, "\n");
  }
}

bool Profiler::WriteIntrospection(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    ROLP_LOG_ERROR("profiler: cannot open %s for introspection dump", path.c_str());
    return false;
  }
  DumpIntrospection(f);
  std::fclose(f);
  return true;
}

}  // namespace rolp
