// Pause-engine benchmarks: how stop-the-world work scales with GC workers.
//
// BM_PauseYoungSkewedRemset builds the adversarial shape for static work
// partitioning: a handful of old remembered-set source regions where one
// region holds the overwhelming majority of the live references into the
// collection set. A strided partition hands that region — and every object it
// keeps alive — to a single worker; work stealing spreads the discovered
// copy work across the pool. Timed with manual time around the collection
// call only (the mutator-side refill between pauses is untimed).
//
// BM_PauseYoungRefFreeSources and BM_PauseYoungSparseRefArray reproduce the
// text-open young pause: one old source region of byte[]s with a single ref
// array into young (dense, and the index's sparse 20,000-slot shape).
//
// BM_ProfilerGcEndInference measures the profiler cost paid *inside* the
// pause at an inference boundary (worker-table merge + lifetime inference +
// decision publication), the piece the async-inference path shrinks to a
// table snapshot.
#include <benchmark/benchmark.h>

#include <ctime>
#include <memory>
#include <vector>

#include "src/gc/regional_collector.h"
#include "src/heap/heap.h"
#include "src/rolp/profiler.h"
#include "src/service/sharded.h"
#include "src/util/clock.h"
#include "src/workloads/kvstore.h"

namespace rolp {
namespace {

constexpr size_t kHeapMb = 256;
constexpr size_t kRegionBytes = 1 << 20;
constexpr size_t kSourceRegions = 8;
constexpr size_t kArraysPerRegion = 15;   // ~fills one 1MB region
constexpr size_t kSlotsPerArray = 8192;
constexpr size_t kTotalYoungRefs = 120000;
// The skew: source region 0 keeps 80% of the young referents alive.
constexpr double kDenseShare = 0.80;
constexpr uint32_t kContexts = 256;

class PauseBenchEnv {
 public:
  explicit PauseBenchEnv(uint32_t workers, bool concurrent_evac = false) {
    HeapConfig hc;
    hc.heap_bytes = kHeapMb * 1024 * 1024;
    hc.region_bytes = kRegionBytes;
    hc.young_fraction = 0.25;
    heap_ = std::make_unique<Heap>(hc);
    leaf_cls_ = heap_->classes().RegisterInstance("PauseLeaf", 40, {});

    GcConfig gc;
    gc.num_workers = workers;
    gc.use_dynamic_gens = true;
    gc.concurrent_evac = concurrent_evac;
    // One past the mark word's maximum age: survivors never tenure, so every
    // iteration re-copies the same live set (steady-state copy load).
    gc.tenuring_threshold = 16;
    collector_ = std::make_unique<RegionalCollector>(heap_.get(), gc, &safepoints_);

    RolpConfig rc;
    rc.alloc_buffer_slots = 0;  // bench drives the table directly
    rc.auto_survivor_tracking = false;
    rc.max_gc_workers = workers > 16 ? workers : 16;
    profiler_ = std::make_unique<Profiler>(rc);
    collector_->set_profiler(profiler_.get());

    safepoints_.RegisterThread(&ctx_);
    BuildOldSources();
    RefillYoungReferents();
    // Warmup pause so the measured iterations start from the steady state
    // (survivor regions exist, remsets are established).
    collector_->CollectNow(&ctx_);
    collector_->WaitForConcurrentCycle(&ctx_);
    RefillYoungReferents();
  }

  ~PauseBenchEnv() {
    collector_->OnMutatorExit(&ctx_);
    safepoints_.UnregisterThread(&ctx_);
  }

  // One measured pause; returns its duration in seconds.
  double TimedCollect() {
    uint64_t t0 = NowNs();
    collector_->CollectNow(&ctx_);
    uint64_t t1 = NowNs();
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  // One full collection cycle, timed by summed STW pause time as recorded in
  // the metrics (arming pause + remap pause for a concurrent cycle; the one
  // pause for the STW path). Waits out the concurrent window so successive
  // iterations do not overlap. Tracks the largest single pause seen.
  double TimedStwCollect(uint64_t* max_stw_ns) {
    size_t before = collector_->metrics().Pauses().size();
    collector_->CollectNow(&ctx_);
    collector_->WaitForConcurrentCycle(&ctx_);
    auto pauses = collector_->metrics().Pauses();
    uint64_t stw = 0;
    for (size_t i = before; i < pauses.size(); i++) {
      stw += pauses[i].duration_ns;
      if (pauses[i].duration_ns > *max_stw_ns) {
        *max_stw_ns = pauses[i].duration_ns;
      }
    }
    return static_cast<double>(stw) * 1e-9;
  }

  void RefillYoungReferents() {
    // Overwrite the same slots each iteration: the previous survivors become
    // garbage and the freshly allocated eden objects become the live set.
    uint32_t seq = 0;
    for (size_t r = 0; r < kSourceRegions; r++) {
      size_t refs = RefsForRegion(r);
      size_t per_array = (refs + kArraysPerRegion - 1) / kArraysPerRegion;
      for (size_t a = 0; a < kArraysPerRegion && refs > 0; a++) {
        Object* arr = arrays_[r * kArraysPerRegion + a];
        size_t n = per_array < refs ? per_array : refs;
        for (size_t i = 0; i < n; i++) {
          Object* leaf = AllocLeaf(1 + (seq++ % kContexts));
          heap_->StoreRef(arr, arr->RefArraySlot(i), leaf);
        }
        refs -= n;
      }
    }
  }

  uint64_t FullPauses() const {
    uint64_t n = 0;
    for (const auto& p : collector_->metrics().Pauses()) {
      if (p.kind == PauseKind::kFull) {
        n++;
      }
    }
    return n;
  }

  RegionalCollector& collector() { return *collector_; }
  Profiler& profiler() { return *profiler_; }

 private:
  static size_t RefsForRegion(size_t r) {
    size_t dense = static_cast<size_t>(static_cast<double>(kTotalYoungRefs) * kDenseShare);
    if (r == 0) {
      return dense;
    }
    return (kTotalYoungRefs - dense) / (kSourceRegions - 1);
  }

  void BuildOldSources() {
    for (size_t i = 0; i < kSourceRegions * kArraysPerRegion; i++) {
      AllocRequest req;
      req.cls = heap_->classes().ref_array_class();
      req.total_bytes = heap_->RefArrayAllocSize(kSlotsPerArray);
      req.array_length = kSlotsPerArray;
      req.target_gen = 15;  // straight to the old generation
      Object* arr = collector_->AllocateSlow(&ctx_, req).object;
      ROLP_CHECK(arr != nullptr);
      ctx_.local_roots.emplace_back(arr);
      arrays_.push_back(arr);
    }
  }

  Object* AllocLeaf(uint32_t context) {
    AllocRequest req;
    req.cls = leaf_cls_;
    req.total_bytes = heap_->InstanceAllocSize(leaf_cls_);
    req.context = context;
    char* mem = ctx_.tlab.Allocate(req.total_bytes);
    Object* obj;
    if (mem != nullptr) {
      obj = heap_->InitializeObject(mem, req.cls, req.total_bytes, 0, req.context);
    } else {
      obj = collector_->AllocateSlow(&ctx_, req).object;
      ROLP_CHECK(obj != nullptr);
    }
    // Keep an OLD-table row alive for the context so survivor tracking counts
    // these objects (Contains() gate in OnSurvivor).
    profiler_->RecordAllocation(context);
    return obj;
  }

  std::unique_ptr<Heap> heap_;
  SafepointManager safepoints_;
  MutatorContext ctx_;
  std::unique_ptr<RegionalCollector> collector_;
  std::unique_ptr<Profiler> profiler_;
  ClassId leaf_cls_ = 0;
  std::vector<Object*> arrays_;
};

void BM_PauseYoungSkewedRemset(benchmark::State& state) {
  PauseBenchEnv env(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    state.SetIterationTime(env.TimedCollect());
    env.RefillYoungReferents();
  }
  state.counters["full_gcs"] = static_cast<double>(env.FullPauses());
  const GcMetrics& m = env.collector().metrics();
  double iters = static_cast<double>(state.iterations());
  state.counters["scan_ms"] =
      static_cast<double>(m.PauseScanNs()) * 1e-6 / iters;
  state.counters["evac_ms"] =
      static_cast<double>(m.PauseEvacNs()) * 1e-6 / iters;
  state.counters["merge_ms"] =
      static_cast<double>(m.PauseProfilerNs()) * 1e-6 / iters;
  // Work balance: largest single-worker share of all copied bytes. Static
  // striding pins the dense region's referents on one worker (share -> ~1.0
  // regardless of pool size); stealing drives it toward 1/num_workers. On a
  // single-CPU host this — not wall clock — is the observable skew signal.
  state.counters["max_worker_share"] = m.MaxWorkerCopiedShare();
}
BENCHMARK(BM_PauseYoungSkewedRemset)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(16);

// Concurrent evacuation (DESIGN.md section 14): same skewed-remset live set
// as BM_PauseYoungSkewedRemset, timed by summed STW time per cycle. arg 0 =
// classic STW evacuation, arg 1 = ROLP_CONCURRENT_EVAC (copying off-pause;
// STW shrinks to the arming root-scan plus the final remap). max_stw_ms is
// the acceptance number — the worst single pause a mutator can observe —
// and the CPU counters show where the copying work went.
void BM_PauseConcurrentEvac(benchmark::State& state) {
  PauseBenchEnv env(/*workers=*/2, /*concurrent_evac=*/state.range(0) != 0);
  uint64_t max_stw_ns = 0;
  for (auto _ : state) {
    state.SetIterationTime(env.TimedStwCollect(&max_stw_ns));
    env.RefillYoungReferents();
  }
  state.counters["full_gcs"] = static_cast<double>(env.FullPauses());
  state.counters["max_stw_ms"] = static_cast<double>(max_stw_ns) * 1e-6;
  const GcMetrics& m = env.collector().metrics();
  double iters = static_cast<double>(state.iterations());
  state.counters["evac_cpu_us"] =
      static_cast<double>(m.EvacCpuNs()) * 1e-3 / iters;
  state.counters["remap_cpu_us"] =
      static_cast<double>(m.RemapCpuNs()) * 1e-3 / iters;
}
BENCHMARK(BM_PauseConcurrentEvac)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(16);

// The text-open young-pause shapes: one old source region that is almost all
// byte[] (reference-free), with one ref array in the middle whose slots hold
// the references to the young survivors, themselves byte[]s. Everything the
// pause has to do is find those slots plus copy the survivors; how many
// deque items, wake-ups, class lookups and slot visits it spends on anything
// else is overhead. arg = GC workers. evac_ms is gc.pause.evac per pause;
// cpu_us is process CPU time per collection (every thread: the pause thread
// and the GC workers).
struct SourceRegionShape {
  size_t data_arrays;      // 200 B byte[]s around the ref array (~1 MB region)
  uint64_t ref_slots;      // ref array length
  uint64_t young_stride;   // every young_stride-th slot references a young byte[]
  bool old_fill;           // the other slots reference an old byte[] elsewhere
};
constexpr uint64_t kRefFreeArrayBytes = 176;   // 200 B objects
constexpr uint64_t kYoungReferentBytes = 576;  // ~420-580 KB copied per pause

class SourceRegionEnv {
 public:
  SourceRegionEnv(uint32_t workers, const SourceRegionShape& shape) : shape_(shape) {
    HeapConfig hc;
    hc.heap_bytes = kHeapMb * 1024 * 1024;
    hc.region_bytes = kRegionBytes;
    hc.young_fraction = 0.25;
    heap_ = std::make_unique<Heap>(hc);
    GcConfig gc;
    gc.num_workers = workers;
    gc.use_dynamic_gens = true;  // pretenured allocation lays out the region
    gc.tenuring_threshold = 16;  // survivors never tenure: steady copy load
    collector_ = std::make_unique<RegionalCollector>(heap_.get(), gc, &safepoints_);
    safepoints_.RegisterThread(&ctx_);
    Object* old_target = nullptr;
    if (shape.old_fill) {
      // The old referent sits in its own region: fill that region so the
      // source region starts fresh.
      old_target = AllocData();
      Region* first = heap_->regions().RegionFor(old_target);
      while (heap_->regions().RegionFor(AllocData()) == first) {
      }
    }
    for (size_t i = 0; i < shape.data_arrays; i++) {
      AllocData();
      if (i == shape.data_arrays / 2) {
        Object* holder = AllocOld(heap_->classes().ref_array_class(),
                                  heap_->RefArrayAllocSize(shape.ref_slots), shape.ref_slots);
        ctx_.local_roots.emplace_back(holder);
        for (uint64_t s = 0; s < shape.ref_slots && old_target != nullptr; s++) {
          heap_->StoreRef(holder, holder->RefArraySlot(s), old_target);
        }
      }
    }
    RefillYoungReferents();
    collector_->CollectNow(&ctx_);  // warm-up: survivor regions exist
    RefillYoungReferents();
  }

  ~SourceRegionEnv() {
    collector_->OnMutatorExit(&ctx_);
    safepoints_.UnregisterThread(&ctx_);
  }

  void RefillYoungReferents() {
    Object* holder = ctx_.local_roots[0].load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < shape_.ref_slots; i += shape_.young_stride) {
      AllocRequest req;
      req.cls = heap_->classes().data_array_class();
      req.total_bytes = heap_->DataArrayAllocSize(kYoungReferentBytes);
      req.array_length = kYoungReferentBytes;
      char* mem = ctx_.tlab.Allocate(req.total_bytes);
      Object* obj = mem != nullptr ? heap_->InitializeObject(mem, req.cls, req.total_bytes,
                                                             req.array_length, 0)
                                   : collector_->AllocateSlow(&ctx_, req).object;
      ROLP_CHECK(obj != nullptr);
      heap_->StoreRef(holder, holder->RefArraySlot(i), obj);
    }
  }

  RegionalCollector& collector() { return *collector_; }
  MutatorContext* ctx() { return &ctx_; }

 private:
  Object* AllocData() {
    return AllocOld(heap_->classes().data_array_class(),
                    heap_->DataArrayAllocSize(kRefFreeArrayBytes), kRefFreeArrayBytes);
  }

  Object* AllocOld(ClassId cls, size_t bytes, uint64_t length) {
    AllocRequest req;
    req.cls = cls;
    req.total_bytes = bytes;
    req.array_length = length;
    req.target_gen = kOldGenId;
    Object* obj = collector_->AllocateSlow(&ctx_, req).object;
    ROLP_CHECK(obj != nullptr);
    return obj;
  }

  SourceRegionShape shape_;
  std::unique_ptr<Heap> heap_;
  SafepointManager safepoints_;
  MutatorContext ctx_;
  std::unique_ptr<RegionalCollector> collector_;
};

uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

void RunSourceRegionPauses(benchmark::State& state, const SourceRegionShape& shape) {
  SourceRegionEnv env(static_cast<uint32_t>(state.range(0)), shape);
  const uint64_t evac0 = env.collector().metrics().PauseEvacNs();
  uint64_t cpu_ns = 0;
  for (auto _ : state) {
    uint64_t c0 = ProcessCpuNs();
    uint64_t t0 = NowNs();
    env.collector().CollectNow(env.ctx());
    uint64_t t1 = NowNs();
    cpu_ns += ProcessCpuNs() - c0;
    state.SetIterationTime(static_cast<double>(t1 - t0) * 1e-9);
    env.RefillYoungReferents();
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["evac_ms"] =
      static_cast<double>(env.collector().metrics().PauseEvacNs() - evac0) * 1e-6 / iters;
  state.counters["cpu_us"] = static_cast<double>(cpu_ns) * 1e-3 / iters;
}

// 700 slots, all young; the region is otherwise 4,900 byte[]s.
void BM_PauseYoungRefFreeSources(benchmark::State& state) {
  RunSourceRegionPauses(state, {/*data_arrays=*/4900, /*ref_slots=*/700,
                                /*young_stride=*/1, /*old_fill=*/false});
}
BENCHMARK(BM_PauseYoungRefFreeSources)
    ->Arg(1)
    ->Arg(2)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

// The index's `open` array: 20,000 slots among ~840 KB of byte[]s, one in
// twenty referencing a young byte[] (1,000 survivors per pause), the rest an
// old byte[] in another region.
void BM_PauseYoungSparseRefArray(benchmark::State& state) {
  RunSourceRegionPauses(state, {/*data_arrays=*/4200, /*ref_slots=*/20000,
                                /*young_stride=*/20, /*old_fill=*/true});
}
BENCHMARK(BM_PauseYoungSparseRefArray)
    ->Arg(1)
    ->Arg(2)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

// In-pause profiler cost at an inference boundary. arg: 0 = synchronous
// inference inside OnGcEnd (the historical pipeline), 1 = async inference
// (OnGcEnd only snapshots the table; analysis happens off-pause).
void BM_ProfilerGcEndInference(benchmark::State& state) {
  constexpr uint32_t kRows = 2048;
  RolpConfig rc;
  rc.inference_period = 1;  // every GC end is an inference boundary
  rc.auto_survivor_tracking = false;
  rc.alloc_buffer_slots = 0;
  rc.async_inference = state.range(0) != 0;
  // Size the table to the active context set (4x headroom) the way a tuned
  // deployment would: otherwise the fixed cost of walking a mostly-empty
  // 2^16-slot table dwarfs the analysis being moved off-pause.
  rc.old_table_entries = kRows * 4;
  Profiler p(rc);
  for (uint32_t c = 1; c <= kRows; c++) {
    p.RecordAllocation(c);
  }
  uint64_t cycle = 0;
  uint64_t pause_cpu_ns = 0;
  for (auto _ : state) {
    // Untimed: repopulate worker tables and age-0 counts (the merge input).
    for (uint32_t c = 1; c <= kRows; c++) {
      p.RecordAllocation(c);
      uint64_t mark = markword::SetAge(markword::SetContext(0, c), c % 6);
      p.OnSurvivor(c % 4, mark);
    }
    uint64_t c0 = ThreadCpuNs();
    uint64_t t0 = NowNs();
    p.OnGcEnd({++cycle, 1000000, PauseKind::kYoung});
    uint64_t t1 = NowNs();
    pause_cpu_ns += ThreadCpuNs() - c0;
    state.SetIterationTime(static_cast<double>(t1 - t0) * 1e-9);
    p.WaitForStagedInference();  // async analysis drains untimed
  }
  state.counters["inferences"] = static_cast<double>(p.inferences_run());
  // CPU the pause thread itself spends inside OnGcEnd. On a single-CPU host
  // the freshly woken inference thread preempts into the wall-clock window,
  // so wall time conserves total work and hides the split; thread CPU time is
  // the number that transfers to a multi-core host.
  state.counters["pause_cpu_us"] = static_cast<double>(pause_cpu_ns) * 1e-3 /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_ProfilerGcEndInference)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// In-pause heap verification cost at the default sampling rate. arg 0 runs
// the identical pause loop with ROLP_VERIFY=off (the baseline), arg 1 with
// pause-level verification sampling 1-in-8 regions. ci.sh gates arg 1 against
// its committed baseline; the arg1/arg0 ratio is the <15% overhead budget
// from DESIGN.md section 12, surfaced here as the verify_ms counter.
void BM_VerifyPauseOverhead(benchmark::State& state) {
  PauseBenchEnv env(/*workers=*/2);
  VerifyOptions& vo = env.collector().mutable_verify_options();
  vo.level = state.range(0) != 0 ? VerifyLevel::kPause : VerifyLevel::kOff;
  vo.sample_period = 8;  // default ROLP_VERIFY_SAMPLE
  for (auto _ : state) {
    state.SetIterationTime(env.TimedCollect());
    env.RefillYoungReferents();
  }
  const GcMetrics& m = env.collector().metrics();
  double iters = static_cast<double>(state.iterations());
  state.counters["verify_ms"] =
      static_cast<double>(m.PauseVerifyNs()) * 1e-6 / iters;
  state.counters["verify_passes"] =
      static_cast<double>(env.collector().verify_stats().passes);
}
BENCHMARK(BM_VerifyPauseOverhead)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(16);

// End-to-end smoke of the sharded front end (DESIGN.md section 15): arg =
// shard count, a short fixed-rate open-loop run over per-shard kvstore VMs.
// Timed manually over the whole run (duration is fixed, so the time column is
// flat by construction); the counters are the signal — merged tail lateness,
// the completion rate, and per-op GC phase CPU summed across shard VMs.
void BM_ShardedServiceSmoke(benchmark::State& state) {
  for (auto _ : state) {
    VmConfig cfg;
    cfg.heap_mb = 64;
    cfg.gc = GcKind::kRolp;
    KvStoreOptions kv;
    kv.num_keys = 8000;
    kv.memtable_flush_rows = 4000;
    ShardedServiceOptions opt;
    opt.shards = static_cast<int>(state.range(0));
    opt.service.workers = 1;
    opt.service.duration_s = 2.0;
    opt.service.rate_rps = 2000.0;
    opt.service.calibrate_s = 0.0;
    opt.service.drain_grace_s = 0.5;
    uint64_t t0 = NowNs();
    ShardedServiceResult r = RunShardedService(
        cfg, [&kv](int) { return std::make_unique<KvStoreWorkload>(kv); }, opt);
    state.SetIterationTime(static_cast<double>(NowNs() - t0) * 1e-9);
    state.counters["offered"] = static_cast<double>(r.offered);
    state.counters["ok_rate"] =
        r.offered > 0 ? static_cast<double>(r.slo.ok) / static_cast<double>(r.offered)
                      : 0.0;
    state.counters["p99_ms"] = r.slo.alltime.p99_ms;
    state.counters["slo_pass"] = r.slo_pass ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_ShardedServiceSmoke)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace rolp

BENCHMARK_MAIN();
