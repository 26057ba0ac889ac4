// perfbench: runs one benchmark workload through the runtime's public entry
// points (RunService, RunWorkload, marketdata::RunIngest) and writes the raw
// measurements as JSON. perfbench/run.py builds this program, runs it, checks
// the outputs and turns the raw numbers into the named metrics.
//
//   perfbench --workload kv-open|text-open|graph-g1|ingest-rolp|text-zgc --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Always writes DIR/result.json. The workload runs untraced for the
// end-to-end numbers, then (with --trace 1) traced with the same inputs, then
// a short check pass with in-pause heap verification on. The traced pass also
// writes DIR/spans.bin (the benchmark's own spans) and DIR/trace.json (the
// runtime's Trace flight recorder). End-to-end numbers come only from the
// untraced pass.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/gc/watchdog/gc_watchdog.h"
#include "src/service/open_loop.h"
#include "src/util/clock.h"
#include "src/util/trace.h"
#include "src/workloads/driver.h"
#include "src/workloads/graph.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/marketdata/pipeline.h"
#include "src/workloads/textindex.h"

namespace {

using namespace rolp;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kHeapMb = 96;
constexpr uint32_t kGcWorkers = 1;
constexpr double kIngestRateEps = 100000.0;
constexpr uint64_t kGraphVertices = 60000;
// Open-loop admission: a queue cap and a per-request deadline that no run
// comes near, so the service executes every request (see OpenLoop).
constexpr size_t kOpenQueueCap = size_t{1} << 20;
constexpr uint64_t kOpenDeadlineMs = 60000;
// Every pass runs kWarmupS seconds before its measured window.
constexpr double kWarmupS = 2.0;
// setup_s is the median of the set-ups one run makes: at least
// kMinSetupReps, and more until kSetupBudgetS seconds have passed or
// kMaxSetupReps are done, so that workloads with millisecond set-ups take
// enough samples for a steady median.
constexpr int kMinSetupReps = 21;
constexpr int kMaxSetupReps = 400;
constexpr double kSetupBudgetS = 1.5;
// Length of the check pass, which runs with ROLP_VERIFY=pause so every
// collection verifies a sample of the heap inside its pause.
constexpr double kCheckSeconds = 1.0;
// The runtime's flight recorder overwrites its oldest events when a thread's
// ring fills; this size holds a full traced pass of every workload.
constexpr size_t kTraceEventsPerThread = 1u << 17;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer: nested objects/arrays, numbers, strings, booleans.
class JsonWriter {
 public:
  JsonWriter& Begin(const std::string& key = "") {
    Sep(key);
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& End() {
    out_ += '}';
    first_.pop_back();
    return *this;
  }
  JsonWriter& BeginArray(const std::string& key = "") {
    Sep(key);
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    out_ += ']';
    first_.pop_back();
    return *this;
  }
  JsonWriter& Num(const std::string& key, double v) {
    Sep(key);
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Str(const std::string& key, const std::string& v) {
    Sep(key);
    Quote(v);
    return *this;
  }
  JsonWriter& Bool(const std::string& key, bool v) {
    Sep(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep(const std::string& key) {
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
    if (!key.empty()) {
      Quote(key);
      out_ += ':';
    }
  }

  void Quote(const std::string& v) {
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
};

bool WriteFile(const std::string& path, const void* data, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  bool ok = std::fwrite(data, 1, len, f) == len;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ---------------------------------------------------------------------------
// Hardware stamp: CPUs the affinity mask allows, and how many of them run
// fixed work in parallel (a box can report 4 CPUs yet run about one).

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

// Restricts the process to the lowest CPU its affinity mask allows. Threads
// started afterwards inherit the mask.
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return false;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &set)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0;
    }
  }
  return false;
}

uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iters; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Wall time of `threads` threads each spinning `iters` iterations at once.
double SpinWallS(int threads, uint64_t iters) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(threads);
  uint64_t t0 = NowNs();
  for (int i = 0; i < threads; i++) {
    pool.emplace_back([&sink, i, iters] { sink[i] = Spin(iters); });
  }
  for (auto& th : pool) {
    th.join();
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ---------------------------------------------------------------------------
// Forwarding Workload wrapper: times Setup and every Op (the benchmark's own
// spans around calls into the workloads layer) and, in Teardown while the VM
// is still alive, snapshots every layer's counters from its public accessors.

std::map<std::string, double> SnapshotLayers(VM& vm) {
  std::map<std::string, double> m;
  Heap& heap = vm.heap();
  GcMetrics& gm = vm.collector().metrics();
  const double alloc_bytes = static_cast<double>(heap.total_allocated_bytes());
  m["heap.alloc_mb"] = alloc_bytes / kMiB;
  m["heap.max_used_mb"] = static_cast<double>(heap.max_used_bytes()) / kMiB;
  m["heap.region_lock.acquisitions"] = static_cast<double>(heap.regions().lock_acquisitions());
  m["heap.region_lock.stall_ms"] = static_cast<double>(heap.regions().lock_stall_ns()) / 1e6;
  m["heap.throttle_stalls"] = static_cast<double>(heap.governor().throttle_stalls());
  m["heap.recoverable_ooms"] = static_cast<double>(vm.total_recoverable_ooms());

  m["gc.cycles"] = static_cast<double>(gm.GcCycles());
  m["gc.pauses"] = static_cast<double>(gm.PauseCount());
  double young = 0, mixed = 0, full = 0, other = 0;
  for (const PauseRecord& rec : gm.Pauses()) {
    switch (rec.kind) {
      case PauseKind::kYoung:
        young++;
        break;
      case PauseKind::kMixed:
        mixed++;
        break;
      case PauseKind::kFull:
        full++;
        break;
      default:
        other++;
        break;
    }
  }
  m["gc.pauses.young"] = young;
  m["gc.pauses.mixed"] = mixed;
  m["gc.pauses.full"] = full;
  m["gc.pauses.other"] = other;
  m["gc.pause.total_ms"] = static_cast<double>(gm.TotalPauseNs()) / 1e6;
  m["gc.pause.scan_ms"] = static_cast<double>(gm.PauseScanNs()) / 1e6;
  m["gc.pause.evac_ms"] = static_cast<double>(gm.PauseEvacNs()) / 1e6;
  m["gc.pause.profiler_ms"] = static_cast<double>(gm.PauseProfilerNs()) / 1e6;
  m["gc.pause.verify_ms"] = static_cast<double>(gm.PauseVerifyNs()) / 1e6;
  m["gc.pause.remap_ms"] = static_cast<double>(gm.PauseRemapNs()) / 1e6;
  for (GcPhase phase : {GcPhase::kMark, GcPhase::kScan, GcPhase::kEvacuate, GcPhase::kCompact,
                        GcPhase::kVerify, GcPhase::kProfilerMerge, GcPhase::kConcurrentEvac}) {
    m[std::string("gc.phase_cpu_ms.") + GcPhaseName(phase)] =
        static_cast<double>(gm.PhaseCpuNs(static_cast<size_t>(phase))) / 1e6;
  }
  m["gc.copied_mb"] = static_cast<double>(gm.BytesCopied()) / kMiB;
  m["gc.promoted_mb"] = static_cast<double>(gm.BytesPromoted()) / kMiB;
  m["gc.copied_per_alloc"] =
      alloc_bytes > 0 ? static_cast<double>(gm.BytesCopied()) / alloc_bytes : 0.0;
  m["gc.max_worker_share"] = gm.MaxWorkerCopiedShare();
  m["gc.concurrent_ms"] = static_cast<double>(gm.ConcurrentWorkNs()) / 1e6;

  Profiler* p = vm.profiler();
  m["rolp.first_decision_cycle"] = p ? static_cast<double>(p->first_decision_cycle()) : 0.0;
  m["rolp.inferences"] = p ? static_cast<double>(p->inferences_run()) : 0.0;
  m["rolp.decisions"] = p ? static_cast<double>(p->decisions_count()) : 0.0;
  m["rolp.conflicts"] = p ? static_cast<double>(p->conflicts_total()) : 0.0;
  m["rolp.survivors_seen"] = p ? static_cast<double>(p->survivors_seen()) : 0.0;
  m["rolp.old_table.occupied"] = p ? static_cast<double>(p->old_table().occupied()) : 0.0;
  m["rolp.old_table.dropped"] = p ? static_cast<double>(p->old_table().dropped_samples()) : 0.0;
  m["rolp.async_inferences_started"] =
      p ? static_cast<double>(p->async_inferences_started()) : 0.0;
  m["rolp.stale_inferences_discarded"] =
      p ? static_cast<double>(p->stale_inferences_discarded()) : 0.0;

  m["runtime.allocations"] = static_cast<double>(vm.total_allocations());
  m["runtime.jit.profiled_alloc_sites"] = static_cast<double>(vm.jit().profiled_alloc_sites());
  m["runtime.jit.tracked_call_sites"] = static_cast<double>(vm.jit().tracked_call_sites());
  m["runtime.osr_repaired"] = static_cast<double>(vm.total_osr_repaired());
  return m;
}

// Integrity counters the output checks read (zero on a healthy run).
struct Integrity {
  uint64_t verify_passes = 0;
  uint64_t verify_findings = 0;
  uint64_t quarantined_regions = 0;
  uint64_t heap_corruption_reports = 0;
};

// How the wrapper keeps per-op timings. Closed loop: the duration of every op
// that starts `warmup_ns` or more after the first op, bucketed into
// `windows` consecutive windows of `window_ns`. Open loop: every completion
// with its request id, so lateness can be charged from the arrival schedule.
struct OpLogOptions {
  bool open = false;
  uint64_t warmup_ns = 0;
  uint64_t window_ns = 1;
  size_t windows = 0;
  bool spans = false;  // also keep every op's start and end (traced pass)
};

struct Completion {
  uint64_t index;
  uint64_t end_ns;
  uint64_t dur_ns;
};

class TimedWorkload final : public Workload {
 public:
  TimedWorkload(Workload& inner, const OpLogOptions& log)
      : inner_(inner), log_(log), windows_(log.windows) {}

  std::string name() const override { return inner_.name(); }
  void ConfigureFilter(PackageFilter* filter) const override { inner_.ConfigureFilter(filter); }

  void Setup(VM& vm, RuntimeThread& t) override {
    vm_ = &vm;
    setup_start_ns_ = NowNs();
    inner_.Setup(vm, t);
    setup_end_ns_ = NowNs();
  }

  // One mutator or service worker calls Op, so the logs need no lock.
  void Op(RuntimeThread& t, uint64_t op_index) override {
    uint64_t t0 = NowNs();
    inner_.Op(t, op_index);
    uint64_t t1 = NowNs();
    if (ops_++ == 0) {
      first_op_ns_ = t0;
    }
    if (log_.spans) {
      spans_.push_back({t0, t1});
    }
    if (log_.open) {
      completions_.push_back({op_index, t1, t1 - t0});
      return;
    }
    uint64_t since = t0 - first_op_ns_;
    if (since >= log_.warmup_ns) {
      uint64_t k = (since - log_.warmup_ns) / log_.window_ns;
      if (k < windows_.size()) {
        windows_[k].push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
      }
    }
  }

  void Teardown() override {
    if (vm_ != nullptr) {
      layers_ = SnapshotLayers(*vm_);
      const Collector& c = vm_->collector();
      integrity_.verify_passes = c.verify_stats().passes;
      integrity_.verify_findings = c.verify_stats().findings;
      integrity_.quarantined_regions = vm_->heap().regions().quarantined_regions();
      integrity_.heap_corruption_reports =
          vm_->profiler() ? vm_->profiler()->heap_corruption_reports() : 0;
      vm_ = nullptr;
    }
    inner_.Teardown();
  }

  uint64_t setup_start_ns() const { return setup_start_ns_; }
  uint64_t setup_end_ns() const { return setup_end_ns_; }
  uint64_t first_op_ns() const { return first_op_ns_; }
  uint64_t ops() const { return ops_; }
  const std::vector<std::vector<uint32_t>>& windows() const { return windows_; }
  const std::vector<Completion>& completions() const { return completions_; }
  const std::vector<std::pair<uint64_t, uint64_t>>& spans() const { return spans_; }
  const std::map<std::string, double>& layers() const { return layers_; }
  const Integrity& integrity() const { return integrity_; }

 private:
  Workload& inner_;
  OpLogOptions log_;
  VM* vm_ = nullptr;
  uint64_t setup_start_ns_ = 0;
  uint64_t setup_end_ns_ = 0;
  uint64_t first_op_ns_ = 0;
  uint64_t ops_ = 0;
  std::vector<std::vector<uint32_t>> windows_;
  std::vector<Completion> completions_;
  std::vector<std::pair<uint64_t, uint64_t>> spans_;
  std::map<std::string, double> layers_;
  Integrity integrity_;
};

// ---------------------------------------------------------------------------
// Workload configurations. One mutator or service worker and an explicit GC
// worker count everywhere, so the runnable threads stay within one CPU.

// The VM-backed workloads; ingest-rolp builds its own VM inside RunIngest.
struct VmWorkloadSpec {
  const char* name;
  GcKind gc;
  double open_rate_rps;  // arrivals on a fixed schedule at this rate; 0 = closed loop
  const char* inputs;
};

constexpr VmWorkloadSpec kVmWorkloads[] = {
    {"kv-open", GcKind::kRolp, 15000.0, "kvstore cassandra-wi: 75% writes, 60000 keys"},
    {"text-open", GcKind::kRolp, 15000.0, "lucene textindex: 80% writes, 32 KB request scratch"},
    {"graph-g1", GcKind::kG1, 0.0, "graphchi pr: 60000 vertices"},
    {"text-zgc", GcKind::kZgc, 0.0, "lucene textindex: 80% writes"},
};

const VmWorkloadSpec* FindSpec(const std::string& name) {
  for (const VmWorkloadSpec& spec : kVmWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

VmConfig BaseVm(const VmWorkloadSpec& spec, uint64_t seed) {
  VmConfig cfg;
  cfg.heap_mb = kHeapMb;
  cfg.gc = spec.gc;
  cfg.young_fraction = 0.10;
  cfg.jit.hot_threshold = 100;
  cfg.gc_config.num_workers = kGcWorkers;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<Workload> MakeInner(const std::string& name, uint64_t seed) {
  if (name.rfind("kv-", 0) == 0) {
    KvStoreOptions kv;
    kv.write_fraction = 0.75;  // cassandra-wi
    kv.memtable_flush_rows = 24000;
    kv.seed = seed;
    return std::make_unique<KvStoreWorkload>(kv);
  }
  if (name.rfind("graph-", 0) == 0) {
    GraphOptions g;
    g.algo = GraphAlgo::kPageRank;
    g.vertices = kGraphVertices;
    g.seed = seed;
    return std::make_unique<GraphWorkload>(g);
  }
  TextIndexOptions ti;
  ti.seed = seed;
  if (name == "text-open") {
    // Request buffers eight times the default put about 5% of wall time in
    // pauses at 15,000 req/s, so the collector and the profiler show in the
    // service's latency rather than in a handful of requests.
    ti.scratch_bytes = 32768;
  }
  return std::make_unique<TextIndexWorkload>(ti);
}

// A fixed arrival schedule, so each request's planned arrival is known and
// its lateness can be measured exactly (SloReporter keeps log buckets).
ServiceOptions OpenLoop(const Args& a, const VmWorkloadSpec& spec, double duration_s) {
  ServiceOptions svc;
  svc.workers = 1;
  svc.duration_s = duration_s;
  svc.warmup_s = std::min(kWarmupS, duration_s);
  svc.rate_rps = spec.open_rate_rps;
  svc.poisson_arrivals = false;
  svc.seed = a.seed;
  // The generator sleeps up to each arrival instead of spinning out the
  // timer slack: on a box with about one real CPU a spinning generator takes
  // the CPU the service worker and the collector need. Issuing late by the
  // timer slack is charged to every request's lateness.
  svc.pacing.spin_slack_ns = 0;
  // Every request is admitted, queued and executed, so each one lands in the
  // latency figures and the run's failure count does not hinge on whether a
  // host stall happened to inflate the admission EWMA (it counts a paused
  // request as service time and then refuses the next few dozen requests).
  // The queue cap and the deadline sit far beyond any lateness a run sees.
  svc.admission.queue_capacity = kOpenQueueCap;
  svc.admission.deadline_ms = kOpenDeadlineMs;
  return svc;
}

marketdata::IngestOptions IngestOpts(const Args& a, double seconds) {
  marketdata::IngestOptions io;
  io.rate_eps = kIngestRateEps;
  io.events = static_cast<uint64_t>(kIngestRateEps * (kWarmupS + seconds));
  io.warmup_fraction = kWarmupS / (kWarmupS + seconds);
  io.heap_mb = kHeapMb;
  io.seed = a.seed;
  io.mode = marketdata::PipelineMode::kFused;
  return io;
}

void WriteConfig(const Args& a, JsonWriter& w) {
  w.Begin("config");
  w.Str("workload", a.workload).Num("seed", static_cast<double>(a.seed));
  w.Num("seconds", a.seconds).Num("warmup_s", kWarmupS).Num("setup_budget_s", kSetupBudgetS);
  w.Num("check_seconds", kCheckSeconds).Str("check_verify", "pause");
  w.Num("heap_mb", static_cast<double>(kHeapMb));
  if (a.workload == "ingest-rolp") {
    marketdata::IngestOptions io = IngestOpts(a, a.seconds);
    // RunIngest builds its VM from IngestOptions, which carries no GC worker
    // count: the VM keeps GcConfig's default.
    w.Str("collector", "rolp").Str("loop", "open, fixed schedule").Num("rate", io.rate_eps);
    w.Str("rate_unit", "events/s").Num("events", static_cast<double>(io.events));
    w.Str("pipeline_mode", "fused").Num("workers", 1).Num("cpus_pinned", 1);
    w.Num("gc_workers", static_cast<double>(GcConfig{}.num_workers));
  } else {
    const VmWorkloadSpec& spec = *FindSpec(a.workload);
    VmConfig cfg = BaseVm(spec, a.seed);
    w.Str("collector", GcKindName(cfg.gc)).Num("young_fraction", cfg.young_fraction);
    w.Num("gc_workers", cfg.gc_config.num_workers).Num("workers", 1);
    w.Str("inputs", spec.inputs);
    if (spec.open_rate_rps > 0) {
      w.Str("loop", "open, fixed schedule").Num("rate", spec.open_rate_rps);
      w.Str("rate_unit", "req/s").Num("queue_cap", static_cast<double>(kOpenQueueCap));
      w.Num("deadline_ms", static_cast<double>(kOpenDeadlineMs));
    } else {
      w.Str("loop", "closed").Num("rate", 0).Str("rate_unit", "none");
    }
  }
  w.End();
}

// ---------------------------------------------------------------------------
// Measurements.

// Exact nearest-rank percentile of `v`, which it partially reorders.
template <typename T>
double PercentileMs(std::vector<T>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

// Percent of each measured window [origin + k * window_ns, + window_ns)
// that reported pauses cover.
std::vector<double> StoppedPct(const std::vector<PauseRecord>& pauses, uint64_t origin_ns,
                               const OpLogOptions& log) {
  std::vector<double> stopped_ns(log.windows);
  for (const PauseRecord& rec : pauses) {
    const uint64_t end_ns = rec.start_ns + rec.duration_ns;
    for (size_t k = 0; k < stopped_ns.size(); k++) {
      const uint64_t lo = std::max(rec.start_ns, origin_ns + k * log.window_ns);
      const uint64_t hi = std::min(end_ns, origin_ns + (k + 1) * log.window_ns);
      if (hi > lo) {
        stopped_ns[k] += static_cast<double>(hi - lo);
      }
    }
  }
  for (double& v : stopped_ns) {
    v = 100.0 * v / static_cast<double>(log.window_ns);
  }
  return stopped_ns;
}

// Per-window sample count and exact p50/p99 of one timing (ms), plus the
// window's rate in ops completed per second and its stopped share.
template <typename T>
void WriteWindows(JsonWriter& w, const std::string& key, std::vector<std::vector<T>> windows,
                  const std::vector<double>& rates, const std::vector<double>& stopped) {
  w.BeginArray(key);
  for (size_t i = 0; i < windows.size(); i++) {
    std::vector<T>& v = windows[i];
    w.Begin().Num("count", static_cast<double>(v.size())).Num("rate", rates[i]);
    w.Num("stopped_pct", stopped[i]);
    w.Num("p50_ms", PercentileMs(v, 50.0)).Num("p99_ms", PercentileMs(v, 99.0)).End();
  }
  w.EndArray();
}

void WritePauses(JsonWriter& w, const std::vector<PauseRecord>& pauses) {
  w.BeginArray("pauses_ms");
  for (const PauseRecord& rec : pauses) {
    w.Num("", static_cast<double>(rec.duration_ns) / 1e6);
  }
  w.EndArray();
}

void WriteLayers(JsonWriter& w, const std::map<std::string, double>& layers) {
  w.Begin("layers");
  for (const auto& [k, v] : layers) {
    w.Num(k, v);
  }
  w.End();
}

void WriteIntegrity(JsonWriter& w, const Integrity& in) {
  w.Begin("integrity");
  w.Num("verify_passes", static_cast<double>(in.verify_passes));
  w.Num("verify_findings", static_cast<double>(in.verify_findings));
  w.Num("quarantined_regions", static_cast<double>(in.quarantined_regions));
  w.Num("heap_corruption_reports", static_cast<double>(in.heap_corruption_reports));
  w.End();
}

// Spans the benchmark recorded itself: kind 0 = entry-point call, 1 =
// Workload::Setup, 2 = Workload::Op. Records are {kind, start_ns, end_ns} as
// little-endian uint64 triples.
bool WriteSpans(const std::string& path, uint64_t entry_start, uint64_t entry_end,
                const TimedWorkload* tw) {
  std::vector<uint64_t> buf = {0, entry_start, entry_end};
  if (tw != nullptr) {
    buf.insert(buf.end(), {1, tw->setup_start_ns(), tw->setup_end_ns()});
    buf.reserve(buf.size() + 3 * tw->spans().size());
    for (const auto& [start, end] : tw->spans()) {
      buf.insert(buf.end(), {2, start, end});
    }
  }
  return WriteFile(path, buf.data(), buf.size() * sizeof(uint64_t));
}

class TraceSession {
 public:
  explicit TraceSession(bool on) : on_(on) {
    if (on_) {
      Trace::Reset();
      Trace::Enable(kTraceEventsPerThread);
    }
  }
  ~TraceSession() {
    if (on_) {
      Trace::Disable();
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Stops recording and writes the flight recorder and the benchmark spans.
  bool Finish(const Args& a, JsonWriter& w, uint64_t entry_start, uint64_t entry_end,
              const TimedWorkload* tw) {
    if (!on_) {
      return true;
    }
    Trace::Disable();
    on_ = false;
    w.Num("trace_events_recorded", static_cast<double>(Trace::events_recorded()));
    w.Num("trace_events_per_thread", static_cast<double>(kTraceEventsPerThread));
    return Trace::WriteJson(a.out_dir + "/trace.json") &&
           WriteSpans(a.out_dir + "/spans.bin", entry_start, entry_end, tw);
  }

 private:
  bool on_;
};

void WriteWorkloadCounters(JsonWriter& w, Workload* inner) {
  w.Begin("workload_counters");
  if (auto* kv = dynamic_cast<KvStoreWorkload*>(inner)) {
    w.Num("kv.flushes", static_cast<double>(kv->flushes()));
    w.Num("kv.reads_hit", static_cast<double>(kv->reads_hit()));
  } else if (auto* g = dynamic_cast<GraphWorkload*>(inner)) {
    w.Num("graph.iterations", static_cast<double>(g->iterations()));
  } else if (auto* ti = dynamic_cast<TextIndexWorkload*>(inner)) {
    w.Num("text.merges", static_cast<double>(ti->merges()));
    w.Num("text.queries", static_cast<double>(ti->queries()));
  }
  w.End();
}

// Open-loop lateness: completion minus the arrival the fixed schedule set for
// the request (RunService issues request i at run start + i * gap and passes
// i as the op index). Writes the all-time distribution, which the output
// checks compare with the service's own SloReporter, and the measured
// windows, which the end-to-end metrics come from.
void WriteLateness(JsonWriter& w, const TimedWorkload& tw, uint64_t run_start_ns, uint64_t gap_ns,
                   const OpLogOptions& log, const std::vector<PauseRecord>& pauses) {
  std::vector<uint64_t> all;
  std::vector<uint64_t> exec;
  std::vector<std::vector<uint64_t>> windows(log.windows);
  // Rate from the first to the last completion in each window, by
  // completion time: counting requests per window would read exactly the
  // offered rate on a fixed schedule.
  std::vector<uint64_t> done(log.windows), first(log.windows), last(log.windows);
  all.reserve(tw.completions().size());
  double min_ms = 1e300;
  for (const Completion& c : tw.completions()) {
    uint64_t offset = c.index * gap_ns;
    int64_t lateness = static_cast<int64_t>(c.end_ns - run_start_ns - offset);
    min_ms = std::min(min_ms, static_cast<double>(lateness) / 1e6);
    uint64_t late = lateness > 0 ? static_cast<uint64_t>(lateness) : 0;
    all.push_back(late);
    exec.push_back(c.dur_ns);
    if (offset >= log.warmup_ns) {
      uint64_t k = (offset - log.warmup_ns) / log.window_ns;
      if (k < windows.size()) {
        windows[k].push_back(late);
      }
    }
    uint64_t since = c.end_ns - run_start_ns;
    if (since >= log.warmup_ns && (since - log.warmup_ns) / log.window_ns < done.size()) {
      uint64_t k = (since - log.warmup_ns) / log.window_ns;
      first[k] = done[k]++ == 0 ? c.end_ns : first[k];
      last[k] = c.end_ns;
    }
  }
  std::vector<double> rates(log.windows);
  for (size_t k = 0; k < rates.size(); k++) {
    rates[k] = last[k] > first[k] ? static_cast<double>(done[k] - 1) * 1e9 /
                                        static_cast<double>(last[k] - first[k])
                                  : 0.0;
  }
  w.Begin("lateness_alltime").Num("count", static_cast<double>(all.size()));
  w.Num("min_ms", all.empty() ? 0.0 : min_ms);
  w.Num("p50_ms", PercentileMs(all, 50.0)).Num("p99_ms", PercentileMs(all, 99.0)).End();
  w.Begin("op_duration").Num("count", static_cast<double>(exec.size()));
  w.Num("p50_ms", PercentileMs(exec, 50.0)).Num("p99_ms", PercentileMs(exec, 99.0)).End();
  WriteWindows(w, "windows", std::move(windows), rates,
               StoppedPct(pauses, run_start_ns + log.warmup_ns, log));
}

// One pass of a VM-backed workload: kWarmupS seconds, then `seconds`
// measured in windows of about two seconds.
bool RunVmPass(const Args& a, double seconds, bool traced, JsonWriter& w) {
  const VmWorkloadSpec& spec = *FindSpec(a.workload);
  std::unique_ptr<Workload> inner = MakeInner(a.workload, a.seed);
  OpLogOptions log;
  log.open = spec.open_rate_rps > 0;
  log.warmup_ns = static_cast<uint64_t>(kWarmupS * 1e9);
  log.windows = static_cast<size_t>(std::max(1.0, std::round(seconds / 2.0)));
  log.window_ns = static_cast<uint64_t>(seconds * 1e9) / log.windows;
  log.spans = traced;
  const double window_s = static_cast<double>(log.window_ns) / 1e9;
  TimedWorkload tw(*inner, log);
  VmConfig cfg = BaseVm(spec, a.seed);
  TraceSession trace(traced);

  w.Str("entry_layer", log.open ? "service" : "workloads");
  w.Num("window_s", window_s);
  uint64_t t0 = NowNs();
  if (log.open) {
    ServiceResult r = RunService(cfg, tw, OpenLoop(a, spec, kWarmupS + seconds));
    uint64_t t1 = NowNs();
    w.Num("entry_s", static_cast<double>(t1 - t0) / 1e9);
    w.Num("measured_s", seconds);
    w.Num("attempted", static_cast<double>(r.offered));
    w.Num("completed", static_cast<double>(r.completed_ok + r.deadline_miss));
    // The same expression RunService uses for its fixed interarrival gap.
    const uint64_t gap_ns =
        std::max<uint64_t>(static_cast<uint64_t>(1e9 / spec.open_rate_rps), 1);
    WriteLateness(w, tw, r.run.run_start_ns, gap_ns, log, r.run.pauses);
    const SloReporter::WindowStats& lat = r.slo.alltime;
    w.Begin("reporter_lateness").Num("count", static_cast<double>(lat.count));
    w.Num("p50_ms", lat.p50_ms).Num("p99_ms", lat.p99_ms).Num("p999_ms", lat.p999_ms);
    w.Num("max_ms", lat.max_ms).End();
    WritePauses(w, r.run.pauses);
    w.Begin("service");
    w.Num("offered", static_cast<double>(r.offered));
    w.Num("admitted", static_cast<double>(r.admitted));
    w.Num("completed_ok", static_cast<double>(r.completed_ok));
    w.Num("rejected", static_cast<double>(r.rejected));
    w.Num("shed_queue_full", static_cast<double>(r.shed_queue_full));
    w.Num("shed_deadline", static_cast<double>(r.shed_deadline));
    w.Num("shed_drain", static_cast<double>(r.shed_drain));
    w.Num("deadline_miss", static_cast<double>(r.deadline_miss));
    w.Num("retries", static_cast<double>(r.retries));
    auto seg = [&w](const char* key, const SloReporter::SegmentStats& s) {
      w.Begin(key).Num("count", static_cast<double>(s.count)).Num("mean_ms", s.mean_ms);
      w.Num("p99_ms", s.p99_ms).End();
    };
    seg("sched_to_enqueue", r.slo.seg_sched_to_enqueue);
    seg("queue_wait", r.slo.seg_queue_wait);
    seg("execute", r.slo.seg_execute);
    w.End();
    if (!trace.Finish(a, w, t0, t1, &tw)) {
      return false;
    }
  } else {
    DriverOptions opt;
    opt.threads = 1;
    opt.duration_s = kWarmupS + seconds;
    opt.warmup_s = kWarmupS;
    RunResult run = RunWorkload(cfg, tw, opt);
    uint64_t t1 = NowNs();
    w.Num("entry_s", static_cast<double>(t1 - t0) / 1e9);
    w.Num("measured_s", run.measured_s);
    w.Num("attempted", static_cast<double>(tw.ops()));
    w.Num("completed", static_cast<double>(run.ops));
    std::vector<double> rates;
    for (const auto& v : tw.windows()) {
      rates.push_back(static_cast<double>(v.size()) / window_s);
    }
    WriteWindows(w, "windows", tw.windows(), rates,
                 StoppedPct(run.pauses, tw.first_op_ns() + log.warmup_ns, log));
    WritePauses(w, run.pauses);
    if (!trace.Finish(a, w, t0, t1, &tw)) {
      return false;
    }
  }
  WriteWorkloadCounters(w, inner.get());
  w.Num("setup_ms", static_cast<double>(tw.setup_end_ns() - tw.setup_start_ns()) / 1e6);
  WriteLayers(w, tw.layers());
  WriteIntegrity(w, tw.integrity());
  return true;
}

void WriteBook(JsonWriter& w, const std::string& key, const marketdata::IngestResult& r) {
  w.Begin(key);
  w.Bool("survived", r.survived);
  w.Num("scheduled", static_cast<double>(r.scheduled));
  w.Num("parsed", static_cast<double>(r.parsed));
  w.Num("analyzed", static_cast<double>(r.analyzed));
  w.Num("applied", static_cast<double>(r.applied));
  w.Num("drops", static_cast<double>(r.parse_drops + r.book_drops));
  // Decimal string: a 64-bit checksum does not survive a JSON double.
  w.Str("checksum", std::to_string(r.book.checksum));
  w.Num("resting_orders", static_cast<double>(r.book.resting_orders));
  w.Num("live_levels", static_cast<double>(r.book.live_levels));
  w.End();
}

// One pass of the ingest pipeline. The VM lives inside RunIngest, so its
// per-layer counters come from the metrics-registry snapshot the VM writes at
// teardown when ROLP_METRICS_DUMP names a file.
bool RunIngestPass(const Args& a, double seconds, bool traced, bool with_reference,
                   const std::string& dump_name, JsonWriter& w) {
  marketdata::IngestOptions io = IngestOpts(a, seconds);
  std::string dump = a.out_dir + "/" + dump_name;
  TraceSession trace(traced);
  setenv("ROLP_METRICS_DUMP", dump.c_str(), 1);
  uint64_t t0 = NowNs();
  marketdata::IngestResult r = marketdata::RunIngest(marketdata::ArmKind::kRolp, io);
  uint64_t t1 = NowNs();
  unsetenv("ROLP_METRICS_DUMP");
  if (!trace.Finish(a, w, t0, t1, nullptr)) {
    return false;
  }
  w.Str("entry_layer", "workloads");
  w.Num("entry_s", static_cast<double>(t1 - t0) / 1e9);
  w.Str("vm_metrics", dump);
  // Pauses come from the VM's whole-run counters, so they are set against
  // the whole schedule.
  w.Num("measured_s", static_cast<double>(io.events) / io.rate_eps);
  w.Num("attempted", static_cast<double>(r.scheduled));
  w.Num("completed", static_cast<double>(r.analyzed));
  // Events completed per second of the issued schedule.
  w.Num("throughput_ops_s", r.offered_eps * static_cast<double>(r.analyzed) /
                                static_cast<double>(std::max<uint64_t>(r.scheduled, 1)));
  w.Begin("latency").Num("count", static_cast<double>(r.measured));
  w.Num("p50_ms", static_cast<double>(r.p50_ns) / 1e6);
  w.Num("p99_ms", static_cast<double>(r.p99_ns) / 1e6);
  w.Num("p999_ms", static_cast<double>(r.p999_ns) / 1e6);
  w.Str("source", "IngestResult post-warmup jitter (log buckets, ~3% resolution)").End();
  w.Begin("ingest");
  w.Num("offered_eps", r.offered_eps);
  w.Num("alloc_ns_per_event", r.alloc_ns_per_event);
  w.Num("gc_pauses", static_cast<double>(r.gc_pauses));
  w.Num("max_pause_ms", r.max_pause_ms);
  w.Num("throttle_stalls", static_cast<double>(r.governor_throttle_stalls));
  w.Num("recoverable_ooms", static_cast<double>(r.recoverable_ooms));
  w.End();
  WriteBook(w, "book", r);
  if (with_reference) {
    // The pooled arm (no VM, no GC) on the same seed is the book oracle. The
    // book state depends only on the event stream, so it runs unpaced.
    marketdata::IngestOptions ref = io;
    ref.rate_eps = 1e9;
    WriteBook(w, "pooled_reference", marketdata::RunIngest(marketdata::ArmKind::kPooled, ref));
  }
  return true;
}

// Seconds from the call into the entry point to the first op: VM boot plus
// Workload::Setup. RunIngest exposes no first-event time, so an ingest set-up
// is a whole one-event RunIngest call (boot, book build, teardown).
double SetupOnce(const Args& a) {
  if (a.workload == "ingest-rolp") {
    marketdata::IngestOptions io = IngestOpts(a, a.seconds);
    io.events = 1;
    io.warmup_fraction = 0.0;
    uint64_t t0 = NowNs();
    marketdata::RunIngest(marketdata::ArmKind::kRolp, io);
    return static_cast<double>(NowNs() - t0) / 1e9;
  }
  std::unique_ptr<Workload> inner = MakeInner(a.workload, a.seed);
  TimedWorkload tw(*inner, OpLogOptions{});
  const VmWorkloadSpec& spec = *FindSpec(a.workload);
  VmConfig cfg = BaseVm(spec, a.seed);
  uint64_t t0 = NowNs();
  if (spec.open_rate_rps > 0) {
    RunService(cfg, tw, OpenLoop(a, spec, 0.001));
  } else {
    DriverOptions opt;
    opt.threads = 1;
    opt.duration_s = 60.0;
    opt.max_ops = 1;
    RunWorkload(cfg, tw, opt);
  }
  if (tw.first_op_ns() == 0) {
    return -1.0;
  }
  return static_cast<double>(tw.first_op_ns() - t0) / 1e9;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  bool known = a->workload == "ingest-rolp" || FindSpec(a->workload) != nullptr;
  return known && a->seconds > 0 && !a->out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload kv-open|text-open|graph-g1|ingest-rolp|text-zgc --seed N "
                 "--seconds S --trace 0|1 --out DIR\n",
                 argv[0]);
    return 2;
  }

  JsonWriter w;
  w.Begin();
  w.Begin("stamp");
  int cpus = AllowedCpus();
  w.Num("cpus_allowed", cpus);
  w.Num("hardware_concurrency", std::thread::hardware_concurrency());
  // Effective parallelism: `cpus` threads doing the work one thread does in
  // t1 take tn; cpus * t1 / tn is how many of them really ran at once.
  const uint64_t iters = 30u * 1000 * 1000;
  double t1 = SpinWallS(1, iters);
  double tn = SpinWallS(cpus, iters);
  w.Num("calibration_spin_1_s", t1).Num("calibration_spin_n_s", tn);
  w.Num("effective_parallelism", static_cast<double>(cpus) * t1 / tn);
  w.Str("build_type", PERFBENCH_BUILD_TYPE).Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  w.Str("compiler", PERFBENCH_COMPILER);
  w.End();
  WriteConfig(a, w);

  const bool ingest = a.workload == "ingest-rolp";
  // RunIngest's VM always starts GcConfig's default two GC workers. How many
  // of a shared box's CPUs really run at once (about one at some hours, about
  // four at others) moved their pause times by about 60%, so the whole ingest
  // process runs on one CPU, which its mutator and GC workers share.
  if (ingest && !PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot pin ingest-rolp to one CPU\n");
    return 1;
  }

  w.BeginArray("setup_s");
  const uint64_t setup_t0 = NowNs();
  for (int i = 0; i < kMaxSetupReps && (i < kMinSetupReps ||
                                        NowNs() - setup_t0 < kSetupBudgetS * 1e9);
       i++) {
    w.Num("", SetupOnce(a));
  }
  w.EndArray();

  bool ok = true;
  // Untraced pass first: it alone feeds the end-to-end metrics.
  w.Begin("run");
  ok = ingest ? RunIngestPass(a, a.seconds, false, true, "vm_metrics.json", w)
              : RunVmPass(a, a.seconds, false, w);
  w.End();
  if (ok && a.trace) {
    w.Begin("traced");
    ok = ingest ? RunIngestPass(a, a.seconds, true, false, "vm_metrics_traced.json", w)
                : RunVmPass(a, a.seconds, true, w);
    w.End();
  }
  // The check pass: the same workload with in-pause verification on, so the
  // output checks can require verifier passes that found nothing. It feeds
  // no metric. The collector reads ROLP_VERIFY when the VM boots.
  if (ok) {
    setenv("ROLP_VERIFY", "pause", 1);
    w.Begin("check");
    ok = ingest ? RunIngestPass(a, kCheckSeconds, false, false, "vm_metrics_check.json", w)
                : RunVmPass(a, kCheckSeconds, false, w);
    w.End();
    unsetenv("ROLP_VERIFY");
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  w.Num("max_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  w.End();
  if (!ok) {
    return 1;
  }
  const std::string& s = w.str();
  return WriteFile(a.out_dir + "/result.json", s.data(), s.size()) ? 0 : 1;
}
