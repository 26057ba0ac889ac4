#include "src/workloads/marketdata/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>

#include "src/heap/heap.h"
#include "src/runtime/thread.h"
#include "src/runtime/vm.h"
#include "src/service/slo_reporter.h"
#include "src/util/clock.h"
#include "src/util/env.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics_registry.h"
#include "src/util/proc_stats.h"
#include "src/util/spinlock.h"
#include "src/util/spsc_ring.h"
#include "src/workloads/driver.h"

namespace rolp {
namespace marketdata {

namespace {

// Blocking ring hand-offs. Events are never dropped at a ring — a full ring
// means the downstream stage is stalled (GC pause, throttle, injected
// stall), and the open-loop discipline demands the delay be *charged*, not
// shed. Attached threads must keep polling so a ring wait can never hold a
// safepoint hostage (the same shape as the PR 6 LockAtSafepoint fix).
// Spin briefly, then yield, then back off to short sleeps: on a box with
// fewer cores than pipeline threads an unbounded spin/yield loop starves the
// counterpart stage for whole scheduler quanta.
struct RingWait {
  int spins = 0;
  int yields = 0;
  void Pause(RuntimeThread* t) {
    if (t != nullptr) {
      t->Poll();
    }
    if (++spins < 256) {
      CpuRelax();
    } else if (++yields < 64) {
      spins = 0;
      std::this_thread::yield();
    } else {
      spins = 0;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
};

void BlockingPush(SpscRing<ParsedEvent>& ring, const ParsedEvent& ev,
                  RuntimeThread* t) {
  RingWait wait;
  while (!ring.TryPush(ev)) {
    wait.Pause(t);
  }
}

bool BlockingPop(SpscRing<ParsedEvent>& ring, ParsedEvent* ev, RuntimeThread* t) {
  RingWait wait;
  while (!ring.TryPop(ev)) {
    wait.Pause(t);
  }
  return ev->halt == 0;
}

GcKind GcFor(ArmKind arm) {
  switch (arm) {
    case ArmKind::kG1:
      return GcKind::kG1;
    case ArmKind::kRolp:
      return GcKind::kRolp;
    case ArmKind::kZgc:
      return GcKind::kZgc;
    case ArmKind::kPooled:
      break;
  }
  return GcKind::kG1;
}

}  // namespace

PipelineMode ResolveMode(PipelineMode requested) {
  if (requested != PipelineMode::kAuto) {
    return requested;
  }
  // Three pipeline threads plus GC workers on fewer than four CPUs means
  // every ring hand-off pays a scheduler quantum, which buries the GC signal
  // the workload exists to measure. Fuse the stages onto one thread there.
  // Count the CPUs this process may run on, not the machine's.
  return AllowedCpuCount() >= 4 ? PipelineMode::kThreaded : PipelineMode::kFused;
}

const char* ArmName(ArmKind arm) {
  switch (arm) {
    case ArmKind::kPooled:
      return "pooled";
    case ArmKind::kG1:
      return "g1";
    case ArmKind::kRolp:
      return "rolp";
    case ArmKind::kZgc:
      return "zgc";
  }
  return "?";
}

bool ParseArm(const std::string& name, ArmKind* out) {
  if (name == "pooled") {
    *out = ArmKind::kPooled;
  } else if (name == "g1") {
    *out = ArmKind::kG1;
  } else if (name == "rolp") {
    *out = ArmKind::kRolp;
  } else if (name == "zgc") {
    *out = ArmKind::kZgc;
  } else {
    return false;
  }
  return true;
}

IngestOptions IngestOptions::FromEnv() {
  IngestOptions o;
  o.rate_eps = EnvDouble("ROLP_INGEST_RATE", o.rate_eps);
  o.events = static_cast<uint64_t>(EnvInt64("ROLP_INGEST_EVENTS", static_cast<int64_t>(o.events)));
  o.warmup_fraction = EnvDouble("ROLP_INGEST_WARMUP", o.warmup_fraction);
  o.ring_capacity = static_cast<size_t>(EnvInt64("ROLP_INGEST_RING", static_cast<int64_t>(o.ring_capacity)));
  o.heap_mb = static_cast<size_t>(EnvInt64("ROLP_INGEST_HEAP_MB", static_cast<int64_t>(o.heap_mb)));
  o.seed = static_cast<uint64_t>(EnvInt64("ROLP_INGEST_SEED", 0x5eed));
  o.book.tick_bytes = static_cast<uint32_t>(EnvInt64("ROLP_INGEST_TICK_BYTES", o.book.tick_bytes));
  o.book.symbols = static_cast<uint32_t>(EnvInt64("ROLP_INGEST_SYMBOLS", o.book.symbols));
  std::string mode = EnvString("ROLP_INGEST_MODE", "auto");
  if (mode == "threaded") {
    o.mode = PipelineMode::kThreaded;
  } else if (mode == "fused") {
    o.mode = PipelineMode::kFused;
  } else {
    o.mode = PipelineMode::kAuto;
  }
  o.pacing = PacerOptions::FromEnv();
  return o;
}

IngestResult RunIngest(ArmKind arm, const IngestOptions& options) {
  IngestResult result;
  result.arm = arm;
  result.scheduled = options.events;

  const double gap_ns = 1e9 / options.rate_eps;
  const uint64_t warmup_events =
      static_cast<uint64_t>(static_cast<double>(options.events) * options.warmup_fraction);

  // --- Arm setup -----------------------------------------------------------
  std::unique_ptr<VM> vm;
  std::unique_ptr<OrderBook> book;
  if (arm == ArmKind::kPooled) {
    book = MakePooledBook(options.book);
  } else {
    VmConfig cfg;
    cfg.heap_mb = options.heap_mb;
    cfg.gc = GcFor(arm);
    cfg.jit.hot_threshold = 1;  // profile from the first event
    cfg.seed = options.seed;
    if (arm == ArmKind::kRolp) {
      cfg.filter.Include("md.book");
      cfg.filter.Include("md.analytics");
      cfg.filter.Include("md.feed");
      // The paper's every-16-cycles inference cadence assumes long-running
      // services; a short CI ingest run only sees a handful of pauses, so the
      // profiler would never publish a pretenuring decision. Infer every
      // cycle so decisions land inside the warmup window.
      cfg.rolp.inference_period = static_cast<uint32_t>(
          EnvInt64("ROLP_INGEST_INFER_PERIOD", 1));
    }
    vm = std::make_unique<VM>(cfg);
    RuntimeThread* setup = vm->AttachThread();
    book = MakeVmBook(*vm, *setup, options.book);
    vm->jit().CompileAll();
    vm->DetachThread(setup);
  }

  SpscRing<ParsedEvent> parse_to_book(options.ring_capacity);
  SpscRing<ParsedEvent> book_to_analytics(options.ring_capacity);

  const uint64_t start_ns = NowNs() + 2 * 1000 * 1000;  // 2 ms lead-in
  const uint64_t warmup_end_ns =
      start_ns + static_cast<uint64_t>(static_cast<double>(warmup_events) * gap_ns);
  SloReporter reporter(start_ns);

  std::atomic<uint64_t> parsed{0}, parse_drops{0}, applied{0}, book_drops{0},
      analyzed{0}, measured{0};
  std::atomic<uint64_t> first_issue_ns{0}, last_issue_ns{0};

  // Stage bodies are shared between the threaded and fused schedules so the
  // two modes run byte-identical semantics per event.
  //
  // Feed + parse: produce the next wire message and validate it. Returns
  // false when the message was corrupt (dropped at parse).
  FeedGenerator gen(options.seed,
                    {options.book.symbols, options.book.price_levels,
                     /*max_live_orders=*/65536});
  auto feed_step = [&](uint64_t seq, uint64_t deadline, uint64_t now,
                       ParsedEvent* ev) -> bool {
    RawMsg raw;
    gen.Next(&raw);
    if (ROLP_FAULT_POINT("ingest.parse.corrupt")) {
      raw.magic ^= 0xffff;  // torn wire image: must fail validation
    }
    if (seq == 0) {
      first_issue_ns.store(now, std::memory_order_relaxed);
    }
    last_issue_ns.store(now, std::memory_order_relaxed);
    if (!ParseMsg(raw, ev)) {
      parse_drops.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ev->seq = seq;
    ev->scheduled_ns = deadline;
    ev->issue_ns = now;
    parsed.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // Book update: the long-lived-state mutation.
  auto book_step = [&](RuntimeThread* t, ParsedEvent* ev) {
    if (ROLP_FAULT_POINT("ingest.queue.stall")) {
      // Injected stage stall: sleep off-ring so backpressure builds. An
      // attached thread parks safely — the Poll in the stage loop keeps
      // safepoints honest.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (book->Apply(t, *ev)) {
      applied.fetch_add(1, std::memory_order_relaxed);
    } else {
      book_drops.fetch_add(1, std::memory_order_relaxed);
    }
    ev->book_done_ns = NowNs();
  };

  // Analytics: ephemeral scratch plus the jitter measurement, charged from
  // the scheduled slot (never the issue time — no coordinated omission).
  auto analytics_step = [&](RuntimeThread* t, const ParsedEvent& ev) {
    book->Analyze(t, ev);
    uint64_t end = NowNs();
    analyzed.fetch_add(1, std::memory_order_relaxed);
    if (ev.seq >= warmup_events) {
      RequestTimeline tl;
      tl.id = ev.seq;
      tl.scheduled_ns = ev.scheduled_ns;
      tl.enqueue_ns = ev.issue_ns;
      tl.dequeue_ns = ev.book_done_ns;
      tl.execute_ns = ev.book_done_ns;
      tl.respond_ns = end;
      reporter.Record(tl, RequestOutcome::kOk);
      measured.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const PipelineMode mode = ResolveMode(options.mode);
  if (mode == PipelineMode::kThreaded) {
    // --- Feed + parse stage: unattached (never parked by a safepoint — the
    // schedule must not coordinate with GC), paced on absolute deadlines. ---
    std::thread feed_thread([&] {
      Pacer pacer(options.pacing);
      for (uint64_t seq = 0; seq < options.events; seq++) {
        uint64_t deadline =
            start_ns + static_cast<uint64_t>(static_cast<double>(seq) * gap_ns);
        uint64_t now = pacer.WaitUntil(deadline);
        ParsedEvent ev;
        if (feed_step(seq, deadline, now, &ev)) {
          BlockingPush(parse_to_book, ev, nullptr);
        }
      }
      ParsedEvent halt;
      halt.halt = 1;
      BlockingPush(parse_to_book, halt, nullptr);
    });

    // --- Book stage: the long-lived-state mutator. -------------------------
    std::thread book_thread([&] {
      RuntimeThread* t = vm ? vm->AttachThread() : nullptr;
      ParsedEvent ev;
      while (BlockingPop(parse_to_book, &ev, t)) {
        book_step(t, &ev);
        BlockingPush(book_to_analytics, ev, t);
        if (t != nullptr) {
          t->Poll();
        }
      }
      ParsedEvent halt;
      halt.halt = 1;
      BlockingPush(book_to_analytics, halt, t);
      if (vm) {
        vm->DetachThread(t);
      }
    });

    // --- Analytics stage: ephemeral-scratch mutator + jitter recording. ----
    std::thread analytics_thread([&] {
      RuntimeThread* t = vm ? vm->AttachThread() : nullptr;
      ParsedEvent ev;
      while (BlockingPop(book_to_analytics, &ev, t)) {
        analytics_step(t, ev);
        if (t != nullptr) {
          t->Poll();
        }
      }
      if (vm) {
        vm->DetachThread(t);
      }
    });

    feed_thread.join();
    book_thread.join();
    analytics_thread.join();
  } else {
    // --- Fused schedule: one thread drives each event through all three
    // stages (still through the rings, so the hand-off code is exercised)
    // between pacing deadlines. Every stall on this thread — GC pause,
    // governor throttle, injected fault — lands directly in the lateness of
    // the events scheduled behind it, which is exactly the signal the arm
    // comparison wants, without three spinning threads fighting for one core.
    std::thread pipe_thread([&] {
      RuntimeThread* t = vm ? vm->AttachThread() : nullptr;
      Pacer pacer(options.pacing);
      for (uint64_t seq = 0; seq < options.events; seq++) {
        uint64_t deadline =
            start_ns + static_cast<uint64_t>(static_cast<double>(seq) * gap_ns);
        // Chunk long waits so an attached thread keeps polling: a safepoint
        // must never wait out a pacing sleep.
        uint64_t now = NowNs();
        while (now < deadline) {
          uint64_t wake = std::min<uint64_t>(deadline, now + 200 * 1000);
          now = pacer.WaitUntil(wake, /*precise=*/wake == deadline);
          if (t != nullptr) {
            t->Poll();
          }
        }
        ParsedEvent ev;
        if (!feed_step(seq, deadline, now, &ev)) {
          continue;
        }
        BlockingPush(parse_to_book, ev, t);
        if (!BlockingPop(parse_to_book, &ev, t)) {
          break;  // unreachable: only the halt sentinel pops false
        }
        book_step(t, &ev);
        BlockingPush(book_to_analytics, ev, t);
        if (!BlockingPop(book_to_analytics, &ev, t)) {
          break;
        }
        analytics_step(t, ev);
        if (t != nullptr) {
          t->Poll();
        }
      }
      if (vm) {
        vm->DetachThread(t);
      }
    });
    pipe_thread.join();
  }
  const uint64_t end_ns = NowNs();

  // --- Collect -------------------------------------------------------------
  result.parsed = parsed.load();
  result.parse_drops = parse_drops.load();
  result.applied = applied.load();
  result.book_drops = book_drops.load();
  result.analyzed = analyzed.load();
  result.measured = measured.load();
  uint64_t first = first_issue_ns.load();
  uint64_t last = last_issue_ns.load();
  if (last > first && options.events > 1) {
    result.offered_eps = static_cast<double>(options.events - 1) /
                         (static_cast<double>(last - first) / 1e9);
  }

  SloReporter::Snapshot snap = reporter.Collect(end_ns);
  result.p50_ns = static_cast<uint64_t>(snap.alltime.p50_ms * 1e6);
  result.p99_ns = static_cast<uint64_t>(snap.alltime.p99_ms * 1e6);
  result.p999_ns = static_cast<uint64_t>(snap.alltime.p999_ms * 1e6);
  result.max_ns = static_cast<uint64_t>(snap.alltime.max_ms * 1e6);

  result.book = book->stats();
  if (result.analyzed > 0) {
    result.alloc_ns_per_event = static_cast<double>(result.book.alloc_ns) /
                                static_cast<double>(result.analyzed);
  }

  if (vm) {
    RunResult rr;
    CollectVmStats(*vm, warmup_end_ns, &rr);
    result.gc_pauses = rr.pause_count_alltime;
    result.max_pause_ms = NsToMs(rr.max_pause_ns_alltime);
    result.governor_throttle_stalls = vm->heap().governor().throttle_stalls();
    result.recoverable_ooms = rr.recoverable_ooms;
  }
  // The book must tear down before the VM it allocates from.
  book.reset();
  vm.reset();

  // Conservation: every scheduled event either parsed or was dropped at
  // parse, and everything parsed flowed through both downstream stages.
  result.survived = (result.parsed + result.parse_drops == result.scheduled) &&
                    result.analyzed == result.parsed &&
                    result.applied + result.book_drops == result.parsed;

  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "ingest.%s.", ArmName(arm));
  MetricsRegistry& reg = MetricsRegistry::Instance();
  reg.Counter(std::string(prefix) + "events")->Add(result.analyzed);
  reg.Counter(std::string(prefix) + "drops")->Add(result.parse_drops + result.book_drops);
  return result;
}

std::string IngestVerdictJson(const std::vector<IngestResult>& arms,
                              const IngestOptions& options) {
  char buf[512];
  std::string json = "{";
  std::snprintf(buf, sizeof(buf),
                "\"workload\":\"marketdata\",\"events\":%" PRIu64
                ",\"rate_eps\":%.0f,\"warmup_fraction\":%.2f,\"mode\":\"%s\",\"arms\":{",
                options.events, options.rate_eps, options.warmup_fraction,
                ResolveMode(options.mode) == PipelineMode::kThreaded ? "threaded"
                                                                     : "fused");
  json += buf;
  bool all_survived = !arms.empty();
  double g1_p999_us = -1.0, rolp_p999_us = -1.0;
  for (size_t i = 0; i < arms.size(); i++) {
    const IngestResult& r = arms[i];
    double p50_us = static_cast<double>(r.p50_ns) / 1e3;
    double p99_us = static_cast<double>(r.p99_ns) / 1e3;
    double p999_us = static_cast<double>(r.p999_ns) / 1e3;
    double max_us = static_cast<double>(r.max_ns) / 1e3;
    if (r.arm == ArmKind::kG1) {
      g1_p999_us = p999_us;
    }
    if (r.arm == ArmKind::kRolp) {
      rolp_p999_us = p999_us;
    }
    all_survived = all_survived && r.survived;
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"survived\":%s,\"analyzed\":%" PRIu64 ",\"measured\":%" PRIu64
        ",\"drops\":%" PRIu64 ",\"offered_eps\":%.0f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
        "\"p999_us\":%.1f,\"max_us\":%.1f,\"alloc_ns_per_event\":%.1f,"
        "\"gc_pauses\":%" PRIu64 ",\"max_pause_ms\":%.2f,\"throttle_stalls\":%" PRIu64 "}",
        i == 0 ? "" : ",", ArmName(r.arm), r.survived ? "true" : "false", r.analyzed,
        r.measured, r.parse_drops + r.book_drops, r.offered_eps, p50_us, p99_us,
        p999_us, max_us, r.alloc_ns_per_event, r.gc_pauses, r.max_pause_ms,
        r.governor_throttle_stalls);
    json += buf;
  }
  json += "},";
  bool tail_comparable = g1_p999_us >= 0.0 && rolp_p999_us >= 0.0;
  bool rolp_tail_ok = !tail_comparable || rolp_p999_us <= g1_p999_us;
  std::snprintf(buf, sizeof(buf), "\"rolp_tail_ok\":%s,\"pass\":%s}",
                rolp_tail_ok ? "true" : "false",
                all_survived ? "true" : "false");
  json += buf;
  return json;
}

}  // namespace marketdata
}  // namespace rolp
