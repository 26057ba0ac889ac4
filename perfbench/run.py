#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, runs one workload, checks its
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload graph-g1 --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is built from source with CMake
under $CARGO_TARGET_DIR (default .bench_build)/perfbench. With --trace 0 the
last line of standard output is one JSON object holding the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, measured in a separate traced pass. Every run ends with a short
check pass with in-pause heap verification on; it feeds no metric. Lines
before the JSON object are the human-readable report: hardware and config
stamp, every metric with its unit and sample count, and the output checks. A
failed check makes the exit code 1.

Workloads and why each was chosen are described in perfbench/workloads.json.
"""

import argparse
import array
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("text-open", "graph-g1", "ingest-rolp", "text-zgc", "kv-open")
OPEN_LOOP = ("text-open", "kv-open", "ingest-rolp")
RUN_TIMEOUT_S = 170
# A percentile is supported only with at least this many samples beyond it.
MIN_BEYOND = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    out = build_dir()
    cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        cfg += ["-G", "Ninja"]
    for cmd in (cfg, ["cmake", "--build", out, "-j", "2"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != \
            os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def cgroup_cpu_max():
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


# ---------------------------------------------------------------------------
# Percentiles and interval arithmetic.

def percentile(values, p):
    """Nearest-rank percentile with its sample count and support flag."""
    n = len(values)
    if n == 0:
        return {"value": 0.0, "count": 0, "supported": False}
    s = sorted(values)
    rank = min(max(int(-(-p * n // 100)), 1), n)
    return {"value": s[rank - 1], "count": n, "supported": beyond(n, p) >= MIN_BEYOND}


def beyond(n, p):
    return int(n * (100.0 - p) / 100.0)


def merge(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def total(intervals):
    return sum(e - s for s, e in intervals)


def overlap(a, b):
    """Length of the intersection of two sorted, disjoint interval lists."""
    i = j = 0
    got = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            got += e - s
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return got


class Spans:
    """Benchmark spans from spans.bin: (kind, start_ns, end_ns) triples; kind
    0 = entry-point call, 1 = Workload::Setup, 2 = Workload::Op. Setup and Op
    spans run one after another on one thread, so they are sorted and
    disjoint; they stay in flat arrays because a closed loop records millions."""

    def __init__(self, path):
        raw = array.array("Q")
        with open(path, "rb") as f:
            raw.frombytes(f.read())
        self.entry = [(raw[i + 1], raw[i + 2]) for i in range(0, len(raw), 3) if raw[i] == 0]
        self.starts = array.array("Q", (raw[i + 1] for i in range(0, len(raw), 3) if raw[i]))
        self.ends = array.array("Q", (raw[i + 2] for i in range(0, len(raw), 3) if raw[i]))

    def work_total(self):
        return sum(self.ends) - sum(self.starts)

    def work_overlap(self, intervals):
        """Length of the work spans covered by sorted, disjoint `intervals`."""
        got = 0
        i = 0
        n = len(self.starts)
        for s, e in intervals:
            while i < n and self.ends[i] <= s:
                i += 1
            j = i
            while j < n and self.starts[j] < e:
                got += max(0, min(e, self.ends[j]) - max(s, self.starts[j]))
                j += 1
        return got


def self_times(out_dir, entry_layer):
    """Per-layer self time (wall ms) of the traced pass.

    Layers nest: the entry-point call holds Workload Setup/Op spans, which hold
    stop-the-world GC spans, which hold the profiler's in-pause work. A
    layer's self time is its spans' time minus the part its children cover.
    Off-pause ROLP inference runs on its own thread and is reported apart.
    """
    spans = Spans(os.path.join(out_dir, "spans.bin"))
    with open(os.path.join(out_dir, "trace.json")) as f:
        events = json.load(f)["traceEvents"]
    stw, rolp, kinds = [], [], {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        s = int(ev["ts"] * 1000)
        e = s + int(ev["dur"] * 1000)
        name = ev["name"]
        if name == "gc.pause":
            kinds[ev["args"]["v"]] = kinds.get(ev["args"]["v"], 0) + 1
        # Every pause phase but concurrent evacuation runs with mutators
        # stopped, including the marking and profiler merge that the
        # reported pause interval can leave out.
        if name == "gc.pause" or (name.startswith("gc.phase.") and
                                  name != "gc.phase.concurrent-evac"):
            stw.append((s, e))
        if name == "gc.phase.profiler-merge" or ev["cat"] == "rolp":
            rolp.append((s, e))
    entry, stw, rolp = merge(spans.entry), merge(stw), merge(rolp)
    rolp_in_pause = overlap(rolp, stw)
    mutator = spans.work_total() - spans.work_overlap(stw)
    # Entry time not under a work span or a pause: |entry| - |work| - |stw|
    # + |work and stw|, all of which lie inside the entry-point call.
    entry_self = (total(entry) - spans.work_total() - overlap(entry, stw)
                  + spans.work_overlap(stw))
    return {
        "trace.self_ms.service": (entry_self if entry_layer == "service" else 0) / 1e6,
        "trace.self_ms.workloads":
            (mutator + (entry_self if entry_layer == "workloads" else 0)) / 1e6,
        "trace.self_ms.gc": (total(stw) - rolp_in_pause) / 1e6,
        "trace.self_ms.rolp": rolp_in_pause / 1e6,
        "trace.rolp_offpause_ms": (total(rolp) - rolp_in_pause) / 1e6,
        "trace.events_exported": len(events),
    }, kinds


# ---------------------------------------------------------------------------
# Metrics.

def timings(workload, run):
    """Throughput and latency percentiles of one pass."""
    m = {}
    if "windows" in run:
        wins = run["windows"]
        what = ("completion minus scheduled arrival" if workload in OPEN_LOOP
                else "Op duration, closed loop")
        src = "median over %d windows of %.2f s; %s" % (len(wins), run["window_s"], what)
        m["throughput_ops_s"] = {"value": statistics.median(w["rate"] for w in wins),
                                 "unit": "ops/s", "count": sum(w["count"] for w in wins),
                                 "source": "median over %d windows" % len(wins)}
        for p, key in ((50, "p50_ms"), (99, "p99_ms")):
            m["latency_" + key] = {
                "value": statistics.median(w[key] for w in wins), "unit": "ms",
                "count": sum(w["count"] for w in wins), "source": src,
                "supported": min(beyond(w["count"], p) for w in wins) >= MIN_BEYOND}
    else:
        m["throughput_ops_s"] = {"value": run["throughput_ops_s"], "unit": "ops/s",
                                 "count": run["completed"]}
        lat = run["latency"]
        n = lat["count"]
        for p, key in ((50, "p50_ms"), (99, "p99_ms"), (99.9, "p999_ms")):
            m["latency_" + key] = {"value": lat[key], "unit": "ms", "count": n,
                                   "supported": beyond(n, p) >= MIN_BEYOND,
                                   "source": lat["source"]}
    return m


def end_to_end(workload, res):
    run = res["run"]
    setups = res["setup_s"]
    m = {"setup_s": {"value": statistics.median(setups), "unit": "s", "count": len(setups)}}
    m.update(timings(workload, run))
    if "service" in run:
        # The load generator sleeps up to each arrival rather than spinning,
        # so it issues each request a little late; lateness includes that.
        seg = run["service"]["sched_to_enqueue"]
        m["issue_delay_ms"] = {"value": seg["mean_ms"], "unit": "ms", "count": seg["count"],
                               "source": "mean scheduled arrival to enqueue, part of latency"}
    pauses = run.get("pauses_ms")
    if pauses is not None:
        m["pause_p50_ms"] = dict(percentile(pauses, 50), unit="ms")
        m["pause_p90_ms"] = dict(percentile(pauses, 90), unit="ms")
        wins = run["windows"]
        m["stopped_pct"] = {"value": statistics.median(w["stopped_pct"] for w in wins),
                            "unit": "%", "count": len(wins),
                            "source": "median over %d windows" % len(wins)}
    else:
        vm = res["vm"]
        hist = vm["histograms"]["gc.pause_ns"]
        n = hist["count"]
        stopped = vm["gauges"]["gc.pause.total_ns"] / 1e6
        for p, key in ((50, "p50"), (90, "p90")):
            m["pause_%s_ms" % key] = {"value": hist[key] / 1e6, "unit": "ms", "count": n,
                                      "supported": beyond(n, p) >= MIN_BEYOND,
                                      "source": "whole run, log-bucketed registry histogram"}
        m["stopped_pct"] = {"value": 100.0 * stopped / (run["measured_s"] * 1000.0), "unit": "%",
                            "source": "whole run"}
    # Regional collectors leave stop-the-world mixed marking out of every
    # reported pause; latency measured from outside includes it.
    marking = (run["layers"]["gc.concurrent_ms"] if "layers" in run
               else res["vm"]["gauges"]["gc.concurrent_work_ns"] / 1e6)
    m["gc.concurrent_ms"] = {"value": marking, "unit": "ms",
                             "source": "whole run; STW marking left out of reported pauses "
                                       "on g1/ng2c/rolp, concurrent work on zgc"}
    m["max_rss_mb"] = {"value": res["max_rss_mb"], "unit": "MB"}
    failed = failures(run)
    m["error_rate"] = {"value": failed / max(run["attempted"], 1), "unit": "ratio",
                       "count": run["attempted"]}
    return m


def failures(run):
    if "service" in run:
        s = run["service"]
        return (s["rejected"] + s["shed_queue_full"] + s["shed_deadline"] + s["shed_drain"]
                + s["deadline_miss"])
    if "book" in run:
        return run["book"]["drops"]
    return int(run["layers"]["heap.recoverable_ooms"])


def per_layer(workload, res, names, out_dir):
    """Per-layer metrics of the traced pass, keyed by BENCHMARK.json name."""
    run, traced = res["run"], res["traced"]
    layers = dict(traced.get("layers", {}))
    unavailable = []
    if workload == "ingest-rolp":
        layers, unavailable = ingest_layers(res["vm_traced"], traced)
    spans, kinds = self_times(out_dir, traced["entry_layer"])
    layers.update(spans)
    if workload == "ingest-rolp":
        # Pause kinds come from the flight recorder (PauseKind order).
        layers["gc.pauses.young"] = kinds.get(0, 0)
        layers["gc.pauses.mixed"] = kinds.get(1, 0)
        layers["gc.pauses.full"] = kinds.get(2, 0)
        layers["gc.pauses.other"] = sum(v for k, v in kinds.items() if k > 2)
    lost = traced["trace_events_recorded"] - layers.pop("trace.events_exported")
    layers["trace.events_lost"] = max(lost, 0)

    svc = traced.get("service")
    for key in ("offered", "completed_ok", "rejected", "deadline_miss"):
        layers["service." + key] = svc[key] if svc else 0
    layers["service.shed"] = (svc["shed_queue_full"] + svc["shed_deadline"] + svc["shed_drain"]
                              if svc else 0)
    for seg in ("sched_to_enqueue", "queue_wait", "execute"):
        layers["service.%s_ms.mean" % seg] = svc[seg]["mean_ms"] if svc else 0
        layers["service.%s_ms.p99" % seg] = svc[seg]["p99_ms"] if svc else 0

    t_run, t_traced = timings(workload, run), timings(workload, traced)
    # Op service time: the closed loop's latency is its op duration.
    ops = traced.get("op_duration") or (
        {k: t_traced["latency_" + k]["value"] for k in ("p50_ms", "p99_ms")}
        if "windows" in traced else None)
    layers["workloads.setup_ms"] = traced.get("setup_ms", 0)
    layers["workloads.op_us.p50"] = ops["p50_ms"] * 1000 if ops else 0
    layers["workloads.op_us.p99"] = ops["p99_ms"] * 1000 if ops else 0
    counters = traced.get("workload_counters", {})
    for key in ("kv.flushes", "kv.reads_hit", "graph.iterations", "text.merges",
                "text.queries"):
        layers["workloads." + key] = counters.get(key, 0)
    ingest = traced.get("ingest", {})
    layers["workloads.ingest.offered_eps"] = ingest.get("offered_eps", 0)
    layers["heap.alloc_ns_per_event"] = ingest.get("alloc_ns_per_event", 0)
    if workload != "ingest-rolp":
        unavailable.append("heap.alloc_ns_per_event")
    if not ops:
        unavailable += ["workloads.setup_ms", "workloads.op_us.p50", "workloads.op_us.p99"]

    pauses = traced.get("pauses_ms")
    if pauses is not None:
        layers["gc.pause.p50_ms"] = percentile(pauses, 50)["value"]
        layers["gc.pause.p90_ms"] = percentile(pauses, 90)["value"]
    else:
        hist = res["vm_traced"]["histograms"]["gc.pause_ns"]
        layers["gc.pause.p50_ms"] = hist["p50"] / 1e6
        layers["gc.pause.p90_ms"] = hist["p90"] / 1e6
    started = layers.get("rolp.async_inferences_started", 0)
    layers["rolp.stale_ratio"] = (layers.get("rolp.stale_inferences_discarded", 0) / started
                                  if started else 0)

    # Tracing overhead: the traced pass against the untraced pass of this run.
    # Open loops run at a fixed rate, so their overhead shows in latency.
    if workload in OPEN_LOOP:
        base, with_trace = (t["latency_p50_ms"]["value"] for t in (t_run, t_traced))
        layers["trace.overhead_pct"] = 100.0 * (with_trace - base) / base if base else 0
    else:
        base, with_trace = (t["throughput_ops_s"]["value"] for t in (t_run, t_traced))
        layers["trace.overhead_pct"] = 100.0 * (base - with_trace) / base if base else 0

    out = {}
    for name, unit in names:
        if name not in layers:
            unavailable.append(name)
        out[name] = {"value": float(layers.get(name, 0)), "unit": unit}
    return out, sorted(set(unavailable))


def ingest_layers(vm, traced):
    """Maps the VM's teardown metrics snapshot onto the per-layer names.
    RunIngest keeps its VM private, so counters the registry does not
    publish are reported as unavailable (value 0)."""
    g = vm["gauges"]
    ingest = traced["ingest"]
    layers = {
        "heap.region_lock.acquisitions": g["heap.region_lock.acquisitions"],
        "heap.region_lock.stall_ms": g["heap.region_lock.stall_ns"] / 1e6,
        "heap.throttle_stalls": ingest["throttle_stalls"],
        "heap.recoverable_ooms": ingest["recoverable_ooms"],
        "gc.cycles": g["gc.cycles"],
        "gc.pauses": g["gc.pauses"],
        "gc.pause.total_ms": g["gc.pause.total_ns"] / 1e6,
        "gc.copied_mb": g["gc.bytes_copied"] / 1048576.0,
        "gc.promoted_mb": g["gc.bytes_promoted"] / 1048576.0,
        "gc.concurrent_ms": g["gc.concurrent_work_ns"] / 1e6,
        "runtime.allocations": g["vm.allocations"],
        "runtime.osr_repaired": g["vm.osr_repaired"],
    }
    for part in ("scan", "evac", "profiler", "verify", "remap"):
        layers["gc.pause.%s_ms" % part] = g["gc.pause.%s_ns" % part] / 1e6
    for key, value in g.items():
        if key.startswith("gc.phase_cpu_ns."):
            layers["gc.phase_cpu_ms." + key[len("gc.phase_cpu_ns."):]] = value / 1e6
        if key.startswith("rolp.") and key != "rolp.degraded":
            layers[key] = value
    unavailable = ["heap.alloc_mb", "heap.max_used_mb", "gc.copied_per_alloc",
                   "gc.max_worker_share", "rolp.first_decision_cycle",
                   "runtime.jit.profiled_alloc_sites", "runtime.jit.tracked_call_sites"]
    return layers, unavailable


# ---------------------------------------------------------------------------
# Output checks: a failed check fails the run.

def checks(workload, res):
    out = []

    def check(name, ok, detail):
        out.append((name, bool(ok), detail))

    for key in ("run", "traced", "check"):
        if key not in res:
            continue
        run = res[key]
        check(key + ": ops completed", run["completed"] > 0, "completed=%d" % run["completed"])
        # Only the check pass runs the heap verifier (ROLP_VERIFY=pause), so
        # the integrity counters are read there, and the verifier must have run.
        if key == "check" and "integrity" in run:
            i = run["integrity"]
            check(key + ": verifier ran", i["verify_passes"] > 0,
                  "passes=%d" % i["verify_passes"])
            check(key + ": verifier findings == 0", i["verify_findings"] == 0,
                  "findings=%d over %d passes" % (i["verify_findings"], i["verify_passes"]))
            check(key + ": quarantined regions == 0", i["quarantined_regions"] == 0,
                  "quarantined=%d" % i["quarantined_regions"])
            check(key + ": heap-corruption reports == 0", i["heap_corruption_reports"] == 0,
                  "reports=%d" % i["heap_corruption_reports"])
        if "lateness_alltime" in run:
            mine, theirs = run["lateness_alltime"], run["reporter_lateness"]
            check(key + ": lateness is never negative", mine["min_ms"] >= 0,
                  "min=%.6f ms" % mine["min_ms"])
            # SloReporter keeps log buckets a few percent wide and reports a
            # bucket's upper bound, so the exact value sits a little below
            # it. A broken schedule model is off by far more.
            agree = all(0.9 * theirs[k] <= mine[k] <= theirs[k] * 1.01 + 0.001
                        for k in ("p50_ms", "p99_ms"))
            check(key + ": lateness agrees with the service's SloReporter", agree,
                  "p50 %.4f vs %.4f, p99 %.4f vs %.4f ms" % (
                      mine["p50_ms"], theirs["p50_ms"], mine["p99_ms"], theirs["p99_ms"]))
        if "service" in run:
            s = run["service"]
            ended = (s["completed_ok"] + s["rejected"] + s["shed_queue_full"] + s["shed_deadline"]
                     + s["deadline_miss"] + s["shed_drain"])
            check(key + ": offered == ok+rejected+shed+deadline_miss+drained",
                  s["offered"] == ended, "offered=%d accounted=%d" % (s["offered"], ended))
        counters = run.get("workload_counters", {})
        if "kv.reads_hit" in counters:
            check(key + ": kv.reads_hit > 0", counters["kv.reads_hit"] > 0,
                  "reads_hit=%d" % counters["kv.reads_hit"])
        if "graph.iterations" in counters:
            check(key + ": graph.iterations > 0", counters["graph.iterations"] > 0,
                  "iterations=%d" % counters["graph.iterations"])
        if "text.queries" in counters:
            check(key + ": text.queries > 0", counters["text.queries"] > 0,
                  "queries=%d" % counters["text.queries"])
        if "book" in run:
            book = run["book"]
            check(key + ": ingest event conservation (survived)", book["survived"],
                  "scheduled=%d parsed=%d applied=%d analyzed=%d" % (
                      book["scheduled"], book["parsed"], book["applied"], book["analyzed"]))
            if key == "check":
                # RunIngest keeps its VM private; the verifier's counters come
                # from the metrics registry the VM dumps at teardown. Only the
                # check pass verifies, so the process-wide counters are its own.
                vm = res["vm_check"]
                passes = vm["counters"].get("verify.passes", 0)
                findings = vm["counters"].get("verify.findings", 0)
                g = vm["gauges"]
                check(key + ": verifier ran", passes > 0, "passes=%d" % passes)
                check(key + ": verifier findings == 0", findings == 0,
                      "findings=%d over %d passes" % (findings, passes))
                check(key + ": quarantined regions == 0", g["heap.quarantined_regions"] == 0,
                      "quarantined=%d" % g["heap.quarantined_regions"])
                healed = g["verify.refs_healed"] + g["verify.refs_nulled"]
                check(key + ": verifier repaired no references", healed == 0,
                      "refs healed+nulled=%d" % healed)
    if "book" in res["run"]:
        book, ref = res["run"]["book"], res["run"]["pooled_reference"]
        same = all(book[k] == ref[k] for k in ("checksum", "resting_orders", "live_levels"))
        check("run: book equals the pooled no-GC arm on the same seed", same and ref["survived"],
              "checksum %s vs %s" % (book["checksum"], ref["checksum"]))
    setups = res["setup_s"]
    check("setup: every set-up reached its first op", min(setups) > 0,
          "n=%d min=%.4f median=%.4f max=%.4f s" % (
              len(setups), min(setups), statistics.median(setups), max(setups)))
    return out


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no runtime sources under %s/src; run from the repository root" % ROOT)
        return 2
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        rationale = json.load(f)["workloads"][args.workload]

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(build_dir(), "out", "%s-%d-%d" % (args.workload, args.seed,
                                                             args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    # The runtime reads ROLP_* knobs from the environment; run with none set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROLP_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("perfbench: exited with code %d" % proc.returncode)
        return 1
    with open(os.path.join(out_dir, "result.json")) as f:
        res = json.load(f)
    for key, sub in (("vm", "run"), ("vm_traced", "traced"), ("vm_check", "check")):
        path = res.get(sub, {}).get("vm_metrics")
        if path:
            with open(path) as f:
                res[key] = json.load(f)

    stamp = dict(res["stamp"])
    stamp.update({"cgroup_cpu_max": cgroup_cpu_max(), "git_commit": git_commit(),
                  "source_sha256": source_digest()})
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds,
                                                        args.trace))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("config: " + json.dumps(res["config"], sort_keys=True))
    print("workload: " + json.dumps(rationale, sort_keys=True))

    results = checks(args.workload, res)
    correct = all(ok for _, ok, _ in results)
    run = res["run"]
    attempted = int(run["attempted"])
    failed = int(failures(run))

    e2e = end_to_end(args.workload, res)
    print("end-to-end metrics (untraced pass):")
    for name, m in e2e.items():
        count = " n=%d" % m["count"] if "count" in m else ""
        support = "" if m.get("supported", True) else \
            " UNSUPPORTED (fewer than %d samples beyond)" % MIN_BEYOND
        source = " [%s]" % m["source"] if "source" in m else ""
        print("  %-18s %14.6g %-6s%s%s%s" % (name, m["value"], m["unit"], count, support, source))

    if args.trace:
        names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        metrics, unavailable = per_layer(args.workload, res, names, out_dir)
        print("per-layer metrics (traced pass):")
        for name, m in metrics.items():
            print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
        if unavailable:
            print("unavailable on this workload (reported as 0): " + ", ".join(unavailable))
        if metrics["trace.events_lost"]["value"] > 0:
            print("warning: the flight recorder dropped events; self times are partial")
    else:
        metrics = {}
        for m in bench["end_to_end"]:
            got = e2e[m["name"]]
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print("checks:")
    for name, ok, detail in results:
        print("  %s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
