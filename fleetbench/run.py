#!/usr/bin/env python3
"""Fleet benchmark of the snapshot/REAP fleet simulator.

Runs one named workload on cluster::ParallelFleet for one seed, checks
that the outputs are correct, and prints the metrics named in
BENCHMARK.json as the last line of standard output:

    python3 fleetbench/run.py --workload azure-reap --seed 1 \\
        --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 prints the per-layer metrics of a traced run of the same
workload. --self-test runs every workload at a short horizon and checks
the benchmark itself. Run it from the repository root; it builds the
simulator from src/ into $CARGO_TARGET_DIR (default .bench_build).
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("azure-reap", "burst-shared", "budget-churn")

# Sample rule: a percentile is reported only with >= 10 samples
# beyond it.
MIN_E2E_SAMPLES = 1000  # e2e p99
MIN_COLD_SAMPLES = 100  # cold p90

# Wrapped layers that must see calls on a workload, as
# (trace key, layer metric). Every workload synthesizes traces, runs
# windows and serves invocations; only budget-churn has budgeted chunk
# caches for ChunkStore::enforceBudget to enforce, and only it runs the
# control policy.
ALWAYS_BUSY = [("traces", "func.traces"), ("window_calls", "sim.windows"),
               ("serving_invokes", "core.serving_invokes")]
BUSY = {
    "azure-reap": ALWAYS_BUSY,
    "burst-shared": ALWAYS_BUSY,
    "budget-churn": ALWAYS_BUSY + [("evict_calls", "storage.evict_s"),
                                   ("prewarm_calls", "cluster.prewarms"),
                                   ("prefetch_calls",
                                    "cluster.bg_prefetches")],
}

MIB = 1024.0 * 1024.0


class Failure(Exception):
    """A correctness break: the run prints correct=false and exits 1."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "fleetbench")


def build():
    """Configure and build both binaries; returns their directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster",
                                       "parallel_fleet.hh")):
        log("fleetbench: no simulator sources under src/; run from a "
            "checkout of the repository")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout)
            log("fleetbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


# ---------------------------------------------------------------- passes

def run_pass(bindir, traced, workload, seed, threads=None, scale=1.0):
    """One process: set up, run once, return its JSON result."""
    exe = os.path.join(bindir, "fleet_bench_traced" if traced
                       else "fleet_bench")
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if scale != 1.0:
        cmd += ["--horizon-scale", repr(scale)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise Failure("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        log(p.stderr)
        raise Failure("exited with %d: %s" % (p.returncode, " ".join(cmd)))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_pass(r):
    """Invariants every pass must hold."""
    if not (r["invocations"] == r["cold_starts"] + r["warm_hits"]
            == r["e2e_samples"]):
        raise Failure("served %d != cold %d + warm %d != e2e samples %d"
                      % (r["invocations"], r["cold_starts"],
                         r["warm_hits"], r["e2e_samples"]))
    if (r["cold_samples"] != r["cold_starts"]
            or r["warm_samples"] != r["warm_hits"]):
        raise Failure("cold/warm sample counts disagree with counters")
    if r["invocations"] < 1:
        raise Failure("no invocation served")


def check_traced(t, untraced, workload):
    """A traced pass must simulate exactly what the untraced one did,
    and every wrapped layer that must be busy must have seen calls."""
    if t["digest"] != untraced["digest"]:
        raise Failure("traced digest %s != untraced digest %s"
                      % (t["digest"], untraced["digest"]))
    tr = t["trace"]
    for key, layer in BUSY[workload]:
        if tr[key] <= 0:
            raise Failure("wrapped layer %s saw no calls on %s (%s == 0):"
                          " a --wrap no longer catches its entry point"
                          % (layer, workload, key))
    pairs = [("serving_invokes", "invocations"),
             ("serving_cold", "cold_starts"),
             ("serving_warm", "warm_hits"),
             ("prewarm_calls", "prewarms"),
             ("prefetch_calls", "bg_prefetches")]
    for tkey, rkey in pairs:
        if tr[tkey] != t[rkey]:
            raise Failure("traced %s %d != fleet %s %d"
                          % (tkey, tr[tkey], rkey, t[rkey]))


def attempts(t):
    """(attempted, failed) counted at the Orchestrator::invoke wrapper."""
    tr = t["trace"]
    attempted = tr["serving_invokes"]
    failed = attempted - t["invocations"] + tr["crashed"]
    return attempted, failed


def percentiles(r):
    """Sim percentiles that meet the sample rule, and a note for each
    one that does not."""
    out, notes = {}, []
    for name, samples, need in (
            ("e2e_p50_ms", "e2e_samples", 20),
            ("e2e_p99_ms", "e2e_samples", MIN_E2E_SAMPLES),
            ("cold_p50_ms", "cold_samples", 20),
            ("cold_p90_ms", "cold_samples", MIN_COLD_SAMPLES)):
        if r[samples] >= need:
            out[name] = r[name]
        else:
            notes.append("%s not reported: %d %s, %d needed for 10 "
                         "beyond it" % (name, r[samples], samples, need))
    return out, notes


# --------------------------------------------------------------- metrics

def end_to_end(passes):
    first = passes[0]
    m, notes = percentiles(first)
    # Interference from other work on the machine only ever adds host
    # time, and on 4 sim threads it comes in bursts, so the fastest
    # pass is the steadiest estimate of a run's wall time.
    m.update({
        "setup_s": median([p["setup_s"] for p in passes]),
        "wall_s": min(p["wall_s"] for p in passes),
        "peak_rss_mib": median([p["peak_rss_mib"] for p in passes]),
        "cold_frac": first["cold_starts"] / first["invocations"],
    })
    return m, notes


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced):
    u, t = untraced[0], traced[0]
    tr = t["trace"]
    # Host times of a pass: the fastest pass, as for wall_s.
    wall = min(p["wall_s"] for p in untraced)
    fastest = min(traced, key=lambda p: p["wall_s"])
    twall = fastest["wall_s"]
    window_s = fastest["trace"]["window_s"]
    trace_s = fastest["trace"]["trace_s"]
    evict_s = fastest["trace"]["evict_s"]
    threads = u["threads"]
    shards = u["shard_bytes_served"]
    attempted, failed = attempts(t)
    served = u["invocations"]
    return {
        "sim.events": u["events"],
        "sim.ns_per_event": ratio(wall * 1e9, u["events"]),
        "sim.windows": u["windows"],
        "sim.solo_window_frac": ratio(u["solo_windows"], u["windows"]),
        "sim.messages": u["messages"],
        "sim.events_per_window": ratio(u["events"], u["windows"]),
        "sim.window_s": window_s,
        "sim.coord_s": twall - window_s / threads,
        "sim.parallel_eff": ratio(window_s, threads * twall),
        "func.traces": tr["traces"],
        "func.trace_pages": tr["trace_pages"],
        "func.trace_s": trace_s,
        "func.ns_per_page": ratio(trace_s * 1e9, tr["trace_pages"]),
        "core.serving_invokes": tr["serving_invokes"],
        "core.record_phases": tr["record_phases"],
        "core.warm_frac": ratio(tr["serving_warm"], tr["serving_invokes"]),
        "core.failed_frac": ratio(failed, attempted),
        "core.conn_restore_ms": tr["conn_restore_ms"],
        "core.conn_restore_tail_ms": tr["conn_restore_tail_ms"],
        "core.processing_ms": tr["processing_ms"],
        "core.processing_tail_ms": tr["processing_tail_ms"],
        "vmm.load_ms": tr["load_vmm_ms"],
        "vmm.load_tail_ms": tr["load_vmm_tail_ms"],
        "mem.fetch_ws_ms": tr["fetch_ws_ms"],
        "mem.fetch_ws_tail_ms": tr["fetch_ws_tail_ms"],
        "mem.install_ws_ms": tr["install_ws_ms"],
        "mem.install_ws_tail_ms": tr["install_ws_tail_ms"],
        "mem.faults_per_cold": tr["faults_per_cold"],
        "mem.residual_faults_per_cold": tr["residual_faults_per_cold"],
        "mem.prefetched_pages": tr["prefetched_pages"],
        "mem.wasted_prefetch_frac": ratio(tr["wasted_prefetch"],
                                          tr["prefetched_pages"]),
        "mem.page_cache_peak_mib": u["page_cache_peak_bytes"] / MIB,
        "mem.page_cache_evicted_mib": u["page_cache_evicted_bytes"] / MIB,
        "storage.chunk_cache_peak_mib": u["chunk_cache_peak_bytes"] / MIB,
        "storage.chunk_evictions": u["chunk_evictions"],
        "storage.ssd_evictions": u["ssd_evictions"],
        "storage.fleet_chunk_peak_mib": u["fleet_chunk_peak_bytes"] / MIB,
        "storage.evict_s": evict_s,
        "storage.dedup_saved_mib": u["dedup_saved_bytes"] / MIB,
        "net.gets": u["store_gets"],
        "net.served_mib": u["store_bytes_served"] / MIB,
        "net.stream_waits": u["store_stream_waits"],
        "net.stream_wait_ms": u["store_stream_wait_ms"],
        "net.peak_stream_queue": u["store_peak_stream_queue"],
        "net.retries": u["store_retries"],
        "net.shard_skew": ratio(max(shards), statistics.mean(shards))
                          if shards else 0.0,
        "cluster.prewarms": u["prewarms"],
        "cluster.prewarm_hit_frac": ratio(u["prewarm_hits"], u["prewarms"]),
        "cluster.bg_prefetches": u["bg_prefetches"],
        "cluster.scale_downs": u["scale_downs"],
        "cluster.snapshot_builds": u["snapshot_builds"],
        "cluster.staged_mib": u["staged_bytes"] / MIB,
        "cluster.remote_fetches": u["remote_fetches"],
        "share.warm_hit": ratio(u["warm_hits"], served),
        "share.cold": ratio(u["cold_starts"], served),
        "share.remote_fetch": ratio(u["remote_fetches"], served),
        "unattributed_s": window_s - trace_s - evict_s,
        "trace_overhead_s": twall - wall,
    }


# ------------------------------------------------------------------- run

def measure(bindir, workload, seed, seconds, trace, scale=1.0):
    """Run the passes of one benchmark run and compute its metrics.

    Returns (metrics, attempted, failed, digest, notes). Raises Failure
    on a correctness break.
    """
    t0 = time.monotonic()
    untraced, traced = [], []
    # Passes repeat the same inputs until the run has measured for
    # `seconds`; host metrics are taken over all of them.
    while True:
        p = run_pass(bindir, False, workload, seed, scale=scale)
        check_pass(p)
        if untraced and p["digest"] != untraced[0]["digest"]:
            raise Failure("same seed, different digests: %s != %s"
                          % (p["digest"], untraced[0]["digest"]))
        untraced.append(p)
        if trace:
            t = run_pass(bindir, True, workload, seed, scale=scale)
            check_traced(t, untraced[0], workload)
            traced.append(t)
        if time.monotonic() - t0 >= seconds:
            break
    digest = untraced[0]["digest"]
    if not trace:
        # Untraced, every dispatched request is served before run()
        # returns (it drains them), so attempted = served; crashed cold
        # starts are counted by the traced run.
        metrics, notes = end_to_end(untraced)
        return metrics, untraced[0]["invocations"], 0, digest, notes
    # The same inputs on 1 and 4 sim threads must give the same digest;
    # their wall times give sim.speedup_4t.
    walls = {untraced[0]["threads"]: min(p["wall_s"] for p in untraced)}
    for threads in (1, 4):
        if threads in walls:
            continue
        alt = run_pass(bindir, False, workload, seed, threads=threads,
                       scale=scale)
        if alt["digest"] != digest:
            raise Failure("digest at %d sim threads %s != at %d: %s"
                          % (threads, alt["digest"],
                             untraced[0]["threads"], digest))
        walls[threads] = alt["wall_s"]
    attempted, failed = attempts(traced[0])
    metrics = per_layer(untraced, traced)
    metrics["sim.speedup_4t"] = ratio(walls[1], walls[4])
    return metrics, attempted, failed, digest, []


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(spec, trace, metrics, withheld=()):
    """The metrics BENCHMARK.json names for this mode, with its units;
    names in @withheld were withheld by the sample rule."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in withheld:
            continue
        if m["name"] not in metrics:
            raise Failure("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return out


def main_run(args):
    if args.workload not in WORKLOADS:
        log("fleetbench: unknown workload %r (known: %s)"
            % (args.workload, ", ".join(WORKLOADS)))
        return 2
    spec = load_spec()
    bindir = build()
    attempted, failed = 1, 1
    try:
        metrics, attempted, failed, digest, notes = measure(
            bindir, args.workload, args.seed, args.seconds, args.trace)
        print("digest %s" % digest)
        for n in notes:
            print(n)
        if notes:
            raise Failure("workload too small for the sample rule")
        if failed:
            raise Failure("%d of %d invocations failed"
                          % (failed, attempted))
        out = report(spec, args.trace, metrics)
        if args.trace:
            print("shares warm_hit=%.4f cold=%.4f remote_fetch=%.4f"
                  % (metrics["share.warm_hit"], metrics["share.cold"],
                     metrics["share.remote_fetch"]))
    except Failure as e:
        log("fleetbench: FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


# ------------------------------------------------------------- self-test

SELF_TEST_SCALE = 0.4


def self_test():
    """Short-horizon check of the benchmark itself: every metric named in
    BENCHMARK.json is printed as a number with its unit, the sample rule
    withholds the percentiles a short run cannot support, and the layer
    guard fails a traced pass in which a wrapped layer went quiet."""
    spec = load_spec()
    bindir = build()
    problems = []

    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    for w in WORKLOADS:
        for trace in (0, 1):
            try:
                metrics, attempted, failed, _, notes = measure(
                    bindir, w, 1, 0, trace, scale=SELF_TEST_SCALE)
                withheld = {n.split()[0] for n in notes}
                out = report(spec, trace, metrics, withheld)
            except Failure as e:
                problems.append("%s trace=%d: %s" % (w, trace, e))
                continue
            if attempted < 1 or failed:
                problems.append("%s: attempted %d, failed %d"
                                % (w, attempted, failed))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = out.get(m["name"])
                if m["name"] in withheld:
                    continue
                if (got is None or got["unit"] != m["unit"]
                        or not isinstance(got["value"], (int, float))):
                    problems.append("%s trace=%d: %s not printed with "
                                    "its unit" % (w, trace, m["name"]))
        # The guard must fail a traced pass whose busy layer is quiet.
        u = run_pass(bindir, False, w, 1, scale=SELF_TEST_SCALE)
        t = run_pass(bindir, True, w, 1, scale=SELF_TEST_SCALE)
        for key, layer in BUSY[w]:
            quiet = json.loads(json.dumps(t))
            quiet["trace"][key] = 0
            try:
                check_traced(quiet, u, w)
                problems.append("%s: guard missed a quiet %s" % (w, layer))
            except Failure:
                pass
        try:
            check_pass(dict(u, warm_hits=u["warm_hits"] + 1))
            problems.append("%s: served != cold + warm not caught" % w)
        except Failure:
            pass
    short = {"e2e_samples": 999, "cold_samples": 99, "e2e_p50_ms": 1.0,
             "e2e_p99_ms": 2.0, "cold_p50_ms": 3.0, "cold_p90_ms": 4.0}
    got, notes = percentiles(short)
    if set(got) != {"e2e_p50_ms", "cold_p50_ms"} or len(notes) != 2:
        problems.append("sample rule did not withhold p99/p90 at 999/99 "
                        "samples")
    for p in problems:
        log("self-test: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
