#!/usr/bin/env python3
"""Allocator benchmark runner.

Builds the allocator and the benchmark binaries from source, runs one
workload in waves of fresh processes (one per core side by side for the
single-threaded shim-serve, large-churn and sim-tiers), checks their
outputs and prints one JSON object as the last line of standard output:

    python3 allocbench/run.py --workload shim-serve --seed 1 --seconds 10 --trace 0

Workloads:
  shim-serve   one thread serving requests through LD_PRELOAD=libwscmalloc.so
  rt-handoff   one worker per core on one real-memory RealThreadsAllocator
  large-churn  blocks above the largest size class through the preloaded shim
  sim-tiers    the simulated tcmalloc::Allocator, 16 vCPUs over 2 LLC domains

--trace 0 reports the end-to-end metrics (ops_per_s, peak_rss_mib,
rss_after_release_mib, setup_s); --trace 1 runs the same workload with a
span around every allocator call and reports the per-layer metrics.
--allocator system runs the malloc-family workloads on glibc instead of
the shim (reference figures). --summary prints each workload's input
make-up for the seed and exits.

The build goes to $CARGO_TARGET_DIR/allocbench (default
.bench_build/allocbench) under the repository root; the spans of the
traced run's first process are written next to it, to
spans/<workload>.csv.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "allocbench")

# A run starts waves of fresh benchmark processes until --seconds have
# passed (at least MIN_WAVES waves, at most MAX_PROCESSES processes). A
# single-threaded workload runs one process per core in each wave, so its
# samples come from every core at once and a slow spell on one core moves
# few of them; rt-handoff, which already runs one worker per core, runs
# one process per wave. Each process does a fixed amount of work, its
# workload's rounds, so its memory figures do not depend on how fast it
# ran; every end-to-end metric is the median over the processes. Each
# process runs its own input set, derived from the run's seed, so a run's
# medians span many input sets; the first input set runs twice, and the
# simulator's counts must then repeat exactly.
MIN_WAVES = 3
MAX_PROCESSES = 96
MAX_PARALLEL = 4
PROCESS_TIMEOUT_S = 60

WORKLOADS = {
    # name: (benchmark binary, runs under the shim preload, processes
    # side by side: one per core, or one)
    "shim-serve": ("allocbench_malloc", True, True),
    "large-churn": ("allocbench_malloc", True, True),
    "rt-handoff": ("allocbench_lib", False, False),
    "sim-tiers": ("allocbench_lib", False, True),
}

# Timed rows of the traced run: (layer, p50 unit, reports a p99).
TIMED_ROWS = [
    ("shim.malloc_small", "ns", True),
    ("shim.free_small", "ns", True),
    ("shim.calloc", "ns", False),
    ("shim.realloc", "ns", True),
    ("shim.memalign", "ns", False),
    ("shim.malloc_large", "ns", True),
    ("shim.free_large", "ns", True),
    ("shim.release", "ms", False),
    ("real_threads.alloc_hit", "ns", True),
    ("real_threads.alloc_refill", "ns", True),
    ("real_threads.alloc_carve", "ns", True),
    ("real_threads.free_hit", "ns", True),
    ("real_threads.free_spill", "ns", True),
    ("real_threads.flush", "us", False),
    ("real_threads.release", "ms", False),
    ("per_cpu_cache.alloc", "ns", True),
    ("transfer_cache.alloc", "ns", True),
    ("central_free_list.alloc", "ns", True),
    ("page_heap.alloc", "ns", True),
    ("system_alloc.mmap_alloc", "ns", False),
    ("allocator.free", "ns", True),
    ("background.maintain", "us", False),
]
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6}
P99_MIN_CALLS = 1000

# Values the benchmark binaries report directly: name -> unit. Counts are
# summed over the run's processes, everything else is the median over
# processes.
VALUES = {
    "shim.footprint_mib": "MiB",
    "shim.released_mib": "MiB",
    "shim.recommitted_mib": "MiB",
    "shim.large_pending_mib": "MiB",
    "real_threads.allocations": "count",
    "real_threads.fast_alloc_hits": "count",
    "real_threads.frees": "count",
    "real_threads.fast_free_hits": "count",
    "real_threads.transfer_removes": "count",
    "real_threads.transfer_remove_misses": "count",
    "real_threads.transfer_inserts": "count",
    "real_threads.transfer_insert_overflows": "count",
    "real_threads.steal_probes": "count",
    "real_threads.work_steals": "count",
    "real_threads.refill_stalls": "count",
    "real_threads.arena_carves": "count",
    "real_threads.carved_bytes_per_kop": "B/kop",
    "real_threads.arena_used_mib": "MiB",
    "real_threads.cfl_lock_acquisitions": "count",
    "real_threads.cfl_lock_contended": "count",
    "real_threads.transfer_lock_acquisitions": "count",
    "real_threads.transfer_lock_contended": "count",
    "real_threads.footprint_mib": "MiB",
    "trace.spans": "count",
    "trace.spans_dropped": "count",
    "trace.timer_overhead_ns": "ns",
}

# Ratios, each built from counts in VALUES summed over the run's processes:
# name -> (numerator, denominator).
RATIO_BASES = {
    "real_threads.alloc_hit_ratio": ("real_threads.fast_alloc_hits",
                                     "real_threads.allocations"),
    "real_threads.free_hit_ratio": ("real_threads.fast_free_hits",
                                    "real_threads.frees"),
    "real_threads.transfer_remove_miss_ratio": (
        "real_threads.transfer_remove_misses", "real_threads.transfer_removes"),
    "real_threads.transfer_insert_overflow_ratio": (
        "real_threads.transfer_insert_overflows",
        "real_threads.transfer_inserts"),
    "real_threads.steal_success_ratio": ("real_threads.work_steals",
                                         "real_threads.steal_probes"),
    "real_threads.cfl_lock_contended_ratio": (
        "real_threads.cfl_lock_contended", "real_threads.cfl_lock_acquisitions"),
    "real_threads.transfer_lock_contended_ratio": (
        "real_threads.transfer_lock_contended",
        "real_threads.transfer_lock_acquisitions"),
}

# Simulator counts over warm-up plus the first counted rounds: identical in
# every process of a run, and between runs, for a given seed.
SIM_COUNTS = {
    "per_cpu_cache.hits": "count",
    "transfer_cache.hits": "count",
    "central_free_list.hits": "count",
    "page_heap.hits": "count",
    "system_alloc.mmap_calls": "count",
    "per_cpu_cache.underflows": "count",
    "per_cpu_cache.overflows": "count",
    "central_free_list.returned_spans": "count",
    "huge_page_filler.subrelease_events": "count",
    "allocator.simulated_ns_per_op": "ns",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "allocbench")


def build(out):
    """Configures once, then builds the benchmark binaries and the shim incrementally."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("allocator sources (src/) not found under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "allocbench_malloc", "allocbench_lib", "wscmalloc"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def shim_path(out):
    path = os.path.join(out, "wsc", "shim", "libwscmalloc.so")
    if not os.path.exists(path):
        raise RuntimeError("libwscmalloc.so not built at " + path)
    return path


def run_wave(cmds, env):
    """Runs benchmark processes side by side; returns [(report, spawn_ns)].

    Every process is waited for, also when one of them fails."""
    procs = []
    try:
        for cmd in cmds:
            spawn_ns = time.monotonic_ns()
            procs.append((cmd, spawn_ns, subprocess.Popen(
                cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)))
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        results = []
        for cmd, spawn_ns, proc in procs:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError("%s exited with %d: %s" %
                                   (os.path.basename(cmd[0]), proc.returncode,
                                    err.strip()[-400:]))
            lines = out.strip().splitlines()
            if not lines:
                raise RuntimeError("%s printed no report" % cmd[0])
            results.append((json.loads(lines[-1]), spawn_ns))
        return results
    finally:
        for _, _, proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()


def sub_seed(seed, process):
    """Input set of a run's process: processes 0 and 1 share the first."""
    return seed * 1000 + max(0, process - 1)


def round_rate(rep):
    """Calls per second: calls per round over the median round time."""
    workers = rep.get("worker_rounds", [rep])
    return sum(w["round_calls"] / statistics.median(w["round_ns"]) * 1e9
               for w in workers)


def quantile(buckets, q):
    """Quantile of merged [lo, hi) -> count buckets, at the bucket midpoint."""
    total = sum(buckets.values())
    rank = q * total
    seen = 0
    for (lo, hi), count in sorted(buckets.items()):
        seen += count
        if seen > rank:
            return (lo + hi) / 2.0
    return 0.0


def layer_metrics(reports):
    metrics = {}
    merged = {}
    for rep in reports:
        for layer, rows in rep.get("hists", {}).items():
            dest = merged.setdefault(layer, {})
            for lo, hi, count in rows:
                dest[(lo, hi)] = dest.get((lo, hi), 0) + count
    for layer, unit, has_p99 in TIMED_ROWS:
        buckets = merged.get(layer, {})
        calls = sum(buckets.values())
        scale = UNIT_NS[unit]
        p50 = quantile(buckets, 0.5) / scale if calls else 0.0
        if unit == "ns":
            metrics[layer + ".p50_ns"] = (p50, "ns")
        else:
            metrics["%s.%s" % (layer, unit if unit != "us" else "p50_us")] = (
                p50, unit)
        if has_p99:
            # Reported as 0 where the layer served too few calls for a tail.
            p99 = quantile(buckets, 0.99) if calls >= P99_MIN_CALLS else 0.0
            metrics[layer + ".p99_ns"] = (p99, "ns")
        metrics[layer + ".calls"] = (calls, "count")
    for name, unit in VALUES.items():
        vals = [rep["values"][name] for rep in reports
                if name in rep.get("values", {})]
        if unit == "count":
            metrics[name] = (sum(vals), unit)
        else:
            metrics[name] = (statistics.median(vals) if vals else 0.0, unit)
    for name, (num, den) in RATIO_BASES.items():
        den_value = metrics[den][0]
        metrics[name] = (metrics[num][0] / den_value if den_value else 0.0,
                         "ratio")
    for name, unit in SIM_COUNTS.items():
        vals = [rep["counts"][name] for rep in reports
                if name in rep.get("counts", {})]
        metrics[name] = (vals[0] if vals else 0.0, unit)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--allocator", choices=("wscmalloc", "system"),
                        default="wscmalloc",
                        help="malloc-family workloads: the shim or glibc")
    parser.add_argument("--summary", action="store_true",
                        help="print the workload's input make-up and exit")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as err:
        log("build failed: %s" % err)
        return 1
    binary, preload, side_by_side = WORKLOADS[args.workload]
    parallel = max(1, min(MAX_PARALLEL, len(os.sched_getaffinity(0)))
                   ) if side_by_side else 1
    cmd = [os.path.join(out, binary), "--workload", args.workload]
    env = dict(os.environ)
    env.pop("LD_PRELOAD", None)
    if preload and args.allocator == "wscmalloc":
        env["LD_PRELOAD"] = shim_path(out)
    if args.summary:
        # The first three input sets (process 0 shares process 1's).
        for i in range(1, 4):
            proc = subprocess.run(
                cmd + ["--seed", str(sub_seed(args.seed, i)), "--summary"],
                env=env, check=True, stdout=subprocess.PIPE, text=True)
            print(proc.stdout.strip())
        return 0

    span_dir = os.path.join(os.path.dirname(out), "spans")
    if args.trace:
        os.makedirs(span_dir, exist_ok=True)
    reports, ops, peak, after, setup = [], [], [], [], []
    start = time.monotonic()
    try:
        waves = 0
        while len(reports) + parallel <= MAX_PROCESSES and (
                waves < MIN_WAVES or time.monotonic() - start < args.seconds):
            cmds = []
            for i in range(len(reports), len(reports) + parallel):
                pcmd = cmd + ["--seed", str(sub_seed(args.seed, i)),
                              "--trace", str(args.trace)]
                if args.trace and i == 0:
                    # The first process's spans; every process feeds the rows.
                    pcmd += ["--spans",
                             os.path.join(span_dir, args.workload + ".csv")]
                cmds.append(pcmd)
            for rep, spawn_ns in run_wave(cmds, env):
                reports.append(rep)
                ops.append(round_rate(rep))
                peak.append(rep["peak_rss_mib"])
                after.append(rep["rss_after_release_mib"])
                gen_ns = rep["gen_end_ns"] - rep["gen_start_ns"]
                setup.append((rep["first_call_ns"] - spawn_ns - gen_ns) / 1e9)
            waves += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as err:
        log("run failed: %s" % err)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    log("per-process ops/s: " + " ".join("%.4g" % v for v in ops))
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    if args.workload == "sim-tiers":
        # The simulator is deterministic: the two processes that ran the
        # same input set must report identical counts.
        if reports[0]["counts"] != reports[1]["counts"]:
            failed += 1
            log("sim-tiers counts differ between runs of one seed")
    for rep in reports:
        for check, count in rep["checks"].items():
            if count:
                log("process %d: check %s failed %d times" %
                    (reports.index(rep), check, count))

    if args.trace:
        metrics = layer_metrics(reports)
        metrics["trace.ops_per_s"] = (statistics.median(ops), "ops/s")
    else:
        metrics = {
            "ops_per_s": (statistics.median(ops), "ops/s"),
            "peak_rss_mib": (statistics.median(peak), "MiB"),
            "rss_after_release_mib": (statistics.median(after), "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
