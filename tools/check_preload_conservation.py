#!/usr/bin/env python3
"""Asserts allocation/free conservation from a preload-bench stats sidecar.

bench/preload/bench_mt with --out-dir writes DIR/mt.stats.json: one
{"phase": "pre"|"post", "stats": {...}} line per snapshot, taken around
the measured region via wscmalloc_stats_json(). Every object allocated
between the snapshots is freed before the "post" snapshot (the bench
scopes its harness containers accordingly), so the deltas must balance
exactly: a shortfall means the shim lost frees (leak), an excess means it
double-counted.

With --footprint-falls the sidecar must also hold a "peak" snapshot and a
"released" one taken after wscmalloc_release_memory (bench/preload/
bench_frag writes both), and the "released" line must carry
freed_large_bytes, the bytes of the large blocks freed in between. The
released footprint_bytes must be below the peak's minus those bytes: the
freed large blocks alone do not pass, so the release must also have
returned small spans whose objects all died.

Usage: check_preload_conservation.py [--footprint-falls] <stats.json>
                                     [min_ops]

Self-test: check_preload_conservation.py --self-test
"""

import json
import sys


def parse(path):
    """Returns {phase: stats}: the first "pre", the last of every other.

    A line's own members besides "phase" and "stats" (say
    freed_large_bytes) are merged into its stats."""
    phases = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["phase"] == "pre" and "pre" in phases:
                continue
            stats = rec["stats"]
            stats.update((k, v) for k, v in rec.items()
                         if k not in ("phase", "stats"))
            phases[rec["phase"]] = stats
    if "pre" not in phases or "post" not in phases:
        sys.exit(f"FAIL: {path} lacks pre/post snapshots")
    return phases


def check(pre, post, min_ops):
    d_alloc = post["allocations"] - pre["allocations"]
    d_free = post["frees"] - pre["frees"]
    if d_alloc != d_free:
        sys.exit(f"FAIL: allocations delta {d_alloc} != frees delta {d_free} "
                 f"(leaked {d_alloc - d_free})")
    if d_alloc < min_ops:
        sys.exit(f"FAIL: only {d_alloc} allocations between snapshots, "
                 f"expected >= {min_ops} — did the workload run?")
    if post["live_bytes"] != pre["live_bytes"]:
        sys.exit(f"FAIL: live_bytes moved {pre['live_bytes']} -> "
                 f"{post['live_bytes']} across a balanced run")
    return d_alloc


def check_footprint_falls(phases):
    if "peak" not in phases or "released" not in phases:
        sys.exit("FAIL: --footprint-falls needs peak and released snapshots")
    if "freed_large_bytes" not in phases["released"]:
        sys.exit("FAIL: the released snapshot lacks freed_large_bytes")
    peak = phases["peak"]["footprint_bytes"]
    released = phases["released"]["footprint_bytes"]
    freed_large = phases["released"]["freed_large_bytes"]
    if released >= peak - freed_large:
        sys.exit(f"FAIL: footprint_bytes {released} after the release is "
                 f"not below the peak {peak} minus the {freed_large} "
                 f"freed large bytes: no small span was returned")
    return peak, released, freed_large


def self_test():
    ok_pre = {"allocations": 10, "frees": 7, "live_bytes": 100}
    ok_post = {"allocations": 1010, "frees": 1007, "live_bytes": 100}
    assert check(ok_pre, ok_post, 1000) == 1000
    for bad_post, why in [
        ({"allocations": 1010, "frees": 1006, "live_bytes": 100}, "leak"),
        ({"allocations": 11, "frees": 8, "live_bytes": 100}, "too few ops"),
        ({"allocations": 1010, "frees": 1007, "live_bytes": 200},
         "live_bytes drift"),
    ]:
        try:
            check(ok_pre, bad_post, 1000)
        except SystemExit:
            continue
        raise AssertionError(f"self-test: {why} not caught")

    peak = {"footprint_bytes": 1 << 30}
    ok = {"peak": peak,
          "released": {"footprint_bytes": 1 << 20,
                       "freed_large_bytes": 1 << 29}}
    assert check_footprint_falls(ok) == (1 << 30, 1 << 20, 1 << 29)
    for bad, why in [
        ({"peak": peak,
          "released": {"footprint_bytes": 1 << 30, "freed_large_bytes": 0}},
         "footprint kept"),
        ({"peak": peak,
          "released": {"footprint_bytes": 1 << 29,
                       "freed_large_bytes": 1 << 29}},
         "only the large blocks left"),
        ({"peak": peak, "released": {"footprint_bytes": 1 << 20}},
         "no freed_large_bytes"),
        ({"peak": peak}, "no released snapshot"),
    ]:
        try:
            check_footprint_falls(bad)
        except SystemExit:
            continue
        raise AssertionError(f"self-test: {why} not caught")
    print("check_preload_conservation: self-test OK")


def main():
    args = sys.argv[1:]
    if args[:1] == ["--self-test"]:
        self_test()
        return
    footprint_falls = args[:1] == ["--footprint-falls"]
    if footprint_falls:
        args = args[1:]
    if not args:
        sys.exit(__doc__)
    min_ops = int(args[1]) if len(args) > 1 else 1
    phases = parse(args[0])
    ops = check(phases["pre"], phases["post"], min_ops)
    print(f"check_preload_conservation: OK ({ops} allocations == frees, "
          f"live_bytes stable at {phases['post']['live_bytes']})")
    if footprint_falls:
        peak, released, freed_large = check_footprint_falls(phases)
        print(f"check_preload_conservation: OK (footprint_bytes {peak} at "
              f"the peak -> {released} after the release; "
              f"{peak - freed_large - released} bytes beyond the "
              f"{freed_large} freed large bytes)")


if __name__ == "__main__":
    main()
