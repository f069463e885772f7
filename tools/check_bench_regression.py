#!/usr/bin/env python3
"""Bench regression gate: diff a fresh google-benchmark JSON against a
committed baseline and fail on steady-state regressions.

Five checks; the first two over benchmarks present in *both* files, the
other three on the fresh run alone:

  1. Per-benchmark regression: fresh real_time > --max-regression x the
     baseline's (default 2.0 -- lenient on purpose: baselines are recorded
     on whatever machine cut the PR, and the gate must not flake on
     hardware differences; a genuine O(store)-per-window regression on the
     serving path blows past 2x on any machine).
  2. Deterministic counters: for every row present in both files, the
     outcome counters in EQUAL_COUNTERS (matched, reconciled, recovered,
     boundary_workers, evicted, store, pairs, components) must equal the
     baseline's, and the work counters in NONINCREASING_COUNTERS
     (examined_per_query) must not exceed it. A change that drops pairs
     while getting faster, or solves another type-pair network, fails
     here, not in the timing check. Rows whose counters depend on thread timing are listed,
     with the reason, in COUNTER_EXEMPT_ROWS.
  3. Warm-refresh invariant (BENCH_refresh.json only): in the *fresh* run,
     BM_GuideRefresh/warm/C must beat BM_GuideRefresh/cold/C by at least
     --min-warm-speedup (default 2.0) -- the PR's acceptance bar, measured
     on one machine so it cannot flake on hardware.
  4. Unchanged-refresh invariant (BENCH_refresh.json only): in the fresh
     run, BM_RefreshNow/unchanged (an inline refresh that republishes the
     remembered guide) must cost at most MAX_UNCHANGED_RATIO (1%) of
     BM_RefreshNow/changed (a refresh that solves). Both rows use one time
     unit.
  5. Stamps: the fresh file's context must carry every key in
     REQUIRED_STAMPS (tools/run_bench_smoke.sh writes them), so each
     recorded number names the build and host that produced it.

Usage:
  tools/check_bench_regression.py BASELINE.json FRESH.json \
      [--max-regression=2.0] [--min-warm-speedup=2.0]

Exits 0 when every check passes, 1 otherwise. Benchmarks present in only
one file are reported but never fail the gate (series come and go).
"""

import argparse
import json
import sys

# An unchanged-prediction refresh republishes without solving; it must
# cost at most this fraction of a refresh that solves.
MAX_UNCHANGED_RATIO = 0.01

# Counters a row must reproduce exactly: what the benchmarked code
# decided, which no speedup may change. `pairs` and `components` describe
# the guide's type-pair network.
EQUAL_COUNTERS = ("matched", "reconciled", "recovered", "boundary_workers",
                  "evicted", "store", "pairs", "components")

# Context keys a fresh file must carry: the build type, the core count,
# the commit ("+dirty" for an uncommitted tree), the compiler's version line
# and the C++ flags.
REQUIRED_STAMPS = ("build_type", "nproc", "ftoa_commit", "compiler",
                   "cxx_flags")

# Counters a row may lower but never raise: work per query.
NONINCREASING_COUNTERS = ("examined_per_query",)

# Rows exempt from the counter check: name -> why their counters vary
# between two runs of the same binary. Every other row carrying these
# counters in the eight BENCH files reproduced them exactly across two
# runs of one binary.
_BACKGROUND_PUBLISH = ("background refresh publishes land at a "
                       "scheduling-dependent window, so matched varies "
                       "between runs")
_BACKGROUND_SERVE = ("background refresh publishes land at a "
                     "scheduling-dependent window, so matched, evicted and "
                     "store vary between runs (seen under load)")
COUNTER_EXEMPT_ROWS = {
    "BM_Interference/dedicated/24": _BACKGROUND_PUBLISH,
    "BM_Interference/shared_slice/24": _BACKGROUND_PUBLISH,
    "BM_ServeSharded/24/1": _BACKGROUND_SERVE,
    "BM_ServeSharded/24/3": _BACKGROUND_SERVE,
    "BM_ServeFaulted/24": _BACKGROUND_SERVE,
}


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def load_benchmarks(data):
    """name -> benchmark entry for every non-aggregate entry."""
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        runs[bench["name"]] = bench
    return runs


def real_times(runs):
    """name -> real_time."""
    return {name: float(bench["real_time"]) for name, bench in runs.items()}


def check_regressions(baseline, fresh, max_regression):
    failures = []
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("bench-regression: no shared benchmarks; nothing to compare")
        return failures
    for name in shared:
        ratio = fresh[name] / baseline[name] if baseline[name] > 0 else 1.0
        marker = "FAIL" if ratio > max_regression else "ok"
        print(f"  {marker:4s} {name}: baseline {baseline[name]:.2f} "
              f"fresh {fresh[name]:.2f} ({ratio:.2f}x)")
        if ratio > max_regression:
            failures.append(f"{name} regressed {ratio:.2f}x "
                            f"(limit {max_regression:.2f}x)")
    for name in sorted(set(baseline) - set(fresh)):
        print(f"  note {name}: in baseline only (series removed?)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  note {name}: new series (no baseline)")
    return failures


def check_counters(baseline, fresh):
    """Outcome counters equal, work counters no higher, row by row."""
    failures = []
    for name in sorted(set(baseline) & set(fresh)):
        if name in COUNTER_EXEMPT_ROWS:
            print(f"  skip {name}: {COUNTER_EXEMPT_ROWS[name]}")
            continue
        for counter in EQUAL_COUNTERS + NONINCREASING_COUNTERS:
            if counter not in baseline[name] or counter not in fresh[name]:
                continue
            want = float(baseline[name][counter])
            got = float(fresh[name][counter])
            if counter in EQUAL_COUNTERS:
                ok, relation = got == want, "!="
            else:
                ok, relation = got <= want, ">"
            if not ok:
                print(f"  FAIL {name}: {counter} {got:g} {relation} "
                      f"baseline {want:g}")
                failures.append(f"{name} {counter} {got:g} {relation} "
                                f"baseline {want:g}")
    if not failures:
        print("  ok   every shared row's counters hold")
    return failures


def check_warm_speedup(fresh, min_speedup):
    """The sparse-delta refresh bar, on the fresh run alone."""
    failures = []
    pairs = []
    for name, cold_time in fresh.items():
        if "/cold/" not in name:
            continue
        warm_name = name.replace("/cold/", "/warm/")
        if warm_name in fresh:
            pairs.append((name, warm_name, cold_time, fresh[warm_name]))
    for cold_name, warm_name, cold_time, warm_time in sorted(pairs):
        speedup = cold_time / warm_time if warm_time > 0 else float("inf")
        marker = "ok" if speedup >= min_speedup else "FAIL"
        print(f"  {marker:4s} {warm_name}: {speedup:.2f}x vs {cold_name} "
              f"(bar {min_speedup:.2f}x)")
        if speedup < min_speedup:
            failures.append(f"{warm_name} only {speedup:.2f}x faster than "
                            f"{cold_name} (bar {min_speedup:.2f}x)")
    return failures


def check_unchanged_refresh(fresh):
    """Republishing a remembered guide against solving one, in one run."""
    unchanged = fresh.get("BM_RefreshNow/unchanged")
    changed = fresh.get("BM_RefreshNow/changed")
    if unchanged is None or changed is None:
        return []
    ratio = unchanged / changed if changed > 0 else float("inf")
    marker = "ok" if ratio <= MAX_UNCHANGED_RATIO else "FAIL"
    print(f"  {marker:4s} BM_RefreshNow/unchanged: {ratio:.5f} of "
          f"BM_RefreshNow/changed (bar {MAX_UNCHANGED_RATIO:.5f})")
    if ratio > MAX_UNCHANGED_RATIO:
        return [f"BM_RefreshNow/unchanged costs {ratio:.5f} of "
                f"BM_RefreshNow/changed (bar {MAX_UNCHANGED_RATIO:.5f})"]
    return []


def check_stamps(context):
    """Every REQUIRED_STAMPS key present and non-empty in the fresh file."""
    missing = [key for key in REQUIRED_STAMPS if not context.get(key)]
    if missing:
        print(f"  FAIL context lacks {', '.join(missing)}")
        return [f"fresh context lacks {', '.join(missing)} "
                f"(record it with tools/run_bench_smoke.sh)"]
    print(f"  ok   context carries {', '.join(REQUIRED_STAMPS)}")
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--min-warm-speedup", type=float, default=2.0)
    args = parser.parse_args()

    baseline = load_benchmarks(load_json(args.baseline))
    fresh_data = load_json(args.fresh)
    fresh = load_benchmarks(fresh_data)

    print(f"bench-regression: {args.fresh} vs baseline {args.baseline}")
    failures = check_regressions(real_times(baseline), real_times(fresh),
                                 args.max_regression)
    print("bench-regression: deterministic counters")
    failures += check_counters(baseline, fresh)
    print("bench-regression: warm-refresh speedup bar")
    failures += check_warm_speedup(real_times(fresh), args.min_warm_speedup)
    print("bench-regression: unchanged-refresh bar")
    failures += check_unchanged_refresh(real_times(fresh))
    print("bench-regression: stamps")
    failures += check_stamps(fresh_data.get("context", {}))

    if failures:
        print("bench-regression: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench-regression: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
