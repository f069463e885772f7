#!/usr/bin/env python3
"""Bench regression gate: diff a fresh google-benchmark JSON against a
committed baseline and fail on steady-state regressions.

Three checks; the first over benchmarks present in *both* files, the
other two on the fresh run alone:

  1. Per-benchmark regression: fresh real_time > --max-regression x the
     baseline's (default 2.0 -- lenient on purpose: baselines are recorded
     on whatever machine cut the PR, and the gate must not flake on
     hardware differences; a genuine O(store)-per-window regression on the
     serving path blows past 2x on any machine).
  2. Warm-refresh invariant (BENCH_refresh.json only): in the *fresh* run,
     BM_GuideRefresh/warm/C must beat BM_GuideRefresh/cold/C by at least
     --min-warm-speedup (default 2.0) -- the PR's acceptance bar, measured
     on one machine so it cannot flake on hardware.
  3. Unchanged-refresh invariant (BENCH_refresh.json only): in the fresh
     run, BM_RefreshNow/unchanged (an inline refresh that republishes the
     remembered guide) must cost at most MAX_UNCHANGED_RATIO (1%) of
     BM_RefreshNow/changed (a refresh that solves). Both rows use one time
     unit.

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


def load_benchmarks(path):
    """name -> real_time for every non-aggregate benchmark entry."""
    with open(path) as handle:
        data = json.load(handle)
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        runs[bench["name"]] = float(bench["real_time"])
    return runs


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument("--min-warm-speedup", type=float, default=2.0)
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)

    print(f"bench-regression: {args.fresh} vs baseline {args.baseline}")
    failures = check_regressions(baseline, fresh, args.max_regression)
    print("bench-regression: warm-refresh speedup bar")
    failures += check_warm_speedup(fresh, args.min_warm_speedup)
    print("bench-regression: unchanged-refresh bar")
    failures += check_unchanged_refresh(fresh)

    if failures:
        print("bench-regression: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("bench-regression: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
