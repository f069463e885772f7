#!/usr/bin/env python3
"""Compares two directories of ftoa_e2e result records (run.sh --out DIR).

    compare.py A/ B/                  every workload x end-to-end metric
    compare.py A/ B/ --claim M@W      the paired-win rule for one claim
    compare.py A/ B/ --stability      A and B are two sets of one commit

A is the parent (or the first set), B the change (or the second set).
Bounds and directions come from BENCHMARK.json at the repository root.

Default mode prints each side's median and quartiles and classifies every
pair as improved, unchanged, regressed, or unresolved (a spread wider than
the bound, unless every run of B is better than every run of A). It exits
1 if anything regressed.

--claim metric@workload pairs the runs of A and B by seed and holds the
claim only when B wins at least 9 of every 10 pairs (ties count for
neither) and the medians differ by more than A's quartile spread. It needs
at least 10 pairs and exits 0 only when the claim holds.

--stability exits 0 only when, for every workload x metric, both sets'
spreads stay within the bound (setup_s exempt) and the medians differ by
no more than the bound. On workloads without background refresh it also
requires match_rate to be identical for every seed present in both sets.
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """{workload: {seed: record}} of the end-to-end records in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("mode") != "e2e":
            continue
        seed = record["context"]["seed"]
        runs.setdefault(record["workload"], {})[seed] = record
    if not runs:
        sys.exit("compare.py: no end-to-end records in %s" % directory)
    return runs


def values(runs, metric):
    return [r["metrics"][metric]["value"] for _, r in sorted(runs.items())]


def quartiles(sample):
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    q1, q2, q3 = statistics.quantiles(sample, n=4)
    return q1, statistics.median(sample), q3


def spread(sample):
    q1, median, q3 = quartiles(sample)
    return (q3 - q1) / median if median else 0.0


def worse_by(a, b, better):
    """Share by which b is worse than a (negative: b is better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def is_better(a, b, better):
    return b < a if better == "lower" else b > a


def classify(a, b, metric):
    bound, better = metric["bound"], metric["better"]
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound:
        if all(is_better(x, y, better) for x in a for y in b):
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > max(bound, spread(a)):
        return "improved", worse
    return "unchanged", worse


def fmt(sample):
    q1, median, q3 = quartiles(sample)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def compare(a_runs, b_runs, metrics):
    regressed = False
    print("%-18s %-15s %-34s %-34s %8s %6s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "worse", "bound", "verdict"))
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in metrics:
            a = values(a_runs[workload], metric["name"])
            b = values(b_runs[workload], metric["name"])
            verdict, worse = classify(a, b, metric)
            regressed |= verdict == "regressed"
            print("%-18s %-15s %-34s %-34s %+7.2f%% %5.1f%%  %s" %
                  (workload, metric["name"], fmt(a), fmt(b), 100 * worse,
                   100 * metric["bound"], verdict))
    return 1 if regressed else 0


def claim(a_runs, b_runs, metrics, spec):
    name, _, workload = spec.partition("@")
    metric = next((m for m in metrics if m["name"] == name), None)
    if metric is None or workload not in a_runs or workload not in b_runs:
        sys.exit("compare.py: unknown claim %s" % spec)
    seeds = sorted(set(a_runs[workload]) & set(b_runs[workload]))
    a = [a_runs[workload][s]["metrics"][name]["value"] for s in seeds]
    b = [b_runs[workload][s]["metrics"][name]["value"] for s in seeds]
    if len(seeds) < 10:
        print("claim %s: %d paired runs, at least 10 needed" %
              (spec, len(seeds)))
        return 1
    wins = sum(is_better(x, y, metric["better"]) for x, y in zip(a, b))
    q1, median_a, q3 = quartiles(a)
    gap = abs(statistics.median(b) - median_a)
    holds = wins >= math.ceil(0.9 * len(seeds)) and gap > q3 - q1
    print("claim %s: B wins %d of %d pairs; median %s -> %s (A quartile "
          "spread %.6g): %s" %
          (spec, wins, len(seeds), "%.6g" % median_a,
           "%.6g" % statistics.median(b), q3 - q1,
           "holds" if holds else "not met"))
    return 0 if holds else 1


def stability(a_runs, b_runs, metrics):
    failures = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        if workload not in a_runs or workload not in b_runs:
            failures.append("%s: missing from one set" % workload)
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = values(a_runs[workload], name)
            b = values(b_runs[workload], name)
            drift = worse_by(statistics.median(a), statistics.median(b),
                             "lower")
            spreads = (spread(a), spread(b))
            print("%-18s %-15s spread A %6.2f%% B %6.2f%%  medians differ "
                  "%+6.2f%%  bound %5.1f%%" %
                  (workload, name, 100 * spreads[0], 100 * spreads[1],
                   100 * drift, 100 * bound))
            if name != "setup_s" and max(spreads) > bound:
                failures.append("%s %s: spread above bound" % (workload, name))
            if abs(drift) > bound:
                failures.append("%s %s: medians differ by more than the bound"
                                % (workload, name))
        background = any(r["context"]["workload"]["background_refresh"]
                         for r in a_runs[workload].values())
        if not background:
            for seed in sorted(set(a_runs[workload]) & set(b_runs[workload])):
                rates = [runs[workload][seed]["metrics"]["match_rate"]["value"]
                         for runs in (a_runs, b_runs)]
                if rates[0] != rates[1]:
                    failures.append("%s seed %s: match_rate %r vs %r" %
                                    (workload, seed, rates[0], rates[1]))
    for failure in failures:
        print("UNSTABLE " + failure)
    print("stability: %s" % ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--claim", metavar="METRIC@WORKLOAD")
    group.add_argument("--stability", action="store_true")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    if args.claim:
        return claim(a_runs, b_runs, metrics, args.claim)
    if args.stability:
        return stability(a_runs, b_runs, metrics)
    return compare(a_runs, b_runs, metrics)


if __name__ == "__main__":
    sys.exit(main())
