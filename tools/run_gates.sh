#!/usr/bin/env bash
# The documented pre-PR gate: every standing check, in dependency order,
# fail-fast. This is the one command to run before pushing:
#
#   format-check   -> tools/run_format.sh --check        (.clang-format)
#   static analysis-> tools/run_static_analysis.sh       (clang-tidy when
#                     installed + ftoa-lint selftest + tree; always gates)
#   build          -> warnings-as-errors (-DFTOA_WERROR=ON) in a dedicated
#                     tree so the default build dir keeps its cache
#   ctest          -> the full suite (unit + property + stress + soak
#                     smoke + lint labels)
#
# The sanitizer gate (tools/run_sanitizers.sh: ASan/UBSan + TSan) is not
# chained here because it rebuilds two more trees; run it separately for
# concurrency-touching changes.
#
# Optional bench gate (FTOA_BENCH_GATE=1): reruns the bench smoke and
# diffs the fresh BENCH_refresh.json against the committed baseline with
# tools/check_bench_regression.py — fails on a >2x steady-state serving
# regression, an outcome counter (matched, reconciled, recovered,
# boundary_workers, evicted, store, pairs, components) that differs from
# the baseline or an examined_per_query above it, a warm-refresh speedup
# below the 2x bar, an unchanged-prediction refresh above 1% of a
# solving one, or a fresh file without its stamps. Off by default: it rebuilds the Release tree and takes
# minutes.
#
# Usage: tools/run_gates.sh [gate-build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-gate}"

echo "==== gate 1/4: format check"
"$ROOT/tools/run_format.sh" --check

echo "==== gate 2/4: static analysis (clang-tidy + ftoa-lint)"
"$ROOT/tools/run_static_analysis.sh" "$BUILD"

echo "==== gate 3/4: build, warnings as errors"
cmake -B "$BUILD" -S "$ROOT" -DFTOA_WERROR=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

echo "==== gate 4/4: ctest"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

if [[ "${FTOA_BENCH_GATE:-0}" != "0" ]]; then
  echo "==== optional gate: bench smoke + steady-state regression diff"
  baseline="$(mktemp)"
  trap 'rm -f "$baseline"' EXIT
  git -C "$ROOT" show HEAD:BENCH_refresh.json > "$baseline"
  "$ROOT/tools/run_bench_smoke.sh"
  python3 "$ROOT/tools/check_bench_regression.py" \
      "$baseline" "$ROOT/BENCH_refresh.json"
fi

echo "all gates passed"
