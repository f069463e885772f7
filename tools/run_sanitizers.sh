#!/usr/bin/env bash
# Sanitizer build-and-test, two phases in two dedicated build trees:
#
#  1. ASan + UBSan (-DFTOA_SANITIZE=ON): AddressSanitizer with leak
#     detection + UBSan with -fno-sanitize-recover=all. Memory leaks —
#     like the per-trial OnlineAlgorithm leak this guard was introduced
#     for — and UB abort the run loudly.
#  2. TSan (-DFTOA_TSAN=ON): ThreadSanitizer over the same suite — the
#     threaded shard actors, the background guide refresher, the serving
#     harness's day-ahead helper (tests/serve/day_ahead_pipeline_test.cc,
#     GuideRefresherPrepareTest) and the serving soak are the races this
#     phase exists for. The two instrumentations cannot share a binary,
#     hence the separate tree.
#
# Both phases run via the `sanitizer` ctest label the instrumented
# configurations attach to every test.
#
# Usage: tools/run_sanitizers.sh [asan-build-dir] [tsan-build-dir]
# FTOA_SKIP_TSAN=1 runs only the ASan/UBSan phase.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
TSAN_BUILD="${2:-$ROOT/build-tsan}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTOA_SANITIZE=ON -DFTOA_BUILD_BENCHES=OFF \
      -DFTOA_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

echo "== ctest -L sanitizer (ASan leak checking on, UBSan fatal)"
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$BUILD" -L sanitizer --output-on-failure \
          -j "$(nproc)"
echo "ASan/UBSan suite passed"

if [[ "${FTOA_SKIP_TSAN:-0}" == "1" ]]; then
  echo "FTOA_SKIP_TSAN=1: skipping the TSan phase"
  exit 0
fi

cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DFTOA_TSAN=ON -DFTOA_BUILD_BENCHES=OFF \
      -DFTOA_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$TSAN_BUILD" -j "$(nproc)"

echo "== ctest -L sanitizer (TSan, races fatal)"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "$TSAN_BUILD" -L sanitizer --output-on-failure \
          -j "$(nproc)"
echo "TSan suite passed"
