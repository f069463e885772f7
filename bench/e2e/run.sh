#!/usr/bin/env bash
# Builds the end-to-end serving benchmark (bench/e2e) in Release and runs
# its workloads, each in its own ftoa_e2e process. Run from anywhere.
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run. The last line of stdout is the result JSON; with
#       --trace 1 the spans are written to <build>/trace-NAME.json.
#   bench/e2e/run.sh --smoke
#       Every workload at x0.05 for two days, traced, with every check.
#   bench/e2e/run.sh [--runs N] [--trace] [--out DIR]
#       The smoke, then N runs (default 5, seeds 1..N) of every workload,
#       one result record per run in DIR (default: <build>/results). With
#       --trace, one traced run per workload instead.
#
# The build lives in $CARGO_TARGET_DIR/e2e (default .bench_build/e2e at the
# repository root); build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
build="$target/e2e"
binary="$build/ftoa_e2e"

build_benchmark() {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    local generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target ftoa_e2e -j "$(nproc)" >&2
}

git_context() {
  local commit dirty
  commit="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
  dirty=unknown
  if [[ "$commit" != unknown ]]; then
    dirty=0
    if [[ -n "$(git -C "$root" status --porcelain 2> /dev/null)" ]]; then
      dirty=1
    fi
  fi
  echo "--git-commit $commit --git-dirty $dirty"
}

smoke() {
  local started=$SECONDS workload
  for workload in $("$binary" --list); do
    if ! "$binary" --workload "$workload" --smoke --trace 1 \
      > "$build/smoke-$workload.log" 2>&1; then
      cat "$build/smoke-$workload.log" >&2
      echo "smoke: $workload FAILED" >&2
      return 1
    fi
    echo "smoke: $workload ok"
  done
  echo "smoke: all workloads passed in $((SECONDS - started)) s"
}

mode=set
runs=5
trace=0
out="$build/results"
workload=""
trace_flag=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) mode=single; workload="${args[i + 1]:-}" ;;
    --workload=*) mode=single; workload="${args[i]#*=}" ;;
    --trace=1) trace_flag=1 ;;
    --trace) [[ "${args[i + 1]:-}" == 1 ]] && trace_flag=1 ;;
    --smoke) mode=smoke ;;
  esac
done

build_benchmark
read -r -a context <<< "$(git_context)"

case "$mode" in
  single)
    extra=()
    if [[ "$trace_flag" == 1 ]]; then
      extra=(--trace-out "$build/trace-$workload.json")
    fi
    exec "$binary" "$@" "${context[@]}" "${extra[@]}"
    ;;
  smoke)
    smoke
    ;;
  set)
    while [[ $# -gt 0 ]]; do
      case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
      esac
    done
    smoke
    mkdir -p "$out"
    if [[ "$trace" == 1 ]]; then
      for workload in $("$binary" --list); do
        "$binary" --workload "$workload" --seed 1 --trace 1 "${context[@]}" \
          --out "$out/$workload-trace.json" \
          --trace-out "$build/trace-$workload.json" | grep -v '^{'
      done
      exit 0
    fi
    for ((seed = 1; seed <= runs; seed++)); do
      for workload in $("$binary" --list); do
        "$binary" --workload "$workload" --seed "$seed" --trace 0 \
          "${context[@]}" --out "$out/$workload-$seed.json" | grep -v '^{'
      done
    done
    ;;
esac
