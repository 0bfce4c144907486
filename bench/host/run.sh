#!/usr/bin/env bash
# Host-time benchmark: build bench/host in Release and run its workloads.
#
#   bench/host/run.sh [--seed N] [--seconds S] [--trace] [--smoke]
#       Every workload, each in its own process. Prints
#       `workload metric value unit [n=samples]` lines and writes
#       bench/host/out/result.json. With --trace each workload runs once more
#       traced and writes bench/host/out/trace/<workload>.json (spans, registry
#       deltas, per-layer metrics) and <workload>.queries.json (the library's
#       per-query traces of one call).
#
#   bench/host/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload. The last line of output is one JSON object with the keys
#       correct, attempted, failed and metrics.
#
# Exits non-zero when the build fails, when the library sources are missing,
# or when any answer disagrees with the brute-force oracle or any counted
# metric fails to repeat.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
out="$here/out"

workload=""
seed=1
seconds=""
trace=0
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    -h|--help) sed -n '2,19p' "$0"; exit 0 ;;
    *) echo "error: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  if [ "$smoke" = 1 ]; then seconds=0.1; else seconds=10; fi
fi

if [ ! -f "$here/../../src/CMakeLists.txt" ]; then
  echo "error: library sources not found next to bench/host (expected src/ at the repo root)" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$build/CMakeCache.txt"; then
  echo "error: $build is not a Release build; remove it and rerun" >&2
  exit 2
fi
cmake --build "$build" --target psb_hostbench -j "$jobs" >&2
bin="$build/psb_hostbench"

extra=()
[ "$smoke" = 1 ] && extra=(--smoke)

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "$out" "${extra[@]}"
fi

mapfile -t names < <("$bin" --list)
status=0
run_one() {  # workload trace -> prints the metric lines, keeps the exit status
  local log rc=0
  [ "$2" = 0 ] && rm -f "$out/$1.json"
  log="$(mktemp "$out/.run.XXXXXX")"
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --out "$out" \
    "${extra[@]}" >"$log" || rc=$?
  head -n -1 "$log"
  rm -f "$log"
  if [ "$rc" -ne 0 ]; then
    echo "FAILED: $1 (trace $2) exited with $rc" >&2
    status=1
  fi
}
mkdir -p "$out"
for w in "${names[@]}"; do run_one "$w" 0; done
if [ "$trace" = 1 ]; then
  for w in "${names[@]}"; do run_one "$w" 1; done
fi

head_rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
{
  printf '{\n"schema": "psb.hostbench.result.v1",\n"seed": %s,\n"git_head": "%s",\n"workloads": {' \
    "$seed" "$head_rev"
  sep=""
  for w in "${names[@]}"; do
    printf '%s\n"%s": ' "$sep" "$w"
    cat "$out/$w.json" 2>/dev/null || printf 'null'
    sep=","
  done
  printf '}\n}\n'
} >"$out/result.json"
echo "wrote $out/result.json" >&2
exit "$status"
