#!/usr/bin/env bash
# Build the end-to-end benchmark into build-e2e/ and run it.
#
#   bench/e2e/run.sh                      all workloads, untraced, 10 s windows
#   bench/e2e/run.sh --workload hot-storm one workload
#   bench/e2e/run.sh --smoke              all workloads, 1 s window
#   bench/e2e/run.sh --trace              untraced, then traced (+ probes)
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Every argument goes to e2e_bench (usage in e2e_bench.cpp). Metrics print as
# `name value unit`; the last line is a JSON result object; the full report
# lands in build-e2e/BENCH_e2e.json and traces in build-e2e/trace_*.json.
# Build output goes to build-e2e/build.log.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out=build-e2e
mkdir -p "$out"

if ! cmake -S bench/e2e -B "$out" > "$out/build.log" 2>&1 \
   || ! cmake --build "$out" --target e2e_bench -j "$(nproc)" \
       >> "$out/build.log" 2>&1; then
  tail -n 20 "$out/build.log" >&2
  echo "bench/e2e: build failed (log: $out/build.log)" >&2
  exit 1
fi

exec "$out/e2e_bench" --out-dir "$out" "$@"
