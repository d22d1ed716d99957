#!/usr/bin/env bash
# Repeatability check for the end-to-end benchmark.
#
#   bench/e2e/stability.sh N [FIRST_SEED]
#
# Runs N full untraced passes (seeds FIRST_SEED..FIRST_SEED+N-1, default 1;
# one process per workload and seed, as BENCHMARK.json's command), then
# prints for every (workload, end-to-end metric) the median, the quartiles,
# the quartile distance and the max/min spread, both as shares of the
# median. Exits 1 if a run fails a gate or if any metric's quartile
# distance exceeds its bound in BENCHMARK.json, the spread the bound is
# checked against. setup_s is reported but not gated here, because only its
# median is compared between commits.
set -euo pipefail

n="${1:-5}"
first="${2:-1}"
if [ "$n" -lt 2 ]; then
  echo "stability.sh: need at least 2 passes" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out=build-e2e/stability
mkdir -p "$out"
runs="$out/runs.jsonl"
: > "$runs"

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for ((seed = first; seed < first + n; seed++)); do
  for w in $workloads; do
    # A run that fails a gate still prints its result (correct: false);
    # the summary below reports it.
    line=$(bash bench/e2e/run.sh --workload "$w" --seed "$seed" --trace 0 \
             --out-dir "$out/last" | tail -n 1) || true
    case "$line" in
      "{"*) ;;
      *) echo "stability.sh: $w seed $seed printed no result" >&2; exit 1 ;;
    esac
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
      "$w" "$seed" "$line" >> "$runs"
  done
done

python3 - "$runs" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
print(f"{len(rows)} runs, seeds {sorted({r['seed'] for r in rows})}")
print(f"{'workload':17} {'metric':11} {'median':>12} {'q1':>12} {'q3':>12}"
      f" {'iqr%':>6} {'range%':>7} {'bound%':>6}")
bad = []
for w in (w["name"] for w in bench["workloads"]):
    results = [r["result"] for r in rows if r["workload"] == w]
    if not all(r["correct"] for r in results):
        bad.append(f"{w}: a run was not correct")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med
        spread = (max(vals) - min(vals)) / med
        flag = " FAIL" if spread > m["bound"] else ""
        print(f"{w:17} {m['name']:11} {med:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {100 * iqr:6.2f} {100 * spread:7.2f}"
              f" {100 * m['bound']:6.1f}{flag}")
        if flag:
            bad.append(f"{w} {m['name']}: max/min spread {spread:.3f}"
                       f" > {m['bound']}")
for b in bad:
    print("FAIL", b)
sys.exit(1 if bad else 0)
EOF
