#!/usr/bin/env bash
# Regenerate the committed perf baselines (bench_out/BENCH_*.json): the core
# event-queue, report-JSON, feedback-path and bonded-path microbenches, the
# fleet contention sweep and the sat 3-way bonding bench.
#
# Run this on the CI reference machine class after any change that is
# *supposed* to move simulator throughput, then commit the refreshed files;
# the perf gate (scripts/perf_gate.sh) fails CI when events_per_second (the
# JSON microbench: mb_per_second; the feedback and bond microbenches:
# ops_per_second) drops more than 20% below these numbers.
#
# Usage: scripts/bench_baseline.sh [--quick]
#   --quick   small sizes only (smoke-test the script itself, not a baseline)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

sizes="1,4,16,64,256,1000"
horizon=60
sat_runs=4
queue_events=4000000
json_packets=300000
feedback_packets=300000
bond_packets=300000
[[ "${1:-}" == "--quick" ]] && {
  sizes="1,4,16"; horizon=20; sat_runs=1; queue_events=500000
  json_packets=30000; feedback_packets=30000; bond_packets=30000; }

cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$repo/build" -j "$jobs" \
  --target bench_ext_fleet bench_ext_sat bench_core_queue bench_core_json \
  bench_core_feedback bench_core_bond

mkdir -p "$repo/bench_out"
echo "== core queue baseline ($queue_events events/workload) =="
"$repo/build/bench/bench_core_queue" --events "$queue_events" \
  --bench-json "$repo/bench_out/BENCH_core_queue.json"
echo
# One bench_core_json process reads up to ~1.6x apart from the next on a
# shared host, so the committed baseline is the run with the median dump rate
# of five.
echo "== core JSON baseline ($json_packets per-packet samples, median of 5) =="
json_runs="$(mktemp -d /tmp/json_baseline.XXXXXX)"
feedback_runs="$(mktemp -d /tmp/feedback_baseline.XXXXXX)"
bond_runs="$(mktemp -d /tmp/bond_baseline.XXXXXX)"
trap 'rm -rf "$json_runs" "$feedback_runs" "$bond_runs"' EXIT
for i in 1 2 3 4 5; do
  "$repo/build/bench/bench_core_json" --packets "$json_packets" \
    --bench-json "$json_runs/$i.json" | grep -E '^ *(dump|parse) '
done
python3 - "$json_runs" "$repo/bench_out/BENCH_core_json.json" <<'PY'
import glob, json, shutil, sys

def dump_rate(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return next(r["mb_per_second"] for r in rows if r["workload"] == "dump")

runs = sorted(glob.glob(sys.argv[1] + "/*.json"), key=dump_rate)
shutil.copyfile(runs[len(runs) // 2], sys.argv[2])
print(f"median dump rate {dump_rate(sys.argv[2]):.1f} MB/s")
PY
echo
# Same for the feedback microbench, keyed on the W=256 on_feedback rate.
echo "== core feedback baseline ($feedback_packets packets, median of 5) =="
for i in 1 2 3 4 5; do
  "$repo/build/bench/bench_core_feedback" --packets "$feedback_packets" \
    --bench-json "$feedback_runs/$i.json" | grep -E '^ *(on_|build_)'
done
python3 - "$feedback_runs" "$repo/bench_out/BENCH_core_feedback.json" <<'PY'
import glob, json, shutil, sys

def feedback_rate(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return next(r["ops_per_second"] for r in rows
                if r["workload"] == "on_feedback" and r["ack_window"] == 256)

runs = sorted(glob.glob(sys.argv[1] + "/*.json"), key=feedback_rate)
shutil.copyfile(runs[len(runs) // 2], sys.argv[2])
print(f"median W=256 on_feedback rate {feedback_rate(sys.argv[2]):,.0f} reports/s")
PY
echo
# Same for the bonded-path microbench, keyed on the reorder-window rate.
echo "== core bond baseline ($bond_packets packets, median of 5) =="
for i in 1 2 3 4 5; do
  "$repo/build/bench/bench_core_bond" --packets "$bond_packets" \
    --bench-json "$bond_runs/$i.json" | grep -E '^(reorder|fec) '
done
python3 - "$bond_runs" "$repo/bench_out/BENCH_core_bond.json" <<'PY'
import glob, json, shutil, sys

def reorder_rate(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return next(r["ops_per_second"] for r in rows if r["workload"] == "reorder")

runs = sorted(glob.glob(sys.argv[1] + "/*.json"), key=reorder_rate)
shutil.copyfile(runs[len(runs) // 2], sys.argv[2])
print(f"median reorder rate {reorder_rate(sys.argv[2]):,.0f} packets/s")
PY
echo
for env in urban rural-p1; do
  out="$repo/bench_out/BENCH_fleet_${env//-/_}.json"
  echo "== fleet baseline: $env (sizes $sizes, horizon ${horizon}s) =="
  "$repo/build/bench/bench_ext_fleet" \
    --env "$env" --sizes "$sizes" --horizon "$horizon" \
    --bench-json "$out"
  echo
done

echo "== sat baseline: 2-path vs 3-way bonding ($sat_runs runs/arm) =="
"$repo/build/bench/bench_ext_sat" --runs "$sat_runs" \
  --bench-json "$repo/bench_out/BENCH_sat.json"
echo

echo "baselines written; commit the bench_out/BENCH_*.json files"
