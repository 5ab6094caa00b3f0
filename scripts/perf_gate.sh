#!/usr/bin/env bash
# Perf-regression gate: re-run the core event-queue and report-JSON
# microbenches, one fleet contention point and the sat 3-way bonding bench,
# and fail if any events_per_second (JSON: dump and parse mb_per_second)
# fell more than 20% below its committed baseline
# (bench_out/BENCH_core_queue.json, bench_out/BENCH_core_json.json,
# bench_out/BENCH_fleet_urban.json and bench_out/BENCH_sat.json, regenerated
# by scripts/bench_baseline.sh). The microbenches isolate the
# sim::EventQueue engine and the json layer, so a gate failure distinguishes
# "the calendar queue / the serializer regressed" from "a scenario handler
# got slower".
#
# Only throughput is gated — simulation *results* are covered by the
# byte-identity determinism tests, and wall-clock noise on shared CI runners
# is why the threshold is as loose as 20%.
#
# Usage: scripts/perf_gate.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build}"
fleet_baseline="$repo/bench_out/BENCH_fleet_urban.json"
sat_baseline="$repo/bench_out/BENCH_sat.json"
queue_baseline="$repo/bench_out/BENCH_core_queue.json"
json_baseline="$repo/bench_out/BENCH_core_json.json"
sessions=64

[[ -x "$build/bench/bench_ext_fleet" ]] || {
  echo "perf_gate: $build/bench/bench_ext_fleet not built" >&2; exit 2; }
[[ -x "$build/bench/bench_ext_sat" ]] || {
  echo "perf_gate: $build/bench/bench_ext_sat not built" >&2; exit 2; }
[[ -x "$build/bench/bench_core_queue" ]] || {
  echo "perf_gate: $build/bench/bench_core_queue not built" >&2; exit 2; }
[[ -x "$build/bench/bench_core_json" ]] || {
  echo "perf_gate: $build/bench/bench_core_json not built" >&2; exit 2; }
[[ -f "$fleet_baseline" ]] || {
  echo "perf_gate: no committed baseline at $fleet_baseline" >&2; exit 2; }
[[ -f "$sat_baseline" ]] || {
  echo "perf_gate: no committed baseline at $sat_baseline" >&2; exit 2; }
[[ -f "$queue_baseline" ]] || {
  echo "perf_gate: no committed baseline at $queue_baseline" >&2; exit 2; }
[[ -f "$json_baseline" ]] || {
  echo "perf_gate: no committed baseline at $json_baseline" >&2; exit 2; }

fleet_fresh="$(mktemp /tmp/fleet_perf.XXXXXX.json)"
sat_fresh="$(mktemp /tmp/sat_perf.XXXXXX.json)"
queue_fresh="$(mktemp /tmp/queue_perf.XXXXXX.json)"
json_fresh="$(mktemp /tmp/json_perf.XXXXXX.json)"
trap 'rm -f "$fleet_fresh" "$sat_fresh" "$queue_fresh" "$json_fresh"' EXIT
"$build/bench/bench_core_queue" --bench-json "$queue_fresh"
"$build/bench/bench_core_json" --bench-json "$json_fresh"
"$build/bench/bench_ext_fleet" --sizes "$sessions" --horizon 60 \
  --bench-json "$fleet_fresh"
"$build/bench/bench_ext_sat" --runs 2 --bench-json "$sat_fresh" \
  || echo "perf_gate: note — bench_ext_sat verdict nonzero at gate run size" >&2

python3 - "$fleet_baseline" "$fleet_fresh" "$sessions" \
          "$sat_baseline" "$sat_fresh" \
          "$queue_baseline" "$queue_fresh" \
          "$json_baseline" "$json_fresh" <<'PY'
import json, sys

fleet_base_path, fleet_fresh_path, sessions = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]))
sat_base_path, sat_fresh_path = sys.argv[4], sys.argv[5]
queue_base_path, queue_fresh_path = sys.argv[6], sys.argv[7]
json_base_path, json_fresh_path = sys.argv[8], sys.argv[9]

def fleet_rate(path):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        if row["sessions"] == sessions:
            return row["events_per_second"]
    sys.exit(f"perf_gate: no sessions={sessions} row in {path}")

def sat_rate(path):
    # Gate the heaviest arm: 3-way high-reliability.
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        if (row["multipath"] == "bond-high-reliability"
                and row["path_set"] == "three-way"):
            return row["events_per_second"]
    sys.exit(f"perf_gate: no 3-way high-reliability row in {path}")

def queue_rate(path):
    # Gate the wheel fast path; cancel/overflow ride along informationally.
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        if row["workload"] == "steady":
            return row["events_per_second"]
    sys.exit(f"perf_gate: no steady workload row in {path}")

def json_rate(path, workload):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        if row["workload"] == workload:
            return row["mb_per_second"]
    sys.exit(f"perf_gate: no {workload} workload row in {path}")

failed = False
for name, unit, base, now in [
    ("queue", "events/s",
     queue_rate(queue_base_path), queue_rate(queue_fresh_path)),
    ("json-dump", "MB/s",
     json_rate(json_base_path, "dump"), json_rate(json_fresh_path, "dump")),
    ("json-parse", "MB/s",
     json_rate(json_base_path, "parse"), json_rate(json_fresh_path, "parse")),
    ("fleet", "events/s",
     fleet_rate(fleet_base_path), fleet_rate(fleet_fresh_path)),
    ("sat", "events/s", sat_rate(sat_base_path), sat_rate(sat_fresh_path)),
]:
    ratio = now / base if base > 0 else 0.0
    print(f"perf_gate[{name}]: {unit} {now:,.1f} vs baseline {base:,.1f} "
          f"({ratio:.2f}x, floor 0.80x)")
    if ratio < 0.80:
        print(f"perf_gate[{name}]: FAIL — {unit} dropped more "
              "than 20% below the committed baseline")
        failed = True
if failed:
    sys.exit(1)
print("perf_gate: PASS")
PY
