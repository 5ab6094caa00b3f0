#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py as the benchmark driver would, on short runs of the
cheapest workload; under a minute after the first build.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark promises, by name (obs.bus_events.* once per
# obs component).
ISSUE_E2E = ["realtime_factor", "sim_events_per_s", "setup_s", "peak_rss_mb",
             "rss_per_session_mb"]
COMPONENTS = ["cellular", "link-queue", "cc", "sender", "receiver", "wan",
              "fault", "session", "bond", "sat", "planner"]
ISSUE_PER_LAYER = [
    "sim.events", "sim.allocs_per_event", "sim.queue_ns_per_event",
    "cellular.measurements", "cellular.handovers", "cellular.rlf",
    "cellular.linkqueue.enqueues", "cellular.linkqueue.drop_ratio",
    "cellular.linkqueue.ns_per_packet", "cc.target_rate_changes",
    "cc.gcc.ns_per_feedback", "cc.scream.ns_per_feedback",
    "rtp.packetizer.ns_per_frame", "rtp.jitter.ns_per_packet",
    "pipeline.setup_s", "pipeline.run_s", "pipeline.collect_s",
    "pipeline.delivery_ratio", "pipeline.play_ratio", "json.serialize_s",
    "json.report_mb", "json.mb_per_s", "fleet.plan_s", "fleet.run_s",
    "fleet.peak_cell_load", "bond.path_switches", "bond.fec_retunes",
    "bond.reorder_flushes", "bond.reorder.ns_per_packet",
    "bond.media_per_airtime", "sat.pass_handovers", "sat.outages",
    "obs.publish_ns_masked", "obs.trace_overhead_frac",
] + [f"obs.bus_events.{c}" for c in COMPONENTS]


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_file(workload, seed, trace):
    return json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


class Rejections(unittest.TestCase):
    def assert_rejected(self, *args):
        r = run(*args)
        self.assertNotEqual(r.returncode, 0, r.stdout)
        self.assertEqual(r.stdout.strip(), "", "a rejected run printed a result")

    def test_unknown_workload(self):
        self.assert_rejected("--workload", "no_such_workload", "--seed", "1")

    def test_bad_seeds(self):
        for seed in ["-1", "abc", "1.5", "", "99999999999999999999"]:
            with self.subTest(seed=seed):
                self.assert_rejected("--workload", "bond_sat", "--seed", seed)

    def test_bare_directory_fails_without_result(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run("--workload", "bond_sat", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


class Spec(unittest.TestCase):
    def test_spec_names_every_metric(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m for m in SPEC["per_layer"]}
        for name in ISSUE_E2E:
            self.assertIn(name, e2e)
        for name in ISSUE_PER_LAYER:
            self.assertIn(name, per_layer)
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Runs(unittest.TestCase):
    """Two traced runs at one seed and an untraced run at another."""

    @classmethod
    def setUpClass(cls):
        cls.lines = {}
        cls.results = {}
        for key, seed, trace in [("a", 5, 1), ("b", 5, 1), ("c", 6, 0)]:
            r = run("--workload", "fleet_urban_64", "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace))
            assert r.returncode == 0, r.stderr[-2000:]
            cls.lines[key] = json.loads(r.stdout.strip().splitlines()[-1])
            cls.results[key] = result_file("fleet_urban_64", seed, trace)

    def test_contract_line(self):
        for key, line in self.lines.items():
            with self.subTest(run=key):
                self.assertEqual(set(line), {"correct", "attempted", "failed",
                                             "metrics"})
                self.assertTrue(line["correct"])
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(line["failed"], 0)
        names = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(list(self.lines["a"]["metrics"]), names)
        self.assertEqual(list(self.lines["c"]["metrics"]),
                         [m["name"] for m in SPEC["end_to_end"]])

    def test_units_match_spec(self):
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for key, line in self.lines.items():
            for name, metric in line["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)
                self.assertIsInstance(metric["value"], (int, float), name)

    def test_result_file_parses_with_provenance(self):
        prov = self.results["a"]["provenance"]
        for key in ["nproc", "cpu_model", "compiler", "cmake_build_type",
                    "git_sha", "jobs", "seed"]:
            self.assertIn(key, prov)
        self.assertEqual(prov["jobs"], 1)
        self.assertEqual(prov["seed"], 5)
        self.assertTrue(all(c["ok"] for c in self.results["a"]["checks"]))

    def test_same_seed_repeats_digest_and_counts(self):
        a, b = self.lines["a"]["metrics"], self.lines["b"]["metrics"]
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        self.assertTrue(counts)
        for name in counts:
            self.assertEqual(a[name]["value"], b[name]["value"], name)
        self.assertEqual(self.results["a"]["digest"], self.results["b"]["digest"])

    def test_other_seed_changes_digest(self):
        self.assertNotEqual(self.results["a"]["digest"],
                            self.results["c"]["digest"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
