#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

They build the benchmark program through run.py and check, on shortened runs:
  * every metric name matches [A-Za-z0-9_.-]+, has a unit, and the committed
    BENCHMARK.json is the one the program prints;
  * a run prints exactly the manifest's metrics for its trace mode;
  * one seed gives identical exact counts and digests on two runs;
  * a different --seed changes the study_* digests;
  * a planted wrong digest is counted as a failure and fails the run.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer counts that are exact at a seed on every workload.
EXACT = ["sim.runs", "sim.events", "sim.messages", "sim.bytes", "smpi.collective_calls",
         "smpi.collective_bytes", "smpi.tags_acquired", "smpi.tag_max_in_flight",
         "exec.cases_started", "exec.cache_misses", "exec.cache_stores",
         "service.tier_model", "service.rejected", "service.errors"]


def manifest():
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "isoee_perfbench")
    out = subprocess.run([binary, "--manifest"], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def bench(workload, seed, trace, *extra):
    """Runs one shortened benchmark run; returns (exit code, result, digest)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    digest = [l.split("=", 1)[1].strip() for l in lines if l.startswith("digest = ")]
    return proc.returncode, json.loads(lines[-1]), digest[0]


class ManifestTest(unittest.TestCase):
    def test_names_and_units(self):
        m = manifest()
        names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(metric["unit"], UNIT, metric["name"])
        self.assertIn("setup_s", [x["name"] for x in m["end_to_end"]])

    def test_committed_manifest_is_current(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), manifest())


class RunTest(unittest.TestCase):
    def test_metrics_match_manifest(self):
        m = manifest()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = bench("study_cg_wide", 5, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            expected = {x["name"]: x["unit"] for x in m[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            self.assertEqual(got, expected)

    def test_same_seed_repeats_counts_and_digests(self):
        for workload in ("study_ft", "study_cg_wide", "whatif_tcp"):
            runs = [bench(workload, 7, 1) for _ in range(2)]
            for code, result, _ in runs:
                self.assertEqual(code, 0, workload)
                self.assertEqual(result["failed"], 0, workload)
            (_, a, digest_a), (_, b, digest_b) = runs
            self.assertEqual(digest_a, digest_b, workload)
            for name in EXACT:
                self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"],
                                 workload + " " + name)
            self.assertGreater(a["metrics"]["sim.events"]["value"], 0, workload)

    def test_seed_changes_study_digests(self):
        for workload in ("study_ft", "study_cg_wide"):
            code42, _, digest42 = bench(workload, 42, 0)
            code43, _, digest43 = bench(workload, 43, 0)
            self.assertEqual((code42, code43), (0, 0), workload)
            self.assertNotEqual(digest42, digest43, workload)

    def test_planted_wrong_digest_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        planted = os.path.join(SCRATCH, "planted_golden.txt")
        with open(planted, "w") as f:
            f.write("study_cg_wide 42 0123456789abcdef\n")
        code, result, _ = bench("study_cg_wide", 42, 0, "--golden", planted)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    subprocess.run([sys.executable, RUN, "--build-only"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    unittest.main()
