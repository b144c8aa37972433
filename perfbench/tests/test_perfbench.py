#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/tests/test_perfbench.py

Checks that BENCHMARK.json is well formed, that a reduced-size run of every
workload completes correctly in both modes, and that each run reports exactly
the metrics BENCHMARK.json declares for that mode, with the declared units.
Builds the benchmark on first use, like run.py.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_names_and_units(self):
        spec = load_spec()
        seen = set()
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if section != "workloads":
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SmallRunTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
        proc = run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                    "--trace", str(trace), "--small"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(reported, declared)
        for name, value in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertIsInstance(value["value"], (int, float), name)

    def test_workloads(self):
        for w in load_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


class IsolatedCopyTest(unittest.TestCase):
    def test_fails_without_sources(self):
        """With only BENCHMARK.json and the benchmark's own files, there is
        nothing to build: the run must fail and print no result."""
        scratch = os.path.join(ROOT, ".bench_build", "selftest_isolated")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(["--workload", "sched_rl", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
