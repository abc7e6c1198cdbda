#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

- a short run of every workload, untraced and traced, reports exactly the
  metrics BENCHMARK.json declares, with their units, and passes its checks;
- the C++ self-test (perfbench_selftest) passes: an unsynced follower trips
  the node_churn check, a wrong reference outcome trips the swarm_wave
  check, one seed gives identical per-layer counts twice, and a cost
  injected into every op shows in the scaled ops_per_s;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  fails without printing a result.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RUN_SPEC = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(ROOT, "perfbench", "run.py"))
perfbench_run = importlib.util.module_from_spec(RUN_SPEC)
RUN_SPEC.loader.exec_module(perfbench_run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run_benchmark(workload, trace, cwd=ROOT, seconds="0.2"):
    command = SPEC["command"] + ["--workload", workload, "--seed", "5", "--seconds", seconds,
                                 "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        done = run_benchmark(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(units, {metric["name"]: metric["unit"] for metric in declared})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_every_workload_reports_the_declared_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0, SPEC["end_to_end"])
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(metrics[metric["name"]]["value"], 0, metric["name"])
                layer = self.check_run(workload, 1, SPEC["per_layer"])
                self.assertGreater(layer["trace.coverage"]["value"], 0.9)


class SelfTest(unittest.TestCase):
    def test_selftest_passes(self):
        # Configures the build tree first when it is fresh.
        self.assertTrue(perfbench_run.build("perfbench_selftest"))
        done = subprocess.run([os.path.join(perfbench_run.BUILD_DIR, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            done = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
