"""Smoke tests of the benchmark on tiny inputs, for all three workloads.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each check runs `run.py --tiny` (small graphs and walk sets, 1 s window) as
a separate process, exactly as the benchmark is invoked. They check that
every metric of BENCHMARK.json is emitted with its unit, that the replay
check passes and catches a corrupted visit array, and that the simulated
metrics repeat for one seed and change with the seed.
"""

import functools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (all three, measured or not)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace, repeat=0, *extra):
    """One invocation; `repeat` only distinguishes otherwise equal runs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


def simulated(result):
    """Metrics that are pure functions of the seed."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(("sim_", "disk.", "core.loads_", "core.ondemand_frac",
                             "core.time_slots", "core.supersteps", "walk.neighbors_per_step"))}


class SmokeTest(unittest.TestCase):

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = bench(workload, 1, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)

    def test_simulated_metrics_repeat_per_seed_and_change_with_it(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = simulated(bench(workload, 1, trace)[1])
                    again = simulated(bench(workload, 1, trace, 1)[1])
                    other = simulated(bench(workload, 2, trace)[1])
                    self.assertTrue(first)
                    self.assertEqual(first, again)
                    self.assertNotEqual(first, other)

    def test_corrupted_visit_array_fails_the_check(self):
        code, result, err = bench(WORKLOADS[0], 3, 0, 0, "--corrupt-visits")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn(f"workload={WORKLOADS[0]} seed=3", err)


if __name__ == "__main__":
    unittest.main()
