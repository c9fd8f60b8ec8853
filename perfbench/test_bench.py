#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_bench.py

Builds the benchmark binary as run.py does, then runs every workload on a
tiny horizon (1.5 simulated seconds) and checks that
  * every metric BENCHMARK.json names is emitted with its unit, end-to-end
    metrics under --trace 0 and per-layer metrics under --trace 1;
  * the run passes its own correctness checks;
  * the deterministic metrics repeat exactly for the same seed;
  * another seed changes the simulated-cluster (sim_*) metrics, so the
    seed reaches the simulation.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0", "--horizon-s", "1.5", "--warmup-s", "0.5"]

# Figures that depend on wall-clock time or memory; everything else a run
# reports is a pure function of its seed.
TIMED = {
    "ops_per_wall_s", "run_wall_s", "setup_s", "peak_rss_mb",
    "sim.wall_ns_per_event", "sim.unit_ns", "sim.wall_share",
    "cache.unit_ns", "cache.wall_share", "net.unit_ns", "net.wall_share",
    "sharded.parallel_eff", "setup.generate_s", "trace_overhead",
}


def bench(binary, workload, seed, trace):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_mode(self, workload, trace, spec_key):
        first = bench(self.binary, workload, 1, trace)
        again = bench(self.binary, workload, 1, trace)
        other = bench(self.binary, workload, 2, trace)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for result in (first, again, other):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()}, expected)
        a, b = values(first), values(again)
        for name in expected:
            if name not in TIMED:
                self.assertEqual(a[name], b[name], f"{name} not repeatable")
        return a, values(other)

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                seed1, seed2 = self.check_mode(w["name"], 0, "end_to_end")
                for name in seed1:
                    if not name.startswith("sim_"):
                        continue
                    if name == "sim_ok_frac" and seed1[name] == seed2[name] == 1.0:
                        continue  # no failed op under either seed
                    self.assertNotEqual(seed1[name], seed2[name],
                                        f"{name} ignores the seed")

    def test_per_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_mode(w["name"], 1, "per_layer")


if __name__ == "__main__":
    unittest.main()
