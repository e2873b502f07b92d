#!/usr/bin/env python3
"""Self-test of the engine benchmark on tiny (Fat-Tree k=4) workloads.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark like run.py does, then checks for every workload in
BENCHMARK.json that the result line names every metric with its unit, that
all correctness checks pass, and that worker pools of size 1 and nproc
print the same results_digest. Also checks that malformed command lines
and a forced auditor are refused without a result line.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NPROC = len(os.sched_getaffinity(0))
ENV = {k: v for k, v in os.environ.items() if k != "SHERIFF_FORCE_AUDIT"}


def invoke(binary, *args, env=ENV):
    return subprocess.run([binary] + list(args), capture_output=True, text=True, env=env,
                          timeout=170)


def tiny(binary, workload, trace, pool, *extra):
    proc = invoke(binary, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace",
                  str(trace), "--scale", "tiny", "--pool", str(pool), *extra)
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("results_digest:")]
    return proc, json.loads(lines[-1]) if lines else None, digest


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spans_dir = os.path.join(run.build_dir(), "selftest")
        os.makedirs(cls.spans_dir, exist_ok=True)

    def check_result(self, proc, result, expected):
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_prints_its_metrics_and_is_pool_invariant(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                serial, serial_result, serial_digest = tiny(self.binary, workload, 0, 1)
                self.check_result(serial, serial_result, SPEC["end_to_end"])
                wide, wide_result, wide_digest = tiny(self.binary, workload, 0, NPROC)
                self.check_result(wide, wide_result, SPEC["end_to_end"])
                self.assertEqual(len(serial_digest), 1)
                self.assertEqual(serial_digest, wide_digest)

                spans = os.path.join(self.spans_dir, workload + ".json")
                traced, traced_result, traced_digest = tiny(self.binary, workload, 1, NPROC,
                                                            "--spans", spans)
                self.check_result(traced, traced_result, SPEC["per_layer"])
                self.assertEqual(traced_digest, serial_digest)
                with open(spans) as f:
                    written = json.load(f)
                self.assertTrue(written["rounds"])
                self.assertTrue(written["snapshots"])
                for name in ("graph.kmedian.ms_p50", "core.commit.ms_p50", "fault.ms_p50"):
                    self.assertIn(name, written["layer_metrics"])

    def test_malformed_command_lines_are_refused(self):
        good = ["--workload", "ft24_regional", "--seed", "1", "--seconds", "1", "--trace", "0"]
        bad = [
            ["--workload", "nope"] + good[2:],
            good[:3] + ["12abc"] + good[4:],
            good[:3] + ["-1"] + good[4:],
            good[:3] + [""] + good[4:],
            good[:7] + ["2"],
            good[:6],
            good + ["--frobnicate", "1"],
            good + ["--seed", "2"],
            good + ["--pool", str(NPROC + 1)],
            good + ["--scale"],
        ]
        for args in bad:
            with self.subTest(args=args):
                proc = invoke(self.binary, *args)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")

    def test_forced_audit_is_refused(self):
        env = dict(ENV, SHERIFF_FORCE_AUDIT="1")
        proc = invoke(self.binary, "--workload", "ft24_regional", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--scale", "tiny", env=env)
        self.assertEqual(proc.returncode, 3)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
