#!/usr/bin/env python3
"""Self-test of the perf budget gate on synthetic perfbench result lines.

    python3 tools/test_check_perf_budgets.py

Runs no benchmark: every case hands check_perf_budgets.gate() a fake
runner that returns a result line built here, and checks that the gate
passes a run within budget and names the violation otherwise.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf_budgets as gate_module  # noqa: E402

SPEC = {"workloads": [{"name": "alpha"}, {"name": "beta"}]}
BUDGETS = {
    "schema": gate_module.SCHEMA,
    "seed": 1,
    "seconds": 8,
    "workloads": {
        "alpha": {
            "untraced": {"rounds_per_s": {"min": 100.0}, "round_p50_ms": {"max": 5.0}},
            "traced": {"trace.overhead_pct": {"max": 20.0}, "share.net_pct": {"max": 70.0}},
        },
        "beta": {
            "untraced": {"rounds_per_s": {"min": 50.0}, "round_p50_ms": {"max": 10.0}},
            "traced": {"trace.overhead_pct": {"max": 20.0}, "share.commit_pct": {"max": 40.0}},
        },
    },
}
# Every figure inside its bound.
VALUES = {
    "alpha": {0: {"rounds_per_s": 250.0, "round_p50_ms": 3.0},
              1: {"trace.overhead_pct": 4.0, "share.net_pct": 60.0}},
    "beta": {0: {"rounds_per_s": 120.0, "round_p50_ms": 7.0},
             1: {"trace.overhead_pct": 5.0, "share.commit_pct": 18.0}},
}


def result_line(metrics, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


class FakeRunner:
    """Returns the synthetic result of each (workload, trace) run, after an
    optional edit; records the calls."""

    def __init__(self, edit=None, code=0):
        self.edit = edit
        self.code = code
        self.calls = []

    def __call__(self, workload, seed, seconds, trace):
        self.calls.append((workload, seed, seconds, trace))
        result = result_line(VALUES[workload][trace])
        if self.edit is not None:
            self.edit(workload, trace, result)
        return self.code, result


def edit_of(workload, trace, change):
    def edit(w, t, result):
        if (w, t) == (workload, trace):
            change(result)
    return edit


class PerfBudgetGateSelfTest(unittest.TestCase):
    def run_gate(self, runner, budgets=BUDGETS):
        return gate_module.gate(SPEC, budgets, runner)

    def assert_fails_naming(self, problems, *words):
        self.assertTrue(problems, "the gate passed")
        self.assertTrue(any(all(w in p for w in words) for p in problems), problems)

    def test_every_metric_within_budget_passes(self):
        runner = FakeRunner()
        problems, rows = self.run_gate(runner)
        self.assertEqual(problems, [])
        self.assertEqual(len(rows), 8)
        self.assertTrue(all(row["ok"] for row in rows))
        self.assertEqual(runner.calls, [("alpha", 1, 8, 0), ("alpha", 1, 8, 1),
                                        ("beta", 1, 8, 0), ("beta", 1, 8, 1)])

    def test_floor_crossed_fails(self):
        def slow(result):
            result["metrics"]["rounds_per_s"]["value"] = 99.0
        problems, _ = self.run_gate(FakeRunner(edit_of("alpha", 0, slow)))
        self.assert_fails_naming(problems, "alpha --trace 0", "rounds_per_s", "floor")
        self.assertEqual(len(problems), 1)

    def test_ceiling_crossed_fails(self):
        def heavy(result):
            result["metrics"]["share.commit_pct"]["value"] = 40.5
        problems, _ = self.run_gate(FakeRunner(edit_of("beta", 1, heavy)))
        self.assert_fails_naming(problems, "beta --trace 1", "share.commit_pct", "ceiling")
        self.assertEqual(len(problems), 1)

    def test_nan_fails(self):
        def nan(result):
            result["metrics"]["round_p50_ms"]["value"] = float("nan")
        problems, _ = self.run_gate(FakeRunner(edit_of("beta", 0, nan)))
        self.assert_fails_naming(problems, "beta --trace 0", "round_p50_ms")

    def test_budgeted_metric_missing_fails(self):
        def drop(result):
            del result["metrics"]["share.net_pct"]
        problems, _ = self.run_gate(FakeRunner(edit_of("alpha", 1, drop)))
        self.assert_fails_naming(problems, "alpha --trace 1", "share.net_pct", "missing")

    def test_correct_false_fails(self):
        def wrong(result):
            result["correct"] = False
        problems, _ = self.run_gate(FakeRunner(edit_of("beta", 0, wrong)))
        self.assert_fails_naming(problems, "beta --trace 0", "correct")

    def test_failed_rounds_fail(self):
        def failed(result):
            result["failed"] = 2
        problems, _ = self.run_gate(FakeRunner(edit_of("alpha", 1, failed)))
        self.assert_fails_naming(problems, "alpha --trace 1", "failed = 2")

    def test_nonzero_exit_fails(self):
        problems, _ = self.run_gate(FakeRunner(code=1))
        self.assert_fails_naming(problems, "exited 1")

    def test_missing_result_line_fails(self):
        problems, _ = self.run_gate(lambda *_: (3, None))
        self.assert_fails_naming(problems, "no result line")

    def test_workload_without_budget_fails(self):
        budgets = copy.deepcopy(BUDGETS)
        del budgets["workloads"]["beta"]
        runner = FakeRunner()
        problems, _ = self.run_gate(runner, budgets)
        self.assert_fails_naming(problems, "beta", "no budget")
        self.assertNotIn("beta", [call[0] for call in runner.calls])

    def test_budget_lacking_a_required_metric_fails(self):
        budgets = copy.deepcopy(BUDGETS)
        del budgets["workloads"]["alpha"]["traced"]["trace.overhead_pct"]
        problems, _ = self.run_gate(FakeRunner(), budgets)
        self.assert_fails_naming(problems, "alpha", "trace.overhead_pct")

    def test_committed_budgets_cover_every_benchmark_workload(self):
        with open(os.path.join(gate_module.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(gate_module.BUDGETS) as f:
            budgets = json.load(f)
        self.assertEqual(gate_module.check_budgets(spec, budgets), [])


if __name__ == "__main__":
    unittest.main()
