#!/usr/bin/env python3
"""Perf gate: perfbench's reference-speed figures against committed budgets.

    python3 tools/check_perf_budgets.py

Run from anywhere; paths resolve against the repository root. For every
workload in BENCHMARK.json the gate runs the engine benchmark twice at the
seed and --seconds fixed in bench/baselines/perf_budgets.json:

  --trace 0   rounds_per_s and round_p50_ms, host time at the reference
              speed (perfbench/README.md, "Host time at the reference speed")
  --trace 1   trace.overhead_pct and the share.*_pct of the workload's
              dominant layers (perfbench/README.md's per-layer table)

Each budget is a floor ("min") or a ceiling ("max") on one metric of the
result line, the last stdout line of perfbench/run.py. The per-layer
*.ms_p50 timings are raw host time, not scaled to the reference speed, so
they carry no budget.

The gate fails when a bound is crossed, a budgeted metric is missing from
the result line, a BENCHMARK.json workload has no budget, a run reports
`correct: false` or `failed > 0`, or perfbench exits non-zero. It reads the
result line only and writes every checked figure to perf_gate.summary.json
in the working directory.

Exit status: 0 on pass, 1 on any violation or malformed input.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGETS = os.path.join(ROOT, "bench", "baselines", "perf_budgets.json")
SCHEMA = "sheriff.perf_budgets.v1"
SUMMARY = "perf_gate.summary.json"
# Every workload budgets its end-to-end speed and the cost of tracing it.
REQUIRED = {"untraced": ("rounds_per_s", "round_p50_ms"), "traced": ("trace.overhead_pct",)}
TRACE_FLAG = {"untraced": 0, "traced": 1}


def run_perfbench(workload, seed, seconds, trace):
    """Runs one perfbench workload; returns (exit code, parsed result line or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Build chatter and perfbench's report go to stderr; stdout's last line is the result.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stdout)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def check_run(label, code, result, bounds):
    """Returns (violations, rows) for one run against its metric bounds."""
    problems = []
    rows = []
    if code != 0:
        problems.append(f"{label}: perfbench exited {code}")
    if result is None:
        problems.append(f"{label}: no result line")
        return problems, rows
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(f"{label}: failed = {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    for name, bound in sorted(bounds.items()):
        entry = metrics.get(name)
        if not isinstance(entry, dict) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} missing from the result line")
            continue
        value = entry["value"]
        ok = True
        # `not value >= floor` also fails a NaN.
        if "min" in bound and not value >= bound["min"]:
            problems.append(f"{label}: {name} = {value:.4g} below its floor {bound['min']}")
            ok = False
        if "max" in bound and not value <= bound["max"]:
            problems.append(f"{label}: {name} = {value:.4g} above its ceiling {bound['max']}")
            ok = False
        rows.append({"run": label, "metric": name, "value": value, "ok": ok, **bound})
    return problems, rows


def check_budgets(spec, budgets):
    """Structural violations: workloads without a budget, malformed budgets."""
    problems = []
    if budgets.get("schema") != SCHEMA:
        problems.append(f"budgets: schema is {budgets.get('schema')!r}, expected {SCHEMA!r}")
    workloads = budgets.get("workloads", {})
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        if name not in workloads:
            problems.append(f"{name}: BENCHMARK.json workload has no budget")
    for name in sorted(set(workloads) - set(names)):
        problems.append(f"{name}: budgeted workload is not in BENCHMARK.json")
    for name, budget in sorted(workloads.items()):
        for run, required in REQUIRED.items():
            for metric in required:
                if metric not in budget.get(run, {}):
                    problems.append(f"{name}: {run} budget lacks {metric}")
    return problems


def gate(spec, budgets, runner=run_perfbench):
    """Runs every budgeted workload; returns (violations, rows)."""
    problems = check_budgets(spec, budgets)
    rows = []
    workloads = budgets.get("workloads", {})
    for name in (w["name"] for w in spec["workloads"]):
        if name not in workloads:
            continue
        for run, trace in TRACE_FLAG.items():
            code, result = runner(name, budgets["seed"], budgets["seconds"], trace)
            found, checked = check_run(f"{name} --trace {trace}", code, result,
                                       workloads[name].get(run, {}))
            problems += found
            rows += checked
    return problems, rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(BUDGETS, encoding="utf-8") as f:
        budgets = json.load(f)
    problems, rows = gate(spec, budgets)
    for row in rows:
        bound = (f">= {row['min']}" if "min" in row else "") + \
                (f"<= {row['max']}" if "max" in row else "")
        print(f"  {row['run']:34} {row['metric']:20} {row['value']:10.3f}  {bound:10} "
              f"{'ok' if row['ok'] else 'VIOLATED'}")
    with open(SUMMARY, "w", encoding="utf-8") as f:
        json.dump({"seed": budgets.get("seed"), "seconds": budgets.get("seconds"),
                   "pass": not problems, "violations": problems, "rows": rows}, f, indent=1)
    for problem in problems:
        print(f"check_perf_budgets: FAIL: {problem}")
    if problems:
        return 1
    print("check_perf_budgets: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
