#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, at a tiny size, must finish,
pass its output checks and emit every metric BENCHMARK.json names for it,
each with its unit.

Usage, from the repository root:

    python3 perfbench/smoke.py
"""

import json
import numbers
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in spec[kind]}
    command = spec["command"] + [
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", trace,
        "--scale", "tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"output checks failed: {result['failed']} of {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        if not isinstance(metric.get("value"), numbers.Real):
            problems.append(f"{name}: value {metric.get('value')!r} is not a number")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            problems = check(spec, workload, trace)
            status = "ok" if not problems else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
