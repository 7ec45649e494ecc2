#!/usr/bin/env python3
"""Compare two perfbench builds in alternating pairs, judged by BENCHMARK.json.

Usage, from the repository root:

    python3 .github/perf_pairs.py BASE_BIN CHANGE_BIN

BASE_BIN and CHANGE_BIN are perfbench binaries built from the parent and from
the change, in the same checkout path (Cargo hashes the path into crate
metadata, which moves code layout).  Every workload BENCHMARK.json names runs
PAIRS (10) times on each binary, the binary that runs first alternating from
pair to pair, untraced at full scale for BENCHMARK.json's `run_seconds`.  Ten
pairs is the fewest at which a gain can be claimed: the change must win at
least nine of them, and its median must differ from the base median by more
than the base runs' interquartile range.

Prints one row per workload and end-to-end metric: base median, change
median, their ratio, the base runs' interquartile range, how many of the
completed pairs the change won (`k/n`; a tie is a win for neither side, so a
claimed gain can be read against a k-of-n rule) and a verdict.  The
verdict is `unresolved` when that range, relative to the base median, exceeds
the metric's bound, so a difference inside it cannot be told from noise
(unless every change run reads better than every base run); otherwise `worse`
when the change median is worse than the base median by more than the bound,
relative to the base, and `ok` if not.  Exits 1 if any run fails, reports
`correct: false`, or any metric is `worse`; `unresolved` does not fail.
"""

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1
RUN_TIMEOUT_S = 600


def run(binary, workload, seconds):
    """One untraced run: the metrics dict, or an error message."""
    argv = [
        binary,
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(seconds),
        "--trace", "0",
        "--scale", "full",
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        return None, f"did not finish: {error}"
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        return None, f"malformed result: {error}"
    if result.get("correct") is not True:
        return None, (f"correct: false ({result.get('failed')} of {result.get('attempted')} "
                      f"failed): {done.stderr.strip()[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def relative_worsening(base, change, better):
    """How much worse `change` is than `base`, as a fraction of `base`
    (negative when it is better)."""
    worsening = change - base if better == "lower" else base - change
    if base == 0:
        return math.copysign(math.inf, worsening) if worsening else 0.0
    return worsening / abs(base)


def verdict(base_runs, change_runs, metric):
    base = statistics.median(base_runs)
    change = statistics.median(change_runs)
    q1, _, q3 = statistics.quantiles(base_runs, n=4, method="inclusive")
    spread = (q3 - q1) / abs(base) if base else 0.0
    better = metric["better"]
    all_better = all(relative_worsening(b, c, better) < 0
                     for b in base_runs for c in change_runs)
    if spread > metric["bound"] and not all_better:
        word = "unresolved"
    elif relative_worsening(base, change, better) > metric["bound"]:
        word = "worse"
    else:
        word = "ok"
    ratio = change / base if base else float("nan")
    return base, change, ratio, spread, word


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_pairs.py BASE_BIN CHANGE_BIN")
    binaries = {"base": str(Path(sys.argv[1]).resolve()),
                "change": str(Path(sys.argv[2]).resolve())}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    print(f"perf pairs: {PAIRS} pairs per workload, {seconds} s runs, seed {SEED}, "
          f"nproc {os.cpu_count()}")

    failures = []
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {"base": [], "change": []}
        pairs = []
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            done = {}
            for side in order:
                result, error = run(binaries[side], workload, seconds)
                if error:
                    failures.append(f"{workload}: {side} run {pair + 1} {error}")
                    print(f"  {workload} pair {pair + 1} {side}: {error}", file=sys.stderr)
                    continue
                values[side].append(result)
                done[side] = result
                print(f"  {workload} pair {pair + 1} {side}: "
                      f"{result['decisions_per_s']:.0f} decisions/s", file=sys.stderr)
            if len(done) == 2:
                pairs.append((done["base"], done["change"]))
        # Quartiles need two base runs; a failed run has already failed the job.
        if len(values["base"]) < 2 or not values["change"]:
            continue
        for metric in metrics:
            name = metric["name"]
            base, change, ratio, spread, word = verdict(
                [r[name] for r in values["base"]], [r[name] for r in values["change"]], metric)
            wins = sum(relative_worsening(b[name], c[name], metric["better"]) < 0
                       for b, c in pairs)
            rows.append((workload, name, base, change, ratio, spread, f"{wins}/{len(pairs)}",
                         metric["bound"], word))
            if word == "worse":
                failures.append(f"{workload}: {name} worse than the base by more than "
                                f"{metric['bound']:.0%} ({base:.6g} -> {change:.6g})")

    header = ("workload", "metric", "base median", "change median", "ratio", "base IQR", "wins",
              "bound", "verdict")
    table = [header] + [
        (w, n, f"{b:.6g}", f"{c:.6g}", f"{r:.3f}", f"{s:.1%}", k, f"{bd:.0%}", v)
        for w, n, b, c, r, s, k, bd, v in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    if failures:
        print("\nperf pairs failed:")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    print("\nperf pairs passed")


if __name__ == "__main__":
    main()
