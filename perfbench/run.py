#!/usr/bin/env python3
"""Build the soclearn serving benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload il_adapt --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends on
the repository's crates by path.  It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the repository root), then run
as one process per workload.  Its standard output is passed through, with a
provenance line inserted before the final line, which stays the JSON result
object.  Exits non-zero, without printing a result, if the build or the run
fails or the run exceeds its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "soclearn-perfbench"
# A run may take at most 180 s; the build before it is a no-op once built.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not be
    a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "crates", ROOT / "vendor", BENCH_DIR]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in root.rglob("*") if p.is_file() and "target" not in p.parts)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    manifest = BENCH_DIR / "Cargo.toml"
    build = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")

    run = [
        str(target / "release" / BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scale", args.scale,
    ]
    try:
        done = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed with exit code {done.returncode}")
    try:
        result = json.loads(lines[-1])
        config = json.loads(lines[0])
    except json.JSONDecodeError as error:
        fail(f"malformed output: {error}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")

    provenance = {
        "nproc": os.cpu_count(),
        "workers": config.get("workers"),
        "seed": args.seed,
        "rustc": command_output(["rustc", "--version"]),
        # Only this checkout's own repository, never one enclosing it.
        "git_sha": (command_output(["git", "rev-parse", "HEAD"])
                    if (ROOT / ".git").exists() else "unavailable"),
        "source_sha256": source_digest(),
        "profile": "release",
        "scale": args.scale,
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"provenance": provenance}))
    print(lines[-1])


if __name__ == "__main__":
    main()
