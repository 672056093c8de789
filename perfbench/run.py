#!/usr/bin/env python3
"""Builds and runs the GraphPipe benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release)
and, for the trace check, the repository's `xtask` tool; then runs one
workload and passes its output through. The last line of standard output
is the JSON result. The result is marked incorrect when its metric names
or units differ from BENCHMARK.json, or, with `--trace 1`, when the
Perfetto file fails `cargo xtask trace-check`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds perfbench and xtask; build output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--offline", "--quiet", "--package", "xtask",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def target_dir(manifest_dir):
    """Where cargo puts the build of the package at `manifest_dir`."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", os.path.join(manifest_dir, "target")))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    trace = args.trace == "1"
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("the repository sources are missing; run from a full checkout")
    build()

    out_dir = os.path.join(HERE, "out")
    cmd = [os.path.join(target_dir(HERE), "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", out_dir]
    # A fixed glibc malloc policy, so that peak RSS follows live memory.
    # With the adaptive mmap threshold plan-zoo's peak RSS depended on the
    # order of its cells (28 or 37 MB). With more than one arena, gp-exec's
    # per-step worker threads land on either arena and each arena keeps
    # its own high-water mark: train-tiny's peak RSS moved by 0.14 (four
    # arenas) and 0.09-0.18 (two) between runs (quartile spread over
    # median, ten seeds), against 0.02 with one. Train-tiny's samples/s
    # read 47-52k with one arena and 48-55k with two (six 5 s runs each).
    env = dict(os.environ, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(run.stdout, end="")
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])

    problems = []
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared_metrics(trace):
        problems.append("reported metrics differ from BENCHMARK.json")
    if trace:
        trace_file = os.path.join(out_dir, f"trace-{args.workload}.json")
        try:
            check = subprocess.run(
                [os.path.join(target_dir(ROOT), "debug", "xtask"), "trace-check", trace_file],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=RUN_TIMEOUT_S)
            print(check.stdout, end="")
            passed = check.returncode == 0
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: xtask trace-check did not run: {e}", file=sys.stderr)
            passed = False
        if not passed:
            problems.append(f"{trace_file} fails xtask trace-check")
    for line in lines[:-1]:
        print(line)
    for p in problems:
        print(f"  FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
