#!/usr/bin/env python3
"""Build the benchmark binary from source, run one workload, relay its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The perfbench binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), an optimized build of the repository's
libraries plus perfbench/src. Its last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; this script checks that the
metric names are exactly the ones BENCHMARK.json lists for the chosen
trace mode before passing it through, and exits non-zero otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["train", "search", "search_vector", "serve"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DHWPR_TSAN=OFF", "-DHWPR_ASAN=OFF", "-DHWPR_UBSAN=OFF"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(expected):
        fail("metric names differ from BENCHMARK.json")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
