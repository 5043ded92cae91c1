#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload llm_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test

The first call configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr. The benchmark's host
context and notes pass through to stdout, and the last stdout line is
the result object, with the metrics BENCHMARK.json lists for the mode.
--test builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
WORKLOADS = ("llm_cold", "grid_sweep")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.getcwd(), ".bench_build", "perfbench")


def cached_source(build):
    """Source directory recorded in an existing CMake cache, if any."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(target):
    """Configure (once) and build @target; False on any failure."""
    out = build_dir()
    if cached_source(out) not in (None, HERE):
        shutil.rmtree(out)  # A cache from another checkout location.
    steps = []
    if cached_source(out) is None:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False).returncode
        except OSError as e:
            print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run @cmd with stdout passed through; returns its exit code."""
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 3


def result(raw, trace):
    """The result object: BENCHMARK.json's metrics for the mode, with units.

    Every end-to-end metric must have been measured; a missing one is a
    failed check. A per-layer metric of a layer the workload never calls
    is reported as 0.
    """
    with open(SPEC) as f:
        defs = json.load(f)["per_layer" if trace else "end_to_end"]
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {}
    for d in defs:
        value = raw["metrics"].get(d["name"])
        if value is None:
            if not trace:
                attempted += 1
                failed += 1
                print(f"# FAILED: metric not measured: {d['name']}")
            value = 0.0
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    return {"correct": raw["correct"] and failed == raw["failed"],
            "attempted": attempted, "failed": failed, "metrics": metrics}


def bench(cmd, trace):
    """Run the benchmark binary; print its notes and the result object."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: run timed out", file=sys.stderr)
            return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: bad result line: {lines[-1]!r}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result(raw, trace)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("digest", "reply"),
                    help="corrupt a pinned digest, or a serve reply of "
                         "grid_sweep's traced pass, to show the "
                         "correctness checks fail the run")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        if not build("perfbench_tests"):
            return 2
        return run([os.path.join(build_dir(), "perfbench_tests")])
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 2
    work = os.path.dirname(build_dir())
    cmd = [os.path.join(build_dir(), "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            work, f"spans-{args.workload}-{args.seed}.json")]
    if args.inject:
        cmd += ["--inject", args.inject]
    return bench(cmd, args.trace)


if __name__ == "__main__":
    sys.exit(main())
