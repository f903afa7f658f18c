#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py [--workload learn|rewrite|serve|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--serve-rate R]
    python3 perfbench/run.py --test

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the repository's
libraries and `dcb` from source) into .bench_build/ in Release mode; later
runs only rebuild what changed. Build output goes to stderr.

One workload prints its report and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. `--workload all` (the default) runs every workload in turn and
ends with a summary object. The exit code is non-zero when the build fails
or any output check fails. `--test` runs the benchmark's own generator
tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["learn", "rewrite", "serve", "cli"]
# Phase 1 of the serve workload offers this many requests per second, about
# half of the max_rps measured on a 4-core machine when the benchmark was
# defined. BENCHMARK.json passes it explicitly, so the value is frozen there.
DEFAULT_SERVE_RATE = 750
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("run.py: no repository sources here (src/CMakeLists.txt missing)")
        return False
    cmake_dir = os.path.join(build_root(), "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", cmake_dir, "-j", "4", "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def expected_metrics(name, trace):
    """The metric names BENCHMARK.json expects from workload `name`, or None
    when it does not gate that workload (serve and cli report p50_ms where
    the gated learn and rewrite report p5_ms)."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    if not trace and name not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args):
    cmake_dir = os.path.join(build_root(), "cmake")
    work = os.path.join(build_root(), "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(cmake_dir, "perfbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dcb", os.path.join(cmake_dir, "dcb", "tools", "dcb"),
           "--work", work, "--serve-rate", str(args.serve_rate)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"run.py: {name} printed no result (exit {proc.returncode})")
        sys.stdout.write(proc.stdout)
        return None, proc.returncode or 1
    want = expected_metrics(name, args.trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"run.py: {name} metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        return None, 1
    if args.trace:
        log(f"run.py: span trace in {os.path.join(work, 'trace.json')}")
    return proc.stdout, proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--serve-rate", type=float, default=DEFAULT_SERVE_RATE)
    p.add_argument("--test", action="store_true",
                   help="build and run the generator tests")
    args = p.parse_args()

    if args.test:
        if not build(["perfbench_gen_test"]):
            return 1
        return subprocess.run([os.path.join(build_root(), "cmake",
                                            "perfbench_gen_test")]).returncode
    if not build(["perfbench", "dcb"]):
        log("run.py: build failed")
        return 1

    if args.workload != "all":
        out, code = run_workload(args.workload, args)
        if out is None:
            return code
        sys.stdout.write(out)
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        out, code = run_workload(name, args)
        if out is None:
            return code
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
        worst = worst or code
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
