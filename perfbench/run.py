#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) from a checkout.

Usage, from the repository root:

    python3 perfbench/run.py --workload vacation|tpcc|kv_open \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # derivation tests only

The first call configures and builds perfbench/ (which compiles the library
from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only re-check the build. Build output goes to stderr, so stdout
carries only the benchmark's report, whose last line is the JSON result.
Traced runs (--trace 1) write their spans and registry frames to
<build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("vacation", "tpcc", "kv_open")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the metric-derivation tests")
    args = ap.parse_args()

    if args.test:
        exe = build("perfbench_derive_test")
        if exe is None:
            print("perfbench: build failed", file=sys.stderr)
            return 3
        return subprocess.run([exe]).returncode

    if args.workload is None:
        ap.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build("perfbench")
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
