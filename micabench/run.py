#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see micabench.cc).

Run from the root of a source checkout:

    python3 micabench/run.py --workload sweep --seed 1 --seconds 45 \
        --trace 0

The first run configures and builds the harness, and with it the
repository's library, into .bench_build/micabench (Release); later runs
only re-check the build. Each run works in its own directory under
.bench_build, removed afterwards. The last stdout line is the harness's
JSON result: {"correct", "attempted", "failed", "metrics"}. Build or
run failures exit non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "micabench")
WORKLOADS = ("sweep", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("micabench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the root of a source checkout "
             "(no CMakeLists.txt or src/ here)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "micabench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    run_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
