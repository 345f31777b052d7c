#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see cecbench/README.md).

    python3 cecbench/run.py --workload mul_single --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is compiled from ../src into
.bench_build/ (or $CARGO_TARGET_DIR) on first use; inputs, proofs and trace
files go to .bench_work/. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every job passed the correctness gate.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mul_single", "batch_shared", "batch_unique")
DEFAULT_SEED = 1


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "cecbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = os.path.join(ROOT, ".bench_work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "cecbench")
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"cecbench: build failed: {error}", file=sys.stderr)
        return 2

    sys.stdout.flush()
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", work],
        env=env, check=False)
    for inputs in glob.glob(os.path.join(work, "inputs-*")):
        shutil.rmtree(inputs, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
