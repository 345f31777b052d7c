#!/usr/bin/env python3
"""Self-check of the benchmark: deterministic counts repeat exactly.

    python3 cecbench/check_counts.py [--seed N]

Runs the traced benchmark twice with one seed on mul_single and
batch_unique and asserts that every count below reads the same in both
runs. These counts come from the decomposed certification chain, which runs
on one thread without the lemma cache, so any difference is a determinism
bug in the program or in the benchmark. Also checks that every per-layer
metric the run prints is declared in BENCHMARK.json with the same unit, and
labelled there as a count or a time (see README.md). Exits non-zero on any
mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTS = (
    "sat.conflicts",
    "sat.propagations",
    "proof.resolutions",
    "proofio.cpf_bytes",
    "cnf.audit_matched_clauses",
    "cec.sat_calls",
    "cec.skipped_pairs",
    "cec.cex_refinements",
    "cec.structural_steps",
)
COUNT_UNITS = {"count", "bytes", "ratio"}
TIME_UNITS = {"s", "1/s", "MB/s"}


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload}: benchmark failed (exit {proc.returncode})\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    errors = []
    for name, unit in declared.items():
        if unit not in COUNT_UNITS | TIME_UNITS:
            errors.append(f"{name}: unit {unit} is neither a count nor a time")

    for workload in ("mul_single", "batch_unique"):
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        for run in (first, second):
            if not run["correct"] or run["failed"] != 0:
                errors.append(f"{workload}: run not correct")
            for name, metric in run["metrics"].items():
                if declared.get(name) != metric["unit"]:
                    errors.append(f"{workload}: {name} undeclared or unit "
                                  f"{metric['unit']} differs")
            missing = set(declared) - set(run["metrics"])
            if missing:
                errors.append(f"{workload}: missing {sorted(missing)}")
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "MISMATCH"
            print(f"{workload:13s} {name:28s} {a:>16.0f} {b:>16.0f} {status}")
            if a != b:
                errors.append(f"{workload}: {name} {a} != {b}")

    for error in errors:
        print("FAIL", error, file=sys.stderr)
    print("check_counts:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
