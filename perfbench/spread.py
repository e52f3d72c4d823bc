#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every metric: the median of its values over the runs and the
distance between their first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of that median -- the
steadiness figure each end-to-end bound in BENCHMARK.json is held to.

    python3 perfbench/spread.py --workload energy-4k --runs 10 [--first-seed 1] [--trace 0]

Run from the root of the repository. Every run's own output goes to
stderr; the table goes to stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output check failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{args.workload} (trace {args.trace}), {args.runs} seeds from {args.first_seed}")
    print(f"{'metric':<30} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<30} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
