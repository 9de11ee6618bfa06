"""Repeat one workload in fresh processes; print each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed (``first-seed`` …
``first-seed + runs - 1``) for ``BENCHMARK.json``'s ``run_seconds``,
one run after another, and prints for every end-to-end metric the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``), the spread ``(q3 - q1) / median`` and three times the spread
(the bound a metric needs for its spread to stay under a third of it),
beside the metric's bound.  This is how the bounds were set, and how a
later change re-measures the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import common


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile spread as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: Dict[str, List[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(common.HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=common.ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited with {proc.returncode}")
            return 1
        result = common.last_json_line(proc.stdout)
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
        ), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed/attempted "
          f"{sorted(shares)}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
          f" {'3x':>6s} {'bound':>6s}")
    for name, vs in values.items():
        row = spread(vs)
        note = "  (spread above bound/3)" if row["spread"] > bounds[name] / 3 else ""
        print(f"{name:28s} {row['median']:12.5g} {row['q1']:12.5g} "
              f"{row['q3']:12.5g} {row['spread']:8.3f} {3 * row['spread']:6.3f}"
              f" {bounds[name]:6.2f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
