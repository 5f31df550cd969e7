"""Steadiness mode: run one workload several times and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload four-panel --runs 10 --first-seed 1

Each run uses the next seed and BENCHMARK.json's run_seconds.  For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the metric's bound: a spread below a third of the bound is
steady, one below the bound is usable, anything wider is too noisy.  The
share of failed operations must be the same in every run.  This is how the
bounds in BENCHMARK.json were set; setup_s is reported but is gated only on
its median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']},"
              f" {result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for spec in bench["end_to_end"]:
        v = values[spec["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        bound = spec["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "usable" if spread < bound else "too noisy")
        print(f"{spec['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>8.2f}"
              f"  {verdict}")
    print(f"failed share per run: {sorted(set(shares))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
