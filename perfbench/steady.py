#!/usr/bin/env python3
"""Run one workload N times and report how steady its metrics are.

    python3 perfbench/steady.py --workload cpu-sharded-small --runs 10

Run i gets seed i (1..N) and the run length from BENCHMARK.json. For
every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) as a share of the
median, and that spread against the metric's bound in BENCHMARK.json:
a spread within a third of its bound is steady. It also checks that the
share of failed operations is the same in every run. It exits 1 unless
every metric is steady and the shares agree.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = set()
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {out.returncode})")
            return 1
        res = json.loads(lines[-1])
        shares.add(fractions.Fraction(res["failed"], res["attempted"]))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        for m in metrics:
            values[m["name"]].append(res["metrics"][m["name"]]["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    steady = True
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m["bound"]
        ok = spread <= bound / 3
        steady = steady and ok
        print(f"{m['name']:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{bound:>6}  {'steady' if ok else 'NOT steady'}")
    print("failed share: " + ("the same in every run" if len(shares) == 1 else f"DIFFERS: {shares}"))
    return 0 if steady and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
