#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, spread against bounds.

  python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the repository root. For every workload in BENCHMARK.json, runs
the benchmark --runs times with seeds 1..N (set A), then N times with seeds
N+1..2N (set B). For every end-to-end metric it prints, per set, the median
and the spread (interquartile range over median, statistics.quantiles with
n=4), the drift of set B's median against set A's in the metric's "worse"
direction, and the metric's bound. A metric is steady when both spreads
and the drift stay within its bound, setup_s included; the failed-operation
share must be identical in both sets. Exits 1 if anything is unsteady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for first_seed in (1, args.runs + 1):
            results = [run_once(workload, seed, args.seconds)
                       for seed in range(first_seed, first_seed + args.runs)]
            sets.append(results)
        shares = [sorted({r["failed"] / r["attempted"] for r in s})
                  for s in sets]
        print(f"\n{workload}: failed share A={shares[0]} B={shares[1]}")
        if len(shares[0]) != 1 or shares[0] != shares[1]:
            steady = False
        if not all(r["correct"] for s in sets for r in s):
            print("  a run reported correct=false")
            steady = False
        print(f"  {'metric':22} {'median A':>12} {'spread A':>9} "
              f"{'median B':>12} {'spread B':>9} {'drift':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            drift = (mb - ma) / ma
            if m["better"] == "higher":
                drift = -drift
            ok = drift <= bound and sa <= bound and sb <= bound
            steady = steady and ok
            print(f"  {name:22} {ma:12.4f} {sa:9.4f} {mb:12.4f} {sb:9.4f} "
                  f"{drift:7.3f} {bound:6.2f} {'' if ok else 'UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
