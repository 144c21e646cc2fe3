#!/usr/bin/env python3
"""Alternating A/B pairs of `bench/run.py` runs on two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload count-churn \
        --seed 5 --seconds 25 --pairs 10

Each pair runs `bench/run.py --trace 0` once in each checkout, the parent
first in even pairs and the change first in odd ones, and reads the last
line of each run's stdout (one JSON object). Per end-to-end metric of the
change's BENCHMARK.json it prints each side's median and quartiles, how
many pairs the change won (ties count for neither side), the parent's
interquartile range, and whether a gain may be claimed: the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. Nothing in either
checkout is written. Exit status: 0 when every run was correct, 1 if any
run failed or printed no result, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10


def run_once(checkout, workload, seed, seconds):
    """Metrics of one run, or None when it failed or printed no result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not res.get("correct"):
        return None
    return {name: m["value"] for name, m in res["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent_runs, change_runs, better):
    """Per metric: (parent quartiles, change quartiles, wins, claim)."""
    out = {}
    for name, direction in better.items():
        ps = [r[name] for r in parent_runs]
        cs = [r[name] for r in change_runs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        claim = wins >= 0.9 * len(ps) and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        out[name] = (pq, cq, wins, claim)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length of every run")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    for checkout in (args.parent, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            ap.error(f"{checkout}: no bench/run.py")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            res = run_once(checkout, args.workload, args.seed, args.seconds)
            if res is None:
                print(f"pair {i}: the {side} run failed", file=sys.stderr)
                return 1
            runs[side].append(res)
        print(f"pair {i} done ({order[0]} first)", file=sys.stderr)

    n = args.pairs
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {n} pairs")
    print(f"  {'metric':24} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
          f"{'wins':>6} {'parent IQR':>11}  claim")
    for name, (pq, cq, wins, claim) in compare(runs["parent"], runs["change"], better).items():
        fmt = " / ".join(f"{v:.4g}" for v in pq), " / ".join(f"{v:.4g}" for v in cq)
        print(f"  {name:24} {fmt[0]:>32} {fmt[1]:>32} {wins:>3}/{n:<2} "
              f"{pq[2] - pq[0]:>11.4g}  {'yes' if claim else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
