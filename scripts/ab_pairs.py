#!/usr/bin/env python3
"""Alternating A/B pairs of `bench/run.py` runs on two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload count-churn \
        --seed 5 --seconds 25 --pairs 10

Each pair runs `bench/run.py --trace 0` once in each checkout, the parent
first in even pairs and the change first in odd ones, and reads the last
line of each run's stdout (one JSON object). Per end-to-end metric of the
change's BENCHMARK.json it prints each side's median and quartiles, how
many pairs the change won (ties count for neither side), the parent's
interquartile range, whether a gain may be claimed, and the regression
verdict against the metric's `bound`, a fraction of the parent's median.

A gain may be claimed when the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the
parent's interquartile range. When that range is 0 (a metric that does
not spread, such as a byte count), the median must also be better by
more than the bound, so that a small steady step is not claimed.

The regression verdict is one of:

  worse       the change's median is worse than the parent's by more
              than the bound;
  unresolved  otherwise, the parent's interquartile range is wider than
              the bound, so the runs cannot show a regression of that
              size, unless every change run reads better than every
              parent run;
  ok          otherwise.

Nothing in either checkout is written. Exit status: 0 when every run was correct, 1 if any
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


def compare(parent_runs, change_runs, metrics):
    """Per metric of `metrics` (BENCHMARK.json's end-to-end entries, each
    with its name, `better` and `bound`): (parent quartiles, change
    quartiles, wins, claim, verdict), as the module docstring defines
    them."""
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        ps = [r[name] for r in parent_runs]
        cs = [r[name] for r in change_runs]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(ps, cs))
        pq, cq = quartiles(ps), quartiles(cs)
        iqr, limit = pq[2] - pq[0], bound * abs(pq[1])
        gain = sign * (cq[1] - pq[1])
        claim = wins >= 0.9 * len(ps) and gain > iqr and (iqr > 0 or gain > limit)
        if sign * (pq[1] - cq[1]) > limit:
            verdict = "worse"
        elif iqr > limit and not all(sign * (c - p) > 0 for p in ps for c in cs):
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[name] = (pq, cq, wins, claim, verdict)
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
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

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
          f"{'wins':>6} {'parent IQR':>11}  claim  regression")
    for name, (pq, cq, wins, claim, verdict) in compare(
            runs["parent"], runs["change"], metrics).items():
        fmt = " / ".join(f"{v:.4g}" for v in pq), " / ".join(f"{v:.4g}" for v in cq)
        print(f"  {name:24} {fmt[0]:>32} {fmt[1]:>32} {wins:>3}/{n:<2} "
              f"{pq[2] - pq[0]:>11.4g}  {'yes' if claim else 'no':5}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
