#!/usr/bin/env python3
"""Enumeration cost of d1, d2 and d3 on a benchmark workload's databases.

    python3 scripts/enum_ops.py --workload pairs-read-write --seed 8

Each database of the workload's round is built from its preload and
brought to its first read point by the driver, once per query at the
workload's epsilon. One full enumeration then gives the metered ops and
the pair-slice walks per emitted tuple, and a second one
`cli.measure_delay`'s max delay. d1 and d2 walk a pair slice per call of
the slices-map getter a pair tree's rule binds (`fragments._pair_rule`),
which is counted; d3 walks one per top entry its enumeration steps, so a
full pass makes one per entry of its tops. Figures are summed over the
databases (the delay is their max) and depend on the seed alone.
`bench/workloads.py` is imported, nothing under bench/ is written, and
the library is the one beside it in this checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (also puts this checkout's src/ on sys.path)
from trimaint import fragments  # noqa: E402
from trimaint.cli import measure_delay  # noqa: E402
from trimaint.driver import Driver, make_engine  # noqa: E402
from trimaint.store import RejectedDelete  # noqa: E402

QUERIES = ("d1", "d2", "d3")


def first_read(w, inp, query):
    """Engine of `query` on the database `inp` at its first read point."""
    eng = make_engine(query, w.epsilon, rd=inp.preload["R"], sd=inp.preload["S"],
                      td=inp.preload["T"])
    drv = Driver(eng)
    for upd in inp.stream[:inp.reads[0]]:
        try:
            drv.on_update(*upd)
        except RejectedDelete:
            pass
    return eng


def measure(eng, walked):
    """(tuples, ops, pair-slice walks, max delay) of enumerating eng."""
    pairs = {t.pair for t in eng.trees if t.pair}
    walked.clear()
    before = eng.meter.total
    tuples = sum(1 for _ in eng.enumerate_result())
    ops = eng.meter.total - before
    walks = sum(walked.get(name, 0) for name in pairs)
    if eng.query == "d3":
        walks += sum(len(getattr(eng, t.top)) for t in eng.trees)
    return tuples, ops, walks, measure_delay(eng)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    walked = {}
    pair_rule = fragments._pair_rule

    def counting(eng, get, entries, *args):
        name = next(t.pair for t in eng.trees if t.pair and getattr(eng, t.pair).entries is entries)

        def counted_get(sub):
            walked[name] = walked.get(name, 0) + 1
            return get(sub)
        return pair_rule(eng, counted_get, entries, *args)

    fragments._pair_rule = counting
    try:
        totals = {q: [0, 0, 0, 0] for q in QUERIES}
        inputs = workloads.generate(w, args.seed)
        for inp in inputs:
            for q in QUERIES:
                tuples, ops, walks, delay = measure(first_read(w, inp, q), walked)
                tot = totals[q]
                tot[0] += tuples
                tot[1] += ops
                tot[2] += walks
                tot[3] = max(tot[3], delay)
    finally:
        fragments._pair_rule = pair_rule

    print(f"{w.name}, seed {args.seed}, epsilon {w.epsilon:g}, {w.databases} database(s) "
          f"at update {inputs[0].reads[0]}")
    print(f"  {'query':5} {'tuples':>8} {'ops/tuple':>10} {'walks/tuple':>12} {'max delay':>10}")
    for q, (tuples, ops, walks, delay) in totals.items():
        per = tuples or 1
        print(f"  {q:5} {tuples:>8} {ops / per:>10.2f} {walks / per:>12.2f} {delay:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
