#!/usr/bin/env python3
"""Enumeration delay, space and update time of the query variants.

    python3 scripts/costs.py delay --workload pairs-read-write --seed 8
    python3 scripts/costs.py space --workload pairs-read-write --seed 8
    python3 scripts/costs.py update [--seed 3]

These are the three costs the threshold N^epsilon trades against each
other; `costs.py SUBCOMMAND --help` says how each is measured. Every
subcommand builds query variants on a benchmark workload's database from
its preload and feeds a prefix of its stream through the driver
(`replay`).
`bench/workloads.py` is imported, nothing under bench/ is written, and
the library is the one beside it in this checkout.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path
from sys import getsizeof

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (also puts this checkout's src/ on sys.path)
from trimaint import fragments  # noqa: E402
from trimaint.cli import measure_delay  # noqa: E402
from trimaint.driver import ENGINES, Driver, make_engine  # noqa: E402
from trimaint.store import RejectedDelete, Relation  # noqa: E402

QUERIES = ("d1", "d2", "d3")
ROWS = ("entries", "list slices", "dict slices", "slice maps", "marks",
        "linked lists", "linked nodes", "totals maps", "key tuples")
REPEATS = 7
WARM = 500  # stream updates applied before timing
PAIRS = 2000  # insert/delete pairs per repeat


def replay(w, inp, query, n, double=False):
    """Driver of the variant on the database `inp` at the workload's
    epsilon after the first n updates of its stream, overdeletes skipped."""
    drv = Driver(make_engine(query, w.epsilon, double=double, rd=inp.preload["R"],
                             sd=inp.preload["S"], td=inp.preload["T"]))
    for upd in inp.stream[:n]:
        try:
            drv.on_update(*upd)
        except RejectedDelete:
            pass
    return drv


def enum_cost(eng, walked):
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


def delay(args):
    """Enumeration cost of d1, d2 and d3 on a benchmark workload's databases.

    Each database of the workload's round is built from its preload and
    brought to its first read point by the driver, once per query at the
    workload's epsilon. One full enumeration then gives the metered ops and
    the pair-slice walks per emitted tuple, and a second one
    `cli.measure_delay`'s max delay. d1 and d2 walk a pair slice per call of
    the slices-map getter a pair tree's rule binds (`fragments._pair_rule`),
    which is counted; d3 walks one per top entry its enumeration steps, so a
    full pass makes one per entry of its tops. Figures are summed over the
    databases (the delay is their max) and depend on the seed alone.
    """
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
                eng = replay(w, inp, q, inp.reads[0]).engine
                tuples, ops, walks, gap = enum_cost(eng, walked)
                tot = totals[q]
                tot[0] += tuples
                tot[1] += ops
                tot[2] += walks
                tot[3] = max(tot[3], gap)
    finally:
        fragments._pair_rule = pair_rule

    print(f"{w.name}, seed {args.seed}, epsilon {w.epsilon:g}, {w.databases} database(s) "
          f"at update {inputs[0].reads[0]}")
    print(f"  {'query':5} {'tuples':>8} {'ops/tuple':>10} {'walks/tuple':>12} {'max delay':>10}")
    for q, (tuples, ops, walks, gap) in totals.items():
        per = tuples or 1
        print(f"  {q:5} {tuples:>8} {ops / per:>10.2f} {walks / per:>12.2f} {gap:>10}")
    return 0


def state_bytes(eng):
    """Bytes by row of ROWS, and (list, dict) hash slice counts."""
    rels = [r for p in eng.parts.values() for r in p.parts.values()]
    rels += [v for v in map(eng.__getattribute__, eng.view_names) if isinstance(v, Relation)]
    out = dict.fromkeys(ROWS, 0)
    kinds = {list: 0, dict: 0}
    keys = {}  # id -> tuple, so that a shared tuple counts once
    for r in rels:
        out["entries"] += getsizeof(r.entries)
        for key in r.entries:
            keys[id(key)] = key
        out["marks"] += getsizeof(r._map_hwm)
        for _, slices, marks, nodes, _ in r._indexes:
            out["slice maps"] += getsizeof(slices)
            for sub in slices:
                if isinstance(sub, tuple):
                    keys[id(sub)] = sub
            out["marks"] += getsizeof(marks)
            if nodes is None:
                for s in slices.values():
                    kinds[type(s)] += 1
                    out["list slices" if type(s) is list else "dict slices"] += getsizeof(s)
            else:
                out["linked lists"] += getsizeof(nodes) + sum(map(getsizeof, slices.values()))
                out["linked nodes"] += sum(map(getsizeof, nodes.values()))
    for p in eng.parts.values():
        if p.totals is not None:
            out["totals maps"] += getsizeof(p.totals)
            for key in p.totals:
                keys[id(key)] = key
    out["key tuples"] = sum(map(getsizeof, keys.values()))
    return out, kinds


def space(args):
    """Bytes per live tuple of every query variant's state, by structure.

    The workload's first database is built from its preload and taken
    through its whole update stream by the driver, once per query variant
    (d0, d0 double, d1, d2, d3) at the workload's epsilon. Then every part
    and view Relation of the engine is measured with `sys.getsizeof`, and
    each structure's bytes are divided by the database's live tuples:

      entries       the entries dicts (tuple -> multiplicity)
      list slices   hash slices held as lists (at most COMPACT_FLOOR tuples)
      dict slices   hash slices held as dicts
      slice maps    each index's map from projection key to slice
      marks         each index's high-water marks of its dict slices, and
                    each Relation's list of its slices maps' marks
      linked lists  the linked indexes' per-key lists and their node maps
      linked nodes  the linked indexes' per-tuple nodes
      totals maps   each double partition's map from key to its total over
                    the parts (its keys are the parts' own tuples)
      key tuples    every distinct tuple object used as a key (stored tuples
                    and multi-column projection keys), each counted once

    The values inside the tuples and the multiplicities are not counted, nor
    are the Relation objects themselves. Every view except d0's count is a
    Relation, so every view is measured. The figures depend on the seed and
    on the CPython version alone.
    """
    w = workloads.WORKLOADS[args.workload]
    inp = workloads.generate_database(w, args.seed, 0)
    tuples = sum(map(len, inp.final.values()))

    cols = {}
    for query, double in ENGINES:
        eng = replay(w, inp, query, len(inp.stream), double).engine
        if eng.db_size() != tuples:
            raise RuntimeError(f"{query}: {eng.db_size()} live tuples, the stream leaves {tuples}")
        cols[query + " double" * double] = state_bytes(eng)

    print(f"{w.name}, seed {args.seed}, epsilon {w.epsilon:g}, first database after "
          f"{len(inp.stream)} updates: {tuples} live tuples; bytes per live tuple")
    print(f"  {'structure':13}" + "".join(f"{name:>10}" for name in cols))
    for row in ROWS:
        print(f"  {row:13}" + "".join(f"{b[row] / tuples:>10.1f}" for b, _ in cols.values()))
    print(f"  {'total':13}" + "".join(f"{sum(b.values()) / tuples:>10.1f}"
                                      for b, _ in cols.values()))
    print(f"  {'lists/dicts':13}" + "".join(f"{f'{k[list]}/{k[dict]}':>10}"
                                            for _, k in cols.values()))
    return 0


def best_us(paths, key):
    """Best of REPEATS, in us per update, of PAIRS insert/delete pairs
    through each path; the paths take turns, so drift hits them alike."""
    best = [float("inf")] * len(paths)
    for _ in range(REPEATS):
        for i, update in enumerate(paths):
            t0 = time.perf_counter()
            for _ in range(PAIRS):
                update(key, 1)
                update(key, -1)
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b / (2 * PAIRS) * 1e6 for b in best]


def update(args):
    """Time one cheap update through the driver and through the engine alone.

    Every query variant is loaded at epsilon 0.5 with the first database of
    the count-churn benchmark workload for the seed, and the first 500
    updates of its stream go through `Driver.on_update`. Then 2000
    insert/delete pairs of one fresh R tuple, whose values lie outside the
    workload's domain so that the update walks nothing, are timed twice:
    through `Driver.on_update`, and through `engine.apply_update` with the
    part label routed once beforehand, the two paths taking turns. Per
    variant it prints the best of 7 repeats, in microseconds per update, for
    both paths and their gap, which is the driver's per-update bookkeeping.
    """
    w = workloads.WORKLOADS["count-churn"]
    inp = workloads.generate_database(w, args.seed, 0)
    fresh = (w.domain, w.domain + 1)
    print(f"count-churn seed {args.seed}, database 0 after {WARM} updates, "
          f"eps {w.epsilon}; us per update, best of {REPEATS}")
    print(f"  {'variant':10} {'on_update':>10} {'apply_update':>13} {'gap':>7}")
    for query, double in ENGINES:
        drv = replay(w, inp, query, WARM, double)
        eng = drv.engine
        if eng.db_size() + 1 >= eng.threshold.N:
            # the timed insert would double N and rebuild
            args.error(f"{query}: after {WARM} updates at seed {args.seed}, |D| + 1 "
                       f"reaches N, so the timed insert would rebuild; use another seed")
        rebalanced = drv.majors + drv.minors
        label = eng.parts["R"].affected_label(fresh, eng.epsilon)
        via_driver, via_engine = best_us((lambda key, m: drv.on_update("R", key, m),
                                          lambda key, m: eng.apply_update("R", label, key, m)),
                                         fresh)
        if drv.majors + drv.minors != rebalanced:
            raise AssertionError(f"{query}: the timed updates rebalanced")
        name = query + (" double" if double else "")
        print(f"  {name:10} {via_driver:10.2f} {via_engine:13.2f} {via_driver - via_engine:7.2f}")
    return 0


def main(argv=None):
    raw = argparse.RawDescriptionHelpFormatter
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=raw)
    sub = ap.add_subparsers(dest="cost", required=True)
    for fn in (delay, space, update):
        doc = inspect.cleandoc(fn.__doc__)
        sp = sub.add_parser(fn.__name__, description=doc, formatter_class=raw,
                            help=doc.splitlines()[0])
        sp.set_defaults(fn=fn, error=sp.error)
        if fn is update:
            sp.add_argument("--seed", type=int, default=3)
        else:
            sp.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
            sp.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
