#!/usr/bin/env python3
"""Bytes per live tuple of every query variant's state, by structure.

    python3 scripts/state_bytes.py --workload pairs-read-write --seed 8

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
on the CPython version alone. `bench/workloads.py` is imported, nothing
under bench/ is written, and the library is the one beside it in this
checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from sys import getsizeof

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (also puts this checkout's src/ on sys.path)
from trimaint.driver import ENGINES, Driver, make_engine  # noqa: E402
from trimaint.store import Relation  # noqa: E402

ROWS = ("entries", "list slices", "dict slices", "slice maps", "marks",
        "linked lists", "linked nodes", "totals maps", "key tuples")


def after_stream(w, inp, query, double):
    """Engine of the variant on the database `inp` after its whole stream."""
    eng = make_engine(query, w.epsilon, double=double, rd=inp.preload["R"],
                      sd=inp.preload["S"], td=inp.preload["T"])
    drv = Driver(eng)
    for upd in inp.stream:
        drv.on_update(*upd)
    return eng


def measure(eng):
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    inp = workloads.generate_database(w, args.seed, 0)
    tuples = sum(map(len, inp.final.values()))

    cols = {}
    for query, double in ENGINES:
        eng = after_stream(w, inp, query, double)
        if eng.db_size() != tuples:
            raise RuntimeError(f"{query}: {eng.db_size()} live tuples, the stream leaves {tuples}")
        cols[query + " double" * double] = measure(eng)

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


if __name__ == "__main__":
    sys.exit(main())
