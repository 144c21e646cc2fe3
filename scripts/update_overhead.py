#!/usr/bin/env python3
"""Time one cheap update through the driver and through the engine alone.

    python3 scripts/update_overhead.py [--seed 3]

Every query variant is loaded at epsilon 0.5 with the first database of
the count-churn benchmark workload for the seed (`bench/workloads.py`),
and the first 500 updates of its stream go through `Driver.on_update`.
Then 2000 insert/delete pairs of one fresh R tuple, whose values lie outside
the workload's domain so that the update walks nothing, are timed twice:
through `Driver.on_update`, and through `engine.apply_update` with the
part label routed once beforehand, the two paths taking turns. Per
variant it prints the best of 7 repeats, in microseconds per update, for
both paths and their gap, which is the driver's per-update bookkeeping.
Nothing is written.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing written under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, generate_database  # noqa: E402  (also puts src/ on the path)

from trimaint.driver import Driver, make_engine  # noqa: E402

VARIANTS = [("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)]
REPEATS = 7
WARM = 500  # stream updates applied before timing
PAIRS = 2000  # insert/delete pairs per repeat


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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    w = WORKLOADS["count-churn"]
    inp = generate_database(w, args.seed, 0)
    fresh = (w.domain, w.domain + 1)
    print(f"count-churn seed {args.seed}, database 0 after {WARM} updates, "
          f"eps {w.epsilon}; us per update, best of {REPEATS}")
    print(f"  {'variant':10} {'on_update':>10} {'apply_update':>13} {'gap':>7}")
    for query, double in VARIANTS:
        eng = make_engine(query, w.epsilon, double=double, rd=inp.preload["R"],
                          sd=inp.preload["S"], td=inp.preload["T"])
        drv = Driver(eng)
        for upd in inp.stream[:WARM]:
            drv.on_update(*upd)
        if eng.db_size() + 1 >= eng.threshold.N:
            # the timed insert would double N and rebuild
            ap.error(f"{query}: after {WARM} updates at seed {args.seed}, |D| + 1 "
                     f"reaches N, so the timed insert would rebuild; use another seed")
        rebalanced = drv.majors + drv.minors
        label = eng.parts["R"].affected_label(fresh, eng.epsilon)

        def on_update(key, m):
            drv.on_update("R", key, m)

        def apply_update(key, m):
            eng.apply_update("R", label, key, m)

        via_driver, via_engine = best_us((on_update, apply_update), fresh)
        if drv.majors + drv.minors != rebalanced:
            raise AssertionError(f"{query}: the timed updates rebalanced")
        name = query + (" double" if double else "")
        print(f"  {name:10} {via_driver:10.2f} {via_engine:13.2f} {via_driver - via_engine:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
