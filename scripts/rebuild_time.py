#!/usr/bin/env python3
"""Time the init path and a major: a build, a rebuild and a doubling.

    python3 scripts/rebuild_time.py [--seed 3]

Every query variant is loaded at epsilon 0.5 with the first database of
the count-churn benchmark workload for the seed (`bench/workloads.py`),
7000 tuples. Per variant it prints the min and the median, in
microseconds, over REPEATS rounds of three steps timed in turns, so
drift hits them alike: a build through `make_engine`; a rebuild of the
built state at its own N (`rebuild`, the init path that a major falls
back to); and a major at 2N through `Driver`, which rebases theta and
moves only the values whose strict class changes. Nothing is written.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing written under bench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, generate_database  # noqa: E402  (also puts src/ on the path)

from trimaint.driver import Driver, make_engine  # noqa: E402

VARIANTS = [("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)]
REPEATS = 15


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    w = WORKLOADS["count-churn"]
    db = generate_database(w, args.seed, 0).preload
    print(f"count-churn seed {args.seed}, database 0 ({sum(map(len, db.values()))} tuples), "
          f"eps {w.epsilon}; us over {REPEATS} repeats")
    print(f"  {'variant':10} {'build min':>10} {'median':>9} {'rebuild min':>12} {'median':>9}"
          f" {'major 2N min':>13} {'median':>9}")
    for query, double in VARIANTS:
        builds, rebuilds, majors = [], [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            eng = make_engine(query, w.epsilon, double=double, rd=db["R"], sd=db["S"],
                              td=db["T"])
            t1 = time.perf_counter()
            eng.rebuild(eng.rel_items(), eng.threshold.N)
            t2 = time.perf_counter()
            Driver(eng)._major(2 * eng.threshold.N)
            t3 = time.perf_counter()
            builds.append(t1 - t0)
            rebuilds.append(t2 - t1)
            majors.append(t3 - t2)
        name = query + (" double" if double else "")
        cols = [f"{1e6 * min(ts):{width}.0f} {1e6 * statistics.median(ts):9.0f}"
                for width, ts in ((10, builds), (12, rebuilds), (13, majors))]
        print(f"  {name:10} " + " ".join(cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
