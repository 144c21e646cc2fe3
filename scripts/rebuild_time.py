#!/usr/bin/env python3
"""Time the init path: one build of a database and one forced major.

    python3 scripts/rebuild_time.py [--seed 3]

Every query variant is loaded at epsilon 0.5 with the first database of
the count-churn benchmark workload for the seed (`bench/workloads.py`),
7000 tuples. Per variant it prints the min and the median, in
microseconds, of REPEATS builds through `make_engine`, and of REPEATS
forced majors: a rebuild of the built state at its own N through
`Driver`, the path a doubling or halving takes. The two are timed in
turns, so drift hits them alike. Nothing is written.
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
    print(f"  {'variant':10} {'build min':>10} {'median':>9} {'major min':>10} {'median':>9}")
    for query, double in VARIANTS:
        builds, majors = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            eng = make_engine(query, w.epsilon, double=double, rd=db["R"], sd=db["S"],
                              td=db["T"])
            t1 = time.perf_counter()
            Driver(eng)._major(eng.threshold.N)
            t2 = time.perf_counter()
            builds.append(t1 - t0)
            majors.append(t2 - t1)
        name = query + (" double" if double else "")
        cols = [f"{1e6 * min(ts):10.0f} {1e6 * statistics.median(ts):9.0f}"
                for ts in (builds, majors)]
        print(f"  {name:10} " + " ".join(cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
