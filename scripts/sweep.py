#!/usr/bin/env python3
"""Cost sweep over all four queries on a seeded insert workload.

Writes one CSV row per (query, epsilon, size) cell; columns match the
`trimaint bench` output. Counter units only, wall-clock is advisory.
The query token `d0double` runs d0 on double partitions (`trimaint
bench --double-partition`) and labels its rows `d0double`.
"""

import argparse
import sys
from pathlib import Path

# the library of this checkout, never an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trimaint.cli import bench_sweep, write_rows  # noqa: E402
from trimaint.workload import WorkloadSpec  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1024,4096")
    ap.add_argument("--epsilons", default="0,0.25,0.5,0.75,1")
    ap.add_argument("--queries", default="d0,d0double,d1,d2,d3")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--domain", type=int, default=64)
    ap.add_argument("--skew", default="uniform")
    ap.add_argument("--out")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]
    epsilons = [float(tok) for tok in args.epsilons.split(",")]
    rows = []
    for token in args.queries.split(","):
        query, double = ("d0", True) if token == "d0double" else (token, False)
        spec = WorkloadSpec(
            seed=args.seed, domain=args.domain, updates=1, skew=args.skew
        )
        rows.extend([token, *row[1:]]
                    for row in bench_sweep(query, epsilons, sizes, spec, double=double))
    write_rows(rows, args.out)


if __name__ == "__main__":
    main()
