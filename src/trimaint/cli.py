"""Command line front end: stream runs, verification, benchmarks.

Subcommands: run, verify, bench, oumv, static. All heavy lifting lives
in the engine and driver modules; this file parses flags and files,
feeds streams, and writes metrics rows as CSV. Wall-clock time is the
last CSV column and is never part of any assertion.
"""

import argparse
import csv
import sys
import time
from dataclasses import dataclass, fields, replace

from trimaint.driver import Driver, make_engine
from trimaint.oracle import DimensionMismatch, RefMaintainer
from trimaint.store import RejectedDelete
from trimaint.ternary import TernaryEngine
from trimaint.workload import (
    ParseError,
    WorkloadSpec,
    brief,
    parse_matrix,
    parse_stream,
    parse_vectors,
    stream,
)

K_OF = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}


class InputError(Exception):
    """A flag value or file content the command line refuses (exit 2)."""


@dataclass
class MetricsRow:
    query: str
    epsilon: float
    db_size: int
    updates: int
    rejected: int
    total: int
    apply: int
    major: int
    minor: int
    max_update: int
    max_delay: int
    wall_s: float

    def row(self):
        out = [getattr(self, name) for name in CSV_HEADER[:-1]]
        out[1] = f"{self.epsilon:g}"
        out.append(f"{self.wall_s:.3f}")
        return out


CSV_HEADER = tuple(f.name for f in fields(MetricsRow))


def run_stream(query, epsilon, updates, double=False):
    """Feed updates through a fresh driver; overdeletes are skipped."""
    drv = Driver(make_engine(query, epsilon, double=double))
    rejected = 0
    max_update = 0
    for rel, key, m in updates:
        try:
            costs = drv.on_update(rel, key, m)
        except RejectedDelete:
            rejected += 1
            continue
        if costs["total"] > max_update:
            max_update = costs["total"]
    return drv, rejected, max_update


def measure_delay(eng):
    """Max metered ops between consecutive emissions, ends included."""
    meter = eng.meter
    prev = meter.total
    if not hasattr(eng, "enumerate_result"):
        eng.query_result()
        return meter.total - prev
    mx = 0
    for _ in eng.enumerate_result():
        mx = max(mx, meter.total - prev)
        prev = meter.total
    return max(mx, meter.total - prev)


def metrics_row(query, drv, rejected, max_update, max_delay, wall_s):
    snap = drv.meter.snapshot()
    return MetricsRow(
        query=query,
        epsilon=drv.engine.epsilon,
        db_size=drv.engine.db_size(),
        updates=drv.updates,
        rejected=rejected,
        total=snap["total"],
        apply=snap["apply"],
        major=snap["major"],
        minor=snap["minor"],
        max_update=max_update,
        max_delay=max_delay,
        wall_s=wall_s,
    )


def verify_stream(query, epsilon, updates, double=False, cadence=0):
    """Replay updates into engine and reference; compare on a cadence.

    cadence 0 means automatic: every update while the database holds at
    most 200 tuples, every 50th update beyond that. Returns (ok, index
    of first detected divergence or None, driver). The index is that of
    the update in `updates`; a divergence the end-of-stream check finds is
    reported at the last applied update.
    """
    drv = Driver(make_engine(query, epsilon, double=double))
    ref = RefMaintainer(K_OF[query])
    applied = last = 0
    for i, (rel, key, m) in enumerate(updates):
        try:
            drv.on_update(rel, key, m)
        except RejectedDelete:
            continue
        ref.apply(rel, key, m)
        applied += 1
        last = i
        step = cadence if cadence else (1 if ref.db_size() <= 200 else 50)
        if applied % step == 0 and drv.engine.query_result() != ref.result():
            return False, i, drv
    if drv.engine.query_result() != ref.result():
        return False, last, drv
    return True, None, drv


def bench_sweep(query, epsilons, sizes, base_spec, double=False):
    """One fresh insert run per (epsilon, n) cell, in key order."""
    rows = []
    for eps in epsilons:
        for n in sizes:
            spec = replace(base_spec, updates=n)
            t0 = time.monotonic()
            drv, rejected, max_update = run_stream(query, eps, stream(spec), double)
            delay = measure_delay(drv.engine)
            wall = time.monotonic() - t0
            rows.append(metrics_row(query, drv, rejected, max_update, delay, wall))
    return rows


def solve_oumv(matrix, rounds, epsilon=0.5):
    """Answer u^T M v rounds through the nullary count maintenance.

    M lives in S over values 1..n; each round rewrites the R row and T
    column attached to the constant a = 0 by issuing only the deltas
    that change a bit, then reads the sign of the count.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"matrix is not {n}x{n}")
    drv = Driver(make_engine("d0", epsilon))
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                drv.on_update("S", (i + 1, j + 1), 1)
    cur_u = [0] * n
    cur_v = [0] * n
    bits = []
    for u, v in rounds:
        if len(u) != n or len(v) != n:
            raise DimensionMismatch(f"vector length vs n={n}")
        for i in range(n):
            if u[i] != cur_u[i]:
                drv.on_update("R", (0, i + 1), u[i] - cur_u[i])
                cur_u[i] = u[i]
        for j in range(n):
            if v[j] != cur_v[j]:
                drv.on_update("T", (j + 1, 0), v[j] - cur_v[j])
                cur_v[j] = v[j]
        bits.append(1 if drv.engine.query_result() > 0 else 0)
    return bits, drv


def static_ternary(rd, sd, td, pre_classified=False):
    """Compute the full ternary result by inserting into an empty state.

    Plain mode drives every insert through on_update at epsilon 1/2.
    Pre-classified mode builds the state for the whole database at once
    (`from_database`: N from the final size, each tuple in the part its
    final degree dictates), and therefore never spends a rebalancing tick.
    """
    if pre_classified:
        return Driver(TernaryEngine.from_database(rd, sd, td, 0.5))
    drv = Driver(make_engine("d3", 0.5))
    for rel, d in (("R", rd), ("S", sd), ("T", td)):
        for key, m in d.items():
            drv.on_update(rel, key, m)
    return drv


# -- command plumbing -----------------------------------------------------


def write_rows(rows, path):
    def emit(fh):
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(r.row())

    if path:
        with open(path, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


def dump_result(eng, out=None):
    out = out if out is not None else sys.stdout
    res = eng.query_result()
    if isinstance(res, int):
        print(res, file=out)
        return
    for key in sorted(res):
        print(" ".join(str(v) for v in key + (res[key],)), file=out)


def check_epsilon(eps):
    if not 0.0 <= eps <= 1.0:
        raise InputError(f"--epsilon must be in [0, 1], got {eps:g}")
    return eps


def check_double(args):
    if args.double_partition and args.query != "d0":
        raise InputError("--double-partition applies to --query d0 only")


def workload_spec(args, updates):
    """WorkloadSpec from the generator flags, refusing bad values."""
    try:
        return WorkloadSpec(
            seed=args.seed,
            domain=args.domain,
            updates=updates,
            delete_frac=args.delete_frac,
            skew=args.skew,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_list(text, kind, flag):
    """Comma list of numbers, as bench takes for a grid axis."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} must be a comma list of numbers, got {text!r}") from None


def parse_file(path, parse, *args):
    """`parse` run on the lines of the file at `path`; a parse error, or
    a byte the file's text encoding cannot decode, names the file."""
    with open(path) as fh:
        try:
            return parse(fh, *args)
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: byte {exc.start} is not {exc.encoding} text") from None


def load_updates(args):
    if args.stream:
        return parse_file(args.stream, parse_stream)
    return list(stream(workload_spec(args, args.updates)))


def load_database(path):
    updates = parse_file(path, parse_stream)
    rels = {"R": {}, "S": {}, "T": {}}
    for rel, key, m in updates:
        d = rels[rel]
        new = d.get(key, 0) + m
        if new < 0:
            raise InputError(f"{path}: database deletes below zero at {rel}"
                             f"({brief(str(key[0]), str)}, {brief(str(key[1]), str)})")
        if new == 0:
            d.pop(key, None)
        else:
            d[key] = new
    return rels["R"], rels["S"], rels["T"]


def cmd_run(args):
    check_epsilon(args.epsilon)
    check_double(args)
    updates = load_updates(args)
    t0 = time.monotonic()
    drv, rejected, max_update = run_stream(
        args.query, args.epsilon, updates, args.double_partition
    )
    delay = measure_delay(drv.engine)
    wall = time.monotonic() - t0
    dump_result(drv.engine)
    if rejected:
        print(f"warning: {rejected} deletes rejected", file=sys.stderr)
    if args.out:
        write_rows(
            [metrics_row(args.query, drv, rejected, max_update, delay, wall)],
            args.out,
        )
    return 0


def cmd_verify(args):
    check_epsilon(args.epsilon)
    check_double(args)
    if args.verify_cadence < 0:
        raise InputError(f"--verify-cadence must be nonnegative, got {args.verify_cadence}")
    updates = load_updates(args)
    ok, bad, _ = verify_stream(
        args.query, args.epsilon, updates, args.double_partition, args.verify_cadence
    )
    if ok:
        print(f"PASS {args.query} eps={args.epsilon:g} updates={len(updates)}")
        return 0
    print(f"FAIL {args.query} eps={args.epsilon:g} first divergence at update {bad}")
    return 1


def cmd_bench(args):
    check_double(args)
    epsilons = [check_epsilon(eps) for eps in parse_list(args.epsilon, float, "--epsilon")]
    sizes = parse_list(args.updates, int, "--updates")
    if min(sizes) < 0:
        raise InputError(f"--updates must be nonnegative, got {args.updates}")
    spec = workload_spec(args, 1)
    rows = bench_sweep(args.query, epsilons, sizes, spec, args.double_partition)
    write_rows(rows, args.out)
    return 0


def cmd_oumv(args):
    check_epsilon(args.epsilon)
    matrix = parse_file(args.matrix, parse_matrix)
    rounds = parse_file(args.vectors, parse_vectors, len(matrix))
    t0 = time.monotonic()
    bits, drv = solve_oumv(matrix, rounds, args.epsilon)
    wall = time.monotonic() - t0
    for bit in bits:
        print(bit)
    if args.out:
        write_rows([metrics_row("d0", drv, 0, 0, 0, wall)], args.out)
    return 0


def cmd_static(args):
    rd, sd, td = load_database(args.database)
    t0 = time.monotonic()
    drv = static_ternary(rd, sd, td, args.pre_classified)
    delay = measure_delay(drv.engine)
    wall = time.monotonic() - t0
    dump_result(drv.engine)
    if args.out:
        write_rows([metrics_row("d3", drv, 0, 0, delay, wall)], args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="trimaint",
        description="incremental triangle query maintenance",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--query", choices=sorted(K_OF), default="d0")
        sp.add_argument("--double-partition", action="store_true")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--domain", type=int, default=16)
        sp.add_argument("--delete-frac", type=float, default=0.0)
        sp.add_argument("--skew", default="uniform")
        sp.add_argument("--out")

    sp = sub.add_parser("run", help="apply a stream and print the result")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--updates", type=int, default=1000)
    sp.add_argument("--stream")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("verify", help="replay against the reference")
    common(sp)
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--updates", type=int, default=1000)
    sp.add_argument("--stream")
    sp.add_argument("--verify-cadence", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="epsilon/size sweep to CSV")
    common(sp)
    # bench takes comma lists so one call sweeps a grid
    sp.add_argument("--epsilon", default="0.5")
    sp.add_argument("--updates", default="1024")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("oumv", help="online matrix-vector rounds")
    sp.add_argument("matrix")
    sp.add_argument("vectors")
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_oumv)

    sp = sub.add_parser("static", help="full ternary result via inserts")
    sp.add_argument("database")
    sp.add_argument("--pre-classified", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_static)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # values of any length: CPython caps int <-> str conversion at 4300
    # digits by default (since 3.11 and 3.10.7), for parsing and for
    # printing the result alike; lifted while the command runs
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (DimensionMismatch, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
