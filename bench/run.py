#!/usr/bin/env python3
"""Benchmark of trimaint: update latency, enumeration delay and rebuild cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn. The client is one closed
loop in one thread: `make_engine` builds the workload's preloaded database,
`Driver.on_update` applies the stream, and at the workload's read points a
read pass runs (`enumerate_result`, or `query_result` for the d0 count),
each call starting only when the previous one has returned. A round runs
each of the workload's databases (one, or a few independent ones) in turn:
one build plus the whole stream on a fresh engine. Rounds repeat until
`--seconds` have passed and at least three have run. Every round does the
same work, so its deterministic counts (metered ops per phase, majors,
minors, result digests, and with `--trace 1` the calls and ops of every
traced function) must repeat exactly, and each timed operation has one
repeat per round; the timed metrics take the best of each operation's
repeats (see end_to_end).

Outside the timed calls, every read pass is checked against a
`RefMaintainer` replay and each database's final result against
`oracle_triangle`.
A rejected or raising update, a pass that differs from the reference or
emits a key twice, and a round whose counts differ from the first are
failures.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one untraced
round, then traced rounds (see tracer.py), and prints the per-layer
metrics. Metric names and units come from BENCHMARK.json. The last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
Exit status: 0 when correct, 1 on any failure, 2 on a usage error.
"""

from __future__ import annotations

import _src  # first: puts the checkout's src/ on sys.path

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

from trimaint.driver import Driver, make_engine
from trimaint.oracle import RefMaintainer, oracle_triangle
from trimaint.store import CostMeter, RejectedDelete, Relation
from trimaint.workload import RELS

from tracer import CALLS, CHILD_NS, NS, OPS, OUT, Tracer, merge
from workloads import WORKLOADS, generate

SPEC_PATH = _src.ROOT / "BENCHMARK.json"
MIN_ROUNDS = 3  # the fewest repeats a per-operation best is taken over
MIN_TRACED = 2  # the fewest traced rounds, so their counts can be compared
FREE_VARS = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}
ENGINE = {"d0": "nullary", "d1": "unary", "d2": "binary", "d3": "ternary"}

clock = time.perf_counter_ns


def digest(obj):
    return hashlib.blake2b(repr(obj).encode(), digest_size=12).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, -(-q * len(s) // 100) - 1))]


@dataclass
class Round:
    """Timings and deterministic counts of one round."""

    builds: list = field(default_factory=list)  # ns per make_engine build
    lat: list = field(default_factory=list)  # ns per accepted on_update
    rejected: int = 0
    build_ops: Counter = field(default_factory=Counter)  # meter snapshots after the builds
    stream_ops: Counter = field(default_factory=Counter)  # ops inside on_update, by phase
    # per read pass: (tuples emitted, ns gaps between emissions with the
    # gap before the first and after the last included)
    passes: list = field(default_factory=list)
    # per read pass: (database, stream position); passes with one key read
    # the same state
    positions: list = field(default_factory=list)
    outs: list = field(default_factory=list)  # per pass: what it emitted
    results: list = field(default_factory=list)  # per pass: order-free result digest
    orders: list = field(default_factory=list)  # per pass: emission-order digest
    duplicates: int = 0  # passes that emitted some key twice
    majors: int = 0
    minors: int = 0
    view_tuples: int = 0
    rows: dict | None = None  # traced span rows

    @property
    def attempted(self):
        return len(self.lat) + self.rejected + len(self.results)

    def fingerprint(self):
        fp = [sorted(self.build_ops.items()), sorted(self.stream_ops.items()),
              self.majors, self.minors, self.view_tuples, self.rejected, self.orders]
        return digest(fp)

    def span_fingerprint(self):
        return digest(sorted((k, r[CALLS], r[OPS], r[OUT]) for k, r in self.rows.items()))


def count_read(eng, r):
    t0 = clock()
    count = eng.query_result()
    dt = clock() - t0
    # the count is one tuple, so its only gap is the read itself
    r.passes.append((1, [dt]))
    r.outs.append(count)


def enum_read(eng, r):
    out = []
    gaps = []
    prev = clock()
    for item in eng.enumerate_result():
        now = clock()
        gaps.append(now - prev)
        out.append(item)
        prev = now
    end = clock()
    gaps.append(end - prev)
    r.passes.append((len(out), gaps))
    r.outs.append(out)


def view_tuples(eng):
    """Tuples stored in the engine's views, partitions excluded."""
    n = 0
    for name, v in vars(eng).items():
        if name != "parts":
            n += sum(len(x) for x in (v.values() if isinstance(v, dict) else (v,))
                     if isinstance(x, Relation))
    return n


def run_database(w, j, inp, r, tracer):
    gc.collect()
    meter = CostMeter()
    read = count_read if w.query == "d0" else enum_read
    if tracer is not None:
        tracer.meter = meter
        tracer.begin("bench.build")
    t0 = clock()
    eng = make_engine(w.query, w.epsilon, meter=meter, rd=inp.preload["R"],
                      sd=inp.preload["S"], td=inp.preload["T"])
    r.builds.append(clock() - t0)
    if tracer is not None:
        tracer.end()
    r.build_ops.update(meter.snapshot())
    drv = Driver(eng)
    if tracer is not None:
        drv.observers.append(tracer.observe)
    on_update = drv.on_update
    stream, lat = inp.stream, r.lat
    pos = 0
    for stop in inp.reads:
        if stop > pos:
            before = meter.snapshot()
            for i in range(pos, stop):
                rel, key, m = stream[i]
                t0 = clock()
                try:
                    on_update(rel, key, m)
                except RejectedDelete:
                    r.rejected += 1
                    continue
                lat.append(clock() - t0)
            r.stream_ops.update(meter.snapshot())
            r.stream_ops.subtract(before)
            pos = stop
        if read is enum_read:
            # a young-generation collection zeroes the collector's counter,
            # so no collection falls between the call and the first tuple
            # by chance; the d0 read allocates nothing
            gc.collect(0)
        if tracer is not None:
            tracer.begin("bench.read")
        r.positions.append((j, stop))
        read(eng, r)
        if tracer is not None:
            tracer.end()
    r.majors += drv.majors
    r.minors += drv.minors
    r.view_tuples += view_tuples(eng)


def run_round(w, inps, tracer=None):
    """Each of the workload's databases built, updated and read, in turn."""
    r = Round()
    if tracer is not None:
        tracer.rows = r.rows = {}
    for j, inp in enumerate(inps):
        run_database(w, j, inp, r, tracer)
    # digests wait until the round's timed calls are over, so that their
    # garbage is not collected inside a timed call
    for out in r.outs:
        if w.query == "d0":
            r.results.append(out)
            r.orders.append(out)
            continue
        if len({key for key, _ in out}) != len(out):
            r.duplicates += 1
        r.results.append(digest(sorted(out)))
        r.orders.append(digest(out))
    r.outs = []
    return r


def memory_pass(w, dbs):
    """(kept, peak) tracemalloc bytes per tuple of engines built from dbs.

    Each engine gets fresh key tuples so that it owns them; peak is taken
    above the input copy, kept after the input is dropped. Bytes and
    tuples are summed over the databases.
    """
    kept = peak = 0
    for db in dbs:
        gc.collect()
        tracemalloc.start()
        try:
            copy = {rel: {(a, b): m for (a, b), m in db[rel].items()} for rel in RELS}
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eng = make_engine(w.query, w.epsilon, rd=copy["R"], sd=copy["S"], td=copy["T"])
            peak += tracemalloc.get_traced_memory()[1] - base
            del copy
            gc.collect()
            kept += tracemalloc.get_traced_memory()[0]
            del eng
        finally:
            tracemalloc.stop()
    tuples = sum(len(d) for db in dbs for d in db.values())
    return kept / tuples, peak / tuples


def check(w, inps, rounds):
    """Failures found outside the timed calls, with one line per kind."""
    k = FREE_VARS[w.query]

    def record(res):
        return res if k == 0 else digest(sorted(res.items()))

    notes = []
    failed = 0
    expected = []  # per read pass of a round, over all its databases
    finals = []  # (index of a database's last read pass, oracle result)
    for j, inp in enumerate(inps):
        ref = RefMaintainer(k)
        for rel in RELS:
            for key, m in inp.preload[rel].items():
                ref.apply(rel, key, m)
        pos = -1
        for stop in inp.reads:
            if stop != pos:
                for upd in inp.stream[max(pos, 0):stop]:
                    ref.apply(*upd)
                pos = stop
                res = record(ref.result())
            expected.append(res)
        finals.append((len(expected) - 1, record(
            oracle_triangle(inp.final["R"], inp.final["S"], inp.final["T"], k))))
        if ref.rels != inp.final:
            notes.append(f"generator: replayed database {j} differs from its final state")
            failed += 1

    for i, r in enumerate(rounds):
        bad = sum(a != b for a, b in zip(r.results, expected))
        bad_final = sum(r.results[x] != res for x, res in finals)
        if r.rejected or r.duplicates or bad or bad_final:
            notes.append(f"round {i}: {r.rejected} rejected updates, {bad} of "
                         f"{len(expected)} read passes differ from the reference, "
                         f"{r.duplicates} emit a key twice, {bad_final} of "
                         f"{len(finals)} final results differ from the oracle")
        failed += r.rejected + r.duplicates + max(bad, bad_final)
    fps = [r.fingerprint() for r in rounds]
    diverged = sum(fp != fps[0] for fp in fps)
    traced = [r for r in rounds if r.rows is not None]
    sfps = [r.span_fingerprint() for r in traced]
    diverged += sum(fp != sfps[0] for fp in sfps)
    if diverged:
        notes.append(f"determinism: {diverged} rounds differ from the first in their counts")
        failed += diverged
    return failed, notes, fps[0]


def column_mins(seqs):
    """Least value at each position over repeats of the same sequence."""
    seqs = [q for q in seqs if len(q) == len(seqs[0])]
    return [min(col) for col in zip(*seqs)]


def end_to_end(rounds, setups, kept_bpt):
    """The timed metrics over per-operation bests; set-up as the median
    build.

    Every round runs the same updates and read passes on the same states
    (the determinism check holds them to it), so the k-th update of one
    round repeats the k-th update of every other, and a read pass repeats
    every pass of its database at the same stream position, in its round
    or another. The machine's speed swings by up to 2x for seconds at a
    time, and an interrupt or a collection lands on a different operation
    in each repeat, so each update's latency, and each gap between emitted
    tuples, is the least of its repeats, the least disturbed one as with
    timeit; the metrics are computed over those.
    """
    lat = column_mins([r.lat for r in rounds])
    repeats = {}
    for r in rounds:
        for key, (_, pg) in zip(r.positions, r.passes):
            repeats.setdefault(key, []).append(pg)
    best = {key: column_mins(pgs) for key, pgs in repeats.items()}
    keys = rounds[0].positions
    gaps = [g for key in keys for g in best[key]]
    firsts = [best[key][0] for key in keys]
    # the delay between consecutive tuples leaves out a pass's open (its
    # first gap, which enum_first_us reports) and its close (the last); a
    # d0 read's only gap is the read
    delays = [g for key in keys
              for g in (best[key] if len(best[key]) == 1 else best[key][1:-1])]
    tuples = sum(t for t, _ in rounds[0].passes)
    m = {
        "setup_s": statistics.median(setups) / 1e9,
        "updates_per_s": len(lat) * 1e9 / sum(lat),
        "update_p50_us": percentile(lat, 50) / 1e3,
        "update_p99_us": percentile(lat, 99) / 1e3,
        "enum_tuples_per_s": tuples * 1e9 / sum(gaps),
        "enum_gap_p99_us": percentile(delays, 99) / 1e3,
        "state_bytes_per_tuple": kept_bpt,
    }
    n = min(len(q) for q in repeats.values())
    counts = {k: f"best of {len(rounds)} repeats per update, n={len(lat)}"
              for k in ("updates_per_s", "update_p50_us", "update_p99_us")}
    counts.update({
        "setup_s": f"median of {len(setups)} builds",
        "enum_tuples_per_s": f"best of {n}+ repeats per gap, {len(keys)} passes",
        "enum_gap_p99_us": f"best of {n}+ repeats per gap, n={len(delays)}",
        "state_bytes_per_tuple": "one build of each final database",
    })
    # printed, not a metric: it is set by the database's layout, which
    # moves it by up to 4x between seeds (see README.md)
    info = {"enum_first_us": (statistics.median(firsts) / 1e3, "us",
                              f"best of {n}+ repeats per pass, n={len(firsts)}")}
    return m, counts, info


def per_layer(w, plain, traced, peak_bpt):
    n = len(traced)
    tot = merge((row for r in traced for row in r.rows.items()), by_name=True)
    zero = [0] * 6

    def get(name, i):
        return tot.get(name, zero)[i] / n

    def per(name, i, j, scale=1.0):
        d = get(name, j)
        return get(name, i) / d / scale if d else 0.0

    def self_ns(name):
        c = get(name, CALLS)
        return (get(name, NS) - get(name, CHILD_NS)) / c if c else 0.0

    m = {}
    for op in ("apply_delta", "lookup", "slice_count"):
        m[f"store.{op}.calls"] = get(f"store.{op}", CALLS)
        m[f"store.{op}.ns_per_call"] = per(f"store.{op}", NS, CALLS)
    m["store.slice_items.calls"] = get("store.slice_items", CALLS)
    m["store.slice_items.yielded"] = get("store.slice_items", OUT)
    m["store.slice_items.ns_per_item"] = per("store.slice_items", NS, OUT)
    m["store.slice_step.calls"] = get("store.slice_step", CALLS)
    m["store.slice_step.ns_per_call"] = per("store.slice_step", NS, CALLS)
    m["store.items.yielded"] = get("store.items", OUT)
    store_ns = sum(v[NS] for k, v in tot.items() if k.startswith("store."))
    store_ops = sum(v[OPS] for k, v in tot.items() if k.startswith("store."))
    m["store.ns_per_op"] = store_ns / store_ops if store_ops else 0.0
    m["store.peak_bytes_per_tuple"] = peak_bpt

    ops = plain.stream_ops
    updates = len(plain.lat) + plain.rejected
    m["meter.ops_per_update"] = ops["total"] / updates
    for phase in ("apply", "major", "minor"):
        m[f"meter.ops.{phase}"] = ops[phase]
    m["meter.ns_per_op"] = sum(plain.lat) / ops["total"]

    for fn in ("affected_label", "violation", "total"):
        m[f"partition.{fn}.calls"] = get(f"partition.{fn}", CALLS)
        m[f"partition.{fn}.ns_per_call"] = per(f"partition.{fn}", NS, CALLS)
    m["partition.strict_build.ms"] = get("partition.strict_build", NS) / 1e6

    for e in ENGINE.values():
        m[f"{e}.apply_update.calls"] = get(f"{e}.apply_update", CALLS)
        m[f"{e}.apply_update.self_ns_per_call"] = self_ns(f"{e}.apply_update")
        m[f"{e}.apply_update.ops_per_call"] = per(f"{e}.apply_update", OPS, CALLS)
        m[f"{e}.rebuild.calls"] = get(f"{e}.rebuild", CALLS)
        m[f"{e}.rebuild.ms_per_call"] = per(f"{e}.rebuild", NS, CALLS, 1e6)
        if e != "nullary":
            m[f"{e}.enum.open_us"] = per(f"{e}.enum.open", NS, CALLS, 1e3)
        if e in ("unary", "binary"):
            m[f"{e}.multiplicity.calls"] = get(f"{e}.multiplicity", CALLS)
            m[f"{e}.multiplicity.ns_per_call"] = per(f"{e}.multiplicity", NS, CALLS)
        m[f"{e}.view_tuples"] = plain.view_tuples / w.databases if e == ENGINE[w.query] else 0

    m["driver.on_update.self_ns_per_call"] = self_ns("driver.on_update")
    m["driver.major.count"] = get("driver.major", CALLS)
    m["driver.major.ms"] = get("driver.major", NS) / 1e6
    m["driver.major.ops"] = get("driver.major", OPS)
    m["driver.minor.count"] = get("driver.minor", CALLS)
    m["driver.minor.ms"] = get("driver.minor", NS) / 1e6
    m["driver.minor.tuples_moved"] = get("driver.move_tuples", OUT)

    for it in ("union", "hop_union"):
        m[f"iterators.{it}.next.calls"] = get(f"iterators.{it}.next", CALLS)
        m[f"iterators.{it}.next.ns_per_call"] = per(f"iterators.{it}.next", NS, CALLS)
    m["iterators.hop.next.calls"] = get("iterators.hop.next", CALLS)
    m["iterators.hop.exclude.calls"] = get("iterators.hop.exclude", CALLS)
    m["iterators.hop.exclude.ns_per_call"] = per("iterators.hop.exclude", NS, CALLS)
    emits = get("iterators.hop_union.next", OUT)
    m["iterators.hop.next_per_emit"] = get("iterators.hop.next", CALLS) / emits if emits else 0.0
    m["iterators.hop.exclude.effective_frac"] = per("iterators.hop.exclude", OUT, CALLS)
    m["iterators.key.next.calls"] = get("iterators.key.next", CALLS)

    m["joins.triangle_products.calls"] = get("joins.triangle_products", CALLS)
    m["joins.triangle_products.ms"] = get("joins.triangle_products", NS) / 1e6
    m["joins.triangle_products.products"] = get("joins.triangle_products", OUT)

    traced_lat = [x for r in traced for x in r.lat]
    m["trace.overhead_frac"] = (sum(traced_lat) / len(traced_lat)) / (sum(plain.lat) / len(plain.lat)) - 1
    return m


def span_table(traced, limit=25):
    """Lines of the heaviest spans by self time, per traced round."""
    n = len(traced)
    merged = merge(row for r in traced for row in r.rows.items())
    rows = Counter({key: row[NS] - row[CHILD_NS] for key, row in merged.items()})
    out = [f"  {'span <- parent':58} {'calls':>10} {'self ms':>9} {'ops':>10}"]
    for (name, parent), self_ns in rows.most_common(limit):
        row = merged[(name, parent)]
        out.append(f"  {name + ' <- ' + parent:58} {row[CALLS] / n:>10.0f} "
                   f"{self_ns / n / 1e6:>9.1f} {row[OPS] / n:>10.0f}")
    return out


def run_workload(w, seed, seconds, trace, spec):
    inps = generate(w, seed)
    gc.collect()
    gc.freeze()  # the inputs are never collected; keep them out of GC passes
    rounds = []
    tracer = Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def next_round(traced=None):
        # Rounds take turns on the CPUs the process may use: a CPU can stay
        # slow for tens of seconds while the other is not, and the
        # per-operation bests should see both.
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        rounds.append(run_round(w, inps, traced))

    start = clock()
    deadline = start + int(seconds * 1e9)
    try:
        if trace:
            next_round()
            tracer.calibrate()
            tracer.install()
            while len(rounds) < 1 + MIN_TRACED or clock() < deadline:
                next_round(tracer)
        else:
            while len(rounds) < MIN_ROUNDS or clock() < deadline:
                next_round()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    measured_s = (clock() - start) / 1e9
    gc.unfreeze()

    failed, notes, fp = check(w, inps, rounds)
    attempted = sum(r.attempted for r in rounds)
    kept_bpt, peak_bpt = memory_pass(w, [inp.final for inp in inps])
    lines = [f"workload {w.name} (seed {seed}, {w.query}, eps {w.epsilon}): "
             f"{len(rounds)} rounds in {measured_s:.1f} s, {len(inps)} database(s), "
             f"{len(rounds[0].lat)} updates and {len(rounds[0].passes)} read passes "
             f"a round, {rounds[0].majors} majors, "
             f"{rounds[0].minors} minors; determinism fingerprint {fp}"]
    if trace:
        traced = rounds[1:]
        metrics = per_layer(w, rounds[0], traced, peak_bpt)
        counts, info = {}, {}
        lines += span_table(traced)
    else:
        setups = [ns for r in rounds for ns in r.builds]
        metrics, counts, info = end_to_end(rounds, setups, kept_bpt)
    units = {d["name"]: d["unit"] for d in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {set(units) ^ set(metrics)}")
    for name in units:
        n = f"  ({counts[name]})" if name in counts else ""
        lines.append(f"  {name:44} {metrics[name]:>16.6g} {units[name]}{n}")
    for name, (value, unit, n) in info.items():
        lines.append(f"  {name:44} {value:>16.6g} {unit}  ({n}; not a gated metric)")
    lines.append(f"  {'failed_frac':44} {failed / attempted:>16.6g} ratio"
                 f"  ({failed} of {attempted} operations)")
    lines += ["  FAIL " + note for note in notes]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"bench: cannot read {SPEC_PATH}: {exc}\n")
        return 2
    if {d["name"] for d in spec["workloads"]} != set(WORKLOADS):
        sys.stderr.write("bench: BENCHMARK.json workloads differ from workloads.py\n")
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, spec)
        except Exception:
            traceback.print_exc()
            res, lines = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, []
        print("\n".join(lines), flush=True)
        results[name] = res
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
