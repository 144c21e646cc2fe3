"""Benchmark workloads and their seeded input generator.

A workload is a preloaded database plus one fixed update stream with
read points. Everything is drawn from `--seed` before any timing starts,
with the value distributions of `trimaint.workload` (per-relation value
rngs, uniform or zipf over a domain). Unlike `trimaint.workload.stream`,
which rebuilds the list of live tuples on every delete, the live set here
is a swap-remove list per relation, so a delete costs O(1).

Run as a script to write a workload's preload and stream in the
`+ R a b [m]` format that `trimaint run --stream` replays:

    python3 bench/workloads.py --workload pairs-read-write --seed 1 --database 0 > s.txt
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

import _src  # noqa: F401  (puts the checkout's src/ on sys.path)
from trimaint.workload import RELS, WorkloadSpec, format_update, make_sampler


@dataclass(frozen=True)
class Workload:
    name: str
    query: str
    epsilon: float
    skew: str
    domain: int
    preload: int  # distinct tuples in the database a round starts from
    updates: int  # stream length of one round
    delete_frac: float  # chance that an update deletes a live tuple
    whole_deletes: bool  # a delete removes every copy, not one
    read_every: int  # a read pass after every k-th update (0: none)
    end_reads: int  # read passes over the final database
    databases: int = 1  # independent databases a round runs one after another


# One workload per engine module, each loading a different layer; the
# one-line reasons are in BENCHMARK.json and the layer predictions in
# bench/README.md. A round (a build plus the whole stream of each of its
# databases) takes under two seconds, so a run repeats every operation ten
# times or more: the timed metrics take the best of each operation's
# repeats (run.py). Several small databases a round, not one large one,
# average costs that are set by the draw.
WORKLOADS = {
    w.name: w
    for w in (
        # d0 reads the count after every update, as an OuMv client does;
        # a read is O(1), so the update path dominates.
        Workload("count-churn", "d0", 0.5, "zipf:1.2", 1000,
                 preload=7000, updates=2000, delete_frac=0.5,
                 whole_deletes=False, read_every=1, end_reads=0, databases=3),
        # How many metered ops an enumerated pair costs falls into one of
        # two modes set by the draw (about 28 or 35 at a 5k preload, one
        # draw in two each), so a round runs six independent databases and
        # its figures do not rest on a few draws.
        Workload("pairs-read-write", "d2", 0.5, "zipf:1.2", 1000,
                 preload=5000, updates=1000, delete_frac=0.5,
                 whole_deletes=False, read_every=500, end_reads=0, databases=6),
        # 16000 inserts from empty pass 14 doubling majors and stop short
        # of the 15th at 16384 distinct tuples. The 32 passes over the
        # final ~140 triangles repeat one another, so each gap has many
        # repeats.
        Workload("triples-grow", "d3", 0.5, "uniform", 1000,
                 preload=0, updates=16000, delete_frac=0.0,
                 whole_deletes=False, read_every=0, end_reads=32),
        Workload("singles-shrink", "d1", 0.25, "zipf:1.2", 1000,
                 preload=6000, updates=6000, delete_frac=0.85,
                 whole_deletes=True, read_every=600, end_reads=0, databases=2),
    )
}


class LiveSet:
    """Live tuples of R, S and T with O(1) add, remove and uniform pick."""

    def __init__(self):
        self.mult = {rel: {} for rel in RELS}
        self._keys = {rel: [] for rel in RELS}
        self._pos = {rel: {} for rel in RELS}
        self.size = 0

    def add(self, rel, key, m):
        mult = self.mult[rel]
        new = mult.get(key, 0) + m
        if new < 0:
            raise ValueError(f"{rel}{key} would go negative")
        keys, pos = self._keys[rel], self._pos[rel]
        if new == 0:
            del mult[key]
            i = pos.pop(key)
            last = keys.pop()
            if last != key:
                keys[i] = last
                pos[last] = i
            self.size -= 1
        else:
            if key not in mult:
                pos[key] = len(keys)
                keys.append(key)
                self.size += 1
            mult[key] = new

    def pick(self, rng):
        """A live (rel, key), uniform over distinct live tuples."""
        i = rng.randrange(self.size)
        for rel in RELS:
            keys = self._keys[rel]
            if i < len(keys):
                return rel, keys[i]
            i -= len(keys)
        raise AssertionError("pick from an empty live set")


@dataclass
class Inputs:
    preload: dict  # rel -> {key: mult}
    stream: list  # [(rel, key, m)]
    reads: list  # stream positions (updates applied) before each read pass
    final: dict  # rel -> {key: mult} after the whole stream


def generate(w, seed):
    """Inputs of each database of a round, all from the seed."""
    return [generate_database(w, seed, j) for j in range(w.databases)]


def generate_database(w, seed, j):
    """Preload, stream and read points of the round's j-th database."""
    tag = f"{seed}:{w.name}" + (f":{j}" if j else "")
    ctl = random.Random(f"{tag}:ctl")
    val = {rel: random.Random(f"{tag}:{rel}") for rel in RELS}
    sample = make_sampler(WorkloadSpec(domain=w.domain, skew=w.skew))
    live = LiveSet()

    def insert():
        rel = RELS[ctl.randrange(3)]
        rng = val[rel]
        return rel, (sample(rng), sample(rng)), 1

    while live.size < w.preload:
        live.add(*insert())
    preload = {rel: dict(d) for rel, d in live.mult.items()}

    stream = []
    for _ in range(w.updates):
        if live.size and ctl.random() < w.delete_frac:
            rel, key = live.pick(ctl)
            upd = (rel, key, -live.mult[rel][key] if w.whole_deletes else -1)
        else:
            upd = insert()
        live.add(*upd)
        stream.append(upd)

    reads = [i for i in range(1, w.updates + 1) if w.read_every and i % w.read_every == 0]
    reads += [w.updates] * w.end_reads
    if not reads or reads[-1] != w.updates:
        raise ValueError(f"{w.name}: the last read pass must follow the last update")
    final = {rel: dict(d) for rel, d in live.mult.items()}
    return Inputs(preload, stream, reads, final)


def write_stream(inputs, out):
    """Preload as inserts, then the stream, one `+|- R a b [m]` line each."""
    for rel in RELS:
        for key, m in inputs.preload[rel].items():
            out.write(format_update(rel, key, m) + "\n")
    for rel, key, m in inputs.stream:
        out.write(format_update(rel, key, m) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Write a benchmark workload as a stream file.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--database", type=int, default=0,
                    help="which of the round's databases to write (default 0)")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if not 0 <= args.database < w.databases:
        ap.error(f"{w.name} has databases 0 to {w.databases - 1}")
    write_stream(generate_database(w, args.seed, args.database), sys.stdout)


if __name__ == "__main__":
    main()
