"""Update driver keeping engine partitions balanced across a stream.

Wraps one query engine. Each call to on_update applies a single-tuple
change through the engine, then restores the size invariant
floor(N/4) <= |D| < N by doubling or halving N (a major), or restores
the loose degree conditions by moving one value's tuples between parts
(a minor). A major repartitions strictly at the new N, but by
difference: every view is a function of the parts alone and theta
enters only the partition, so it rebases theta and moves just the
values whose strict class changed, falling back to a full rebuild when
those moves would cost more than one. The driver adds each rebalance's
ops to the meter's major and minor counters, so the amortized bounds
can be checked from the outside. It also keeps the run's summary: the
updates it applied, the overdeletes it refused and the most ops any one
update took.

The per-update path does only what the update needs: |D| is the
engine's `size`, an integer its `apply_update` keeps, and the loose
conditions are checked once, on the updated values, by the partition's
`minor_moves` with the label the update was routed to; the minor's
bookkeeping runs only when a move is due.
"""

from trimaint.binary import BinaryEngine
from trimaint.nullary import NullaryDoubleEngine, NullaryEngine
from trimaint.store import RejectedDelete, Relation, audit
from trimaint.ternary import TernaryEngine
from trimaint.unary import UnaryEngine

ENGINES = {
    ("d0", False): NullaryEngine,
    ("d0", True): NullaryDoubleEngine,
    ("d1", False): UnaryEngine,
    ("d2", False): BinaryEngine,
    ("d3", False): TernaryEngine,
}


def make_engine(query, epsilon, double=False, meter=None, rd=None, sd=None, td=None):
    if double and query != "d0":
        raise ValueError("double partitioning applies to d0 only")
    cls = ENGINES[(query, double)]
    return cls.from_database(rd or {}, sd or {}, td or {}, epsilon, meter)


class Driver:
    """Applies updates to an engine and rebalances its partitions."""

    def __init__(self, engine):
        self.engine = engine
        self.observers = []
        self.updates = 0
        self.majors = 0
        self.minors = 0
        self.rejected = 0
        self.max_update = 0

    @property
    def meter(self):
        return self.engine.meter

    def _notify(self, event):
        for obs in self.observers:
            obs(event, self)

    def on_update(self, rel, key, m):
        """Apply one update, then rebalance if any invariant broke.

        Raises ValueError for an unknown relation, a key that is not a
        tuple of two hashable values or a multiplicity that is not a
        nonzero int, and RejectedDelete if the delete would overshoot; in
        every case before touching anything, so the state is unchanged.
        Returns this update's ops; the meter's major and minor counters
        hold the rebalancing part of them.
        """
        eng = self.engine
        try:
            part = eng.parts.get(rel)
        except TypeError:
            part = None  # an unhashable name names no relation
        if part is None:
            raise ValueError(f"unknown relation {rel!r}")
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"{rel}{key!r}: a key is a tuple of two values")
        try:
            hash(key)
        except TypeError:
            raise ValueError(f"{rel}{key!r}: a key's values must be hashable") from None
        if not isinstance(m, int):
            raise ValueError(f"{rel}{key}: multiplicity {m!r} is not an integer")
        if m == 0:
            raise ValueError(f"{rel}{key}: zero multiplicity")
        meter = eng.meter
        t0 = meter.total
        label = part.affected_label(key, eng.epsilon)
        try:
            eng.apply_update(rel, label, key, m)
        except RejectedDelete:
            self.rejected += 1
            raise
        size, n = eng.size, eng.threshold.N
        if size == n:
            self._major(2 * n)
        elif size < n // 4:
            self._major(max(n // 2 - 1, 1))
        else:
            moves = part.minor_moves(key, label, eng.threshold.theta)
            if moves is not None:
                self._minor(rel, moves)
        self.updates += 1
        ops = meter.total - t0
        if ops > self.max_update:
            self.max_update = ops
        return ops

    def _major(self, new_n):
        """Strictly repartition at threshold base new_n.

        Rebases theta, scans every partition for the values whose strict
        class changed (`strict_flips`) and moves their tuples, leaving
        exactly the parts a strict rebuild gives, in the same part and
        view objects. If moving the k tuples, at N^max(eps, 1-eps) per
        tuple, would cost more than the rebuild's N^(3/2) bound, it
        rebuilds instead, so a major never costs asymptotically more than
        a rebuild.
        """
        eng, meter = self.engine, self.engine.meter
        self._notify("major:before")
        self.majors += 1
        t0 = meter.total
        eng.threshold.rebase(new_n)
        theta, eps = eng.threshold.theta, eng.epsilon
        flips = {rel: part.strict_flips(theta) for rel, part in eng.parts.items()}
        k = sum(moved for _, moved in flips.values())
        if k * new_n ** max(eps, 1 - eps) > new_n ** 1.5:
            eng.rebuild(eng.rel_items(), new_n)
        else:
            for rel, (moves, _) in flips.items():
                self._move_values(rel, moves)
        meter.major += meter.total - t0
        self._notify("major:after")

    def _minor(self, rel, moves):
        """Move the values whose loose condition broke; the minor's ops are
        the moves' (the check that found them is not part of the minor)."""
        meter = self.engine.meter
        self._notify("minor:before")
        self.minors += 1
        t0 = meter.total
        self._move_values(rel, moves)
        meter.minor += meter.total - t0
        self._notify("minor:after")

    def _move_values(self, rel, moves):
        """Flip each (side, value, direction) of `moves` to its new class."""
        part = self.engine.parts[rel]
        for side, value, direction in moves:
            for src, dst in part.moves(side, direction):
                self.move_tuples(rel, side, value, src, dst)

    def move_tuples(self, rel, side, value, src, dst):
        """Move every tuple with this value from part src to part dst.

        Each tuple costs two engine applies: an insert into dst and a
        delete from src, so all views stay consistent throughout.
        """
        eng = self.engine
        part = eng.parts[rel]
        moved = list(part.parts[src].slice_items((part.column(side),), value))
        for key, m in moved:
            eng.apply_update(rel, dst, key, m)
            eng.apply_update(rel, src, key, -m)
        return len(moved)

    def check_invariants(self, deep=False):
        """Raise AssertionError unless the size invariant and the loose
        conditions hold.

        With deep=True also recompute every view, check each double
        partition's `totals` against its parts and check the index
        structures of every part and view Relation; the meter keeps
        ticking during these reads, so cost measuring runs should not
        interleave with this.
        """
        eng = self.engine
        n = eng.threshold.N
        size = eng.db_size()
        recount = sum(p.size() for p in eng.parts.values())
        audit(size == recount, f"kept size {size} drifted from the parts' {recount}")
        audit(n // 4 <= size < n, f"size invariant broken: {size} vs N={n}")
        theta = eng.threshold.theta
        for part in eng.parts.values():
            bad = part.violations(theta)
            audit(not bad, f"{part.name}: loose conditions violated at {bad}")
            part.check_disjoint()
            if deep:
                part.check_totals()
            for r in part.parts.values():
                audit(all(m != 0 for m in r.entries.values()), r.name)
                if deep:
                    r.check_consistency()
        if deep:
            for name in eng.view_names:
                view = getattr(eng, name)
                if isinstance(view, Relation):
                    view.check_consistency()
            eng.verify_views()
