"""Update driver keeping engine partitions balanced across a stream.

Wraps one query engine. Each call to on_update applies a single-tuple
change through the engine, then restores the size invariant
floor(N/4) <= |D| < N by doubling or halving N with a full rebuild,
or restores the loose degree conditions by moving one value's tuples
between parts. Rebalancing cost lands in the meter's major and minor
phases so the amortized bounds can be checked from the outside.

The per-update path does only what the update needs: |D| is the
engine's `size`, an integer its `apply_update` keeps, and the loose
conditions are checked once, on the updated values, by the partition's
`minor_moves` with the label the update was routed to; the minor's
bookkeeping runs only when a move is due.
"""

from trimaint.binary import BinaryEngine
from trimaint.nullary import NullaryDoubleEngine, NullaryEngine
from trimaint.partition import move_target
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
        self.last_costs = {}

    @property
    def meter(self):
        return self.engine.meter

    def _notify(self, event):
        for obs in self.observers:
            obs(event, self)

    def on_update(self, rel, key, m):
        """Apply one update, then rebalance if any invariant broke.

        Raises ValueError for an unknown relation, a key that is not a
        tuple of two hashable values or a zero multiplicity, and
        RejectedDelete if the delete would overshoot; in every case before
        touching anything, so the state is unchanged. Returns this
        update's ops by phase; the ops outside a rebalance land in the
        meter's current phase, which is apply unless the caller opened
        another.
        """
        eng = self.engine
        part = eng.parts.get(rel)
        if part is None:
            raise ValueError(f"unknown relation {rel!r}")
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValueError(f"{rel}{key!r}: a key is a tuple of two values")
        try:
            hash(key)
        except TypeError:
            raise ValueError(f"{rel}{key!r}: a key's values must be hashable") from None
        if m == 0:
            raise ValueError(f"{rel}{key}: zero multiplicity")
        meter = eng.meter
        t0 = meter.total
        label = part.affected_label(key, eng.epsilon)
        eng.apply_update(rel, label, key, m)
        size, n = eng.size, eng.threshold.N
        major = minor = 0
        if size == n:
            major = self._major(2 * n)
        elif size < n // 4:
            major = self._major(max(n // 2 - 1, 1))
        else:
            moves = part.minor_moves(key, label, eng.threshold.theta)
            if moves is not None:
                minor = self._minor(rel, moves)
        self.updates += 1
        total = meter.total - t0
        self.last_costs = {"total": total, "apply": total - major - minor,
                           "major": major, "minor": minor}
        meter.last_update = total
        return self.last_costs

    def _major(self, new_n):
        """Rebuild at threshold base new_n; returns the ops it took."""
        eng = self.engine
        self._notify("major:before")
        self.majors += 1
        t0 = eng.meter.total
        with eng.meter.phase("major"):
            eng.rebuild(eng.rel_items(), new_n)
        ops = eng.meter.total - t0
        self._notify("major:after")
        return ops

    def _minor(self, rel, moves):
        """Move the values whose loose condition broke; returns the ops of
        the moves (the check that found them is not part of the minor)."""
        eng = self.engine
        self._notify("minor:before")
        self.minors += 1
        t0 = eng.meter.total
        with eng.meter.phase("minor"):
            for side, value, direction in moves:
                self._move_value(rel, side, value, direction)
        ops = eng.meter.total - t0
        self._notify("minor:after")
        return ops

    def _move_value(self, rel, side, value, direction):
        part = self.engine.parts[rel]
        if part.kind == "single":
            srcs = ("H",) if direction == "to_light" else ("L",)
        else:
            _, heavy_labs, light_labs = part._side(side)
            srcs = heavy_labs if direction == "to_light" else light_labs
        for src in srcs:
            self.move_tuples(rel, side, value, src, move_target(src, side, direction))

    def move_tuples(self, rel, side, value, src, dst):
        """Move every tuple with this value from part src to part dst.

        Each tuple costs two engine applies: an insert into dst and a
        delete from src, so all views stay consistent throughout.
        """
        eng = self.engine
        part = eng.parts[rel]
        if part.kind == "single":
            var = part.var
        else:
            var = part.vx if side == "X" else part.vy
        moved = list(part.part(src).slice_items((var,), value))
        for key, m in moved:
            eng.apply_update(rel, dst, key, m)
            eng.apply_update(rel, src, key, -m)
        return len(moved)

    def check_invariants(self, deep=False):
        """Assert the size invariant and clean loose conditions.

        With deep=True also recompute every view and check the index
        structures; the meter keeps ticking during these reads, so cost
        measuring runs should not interleave with this.
        """
        eng = self.engine
        n = eng.threshold.N
        size = eng.db_size()
        recount = sum(p.size() for p in eng.parts.values())
        assert size == recount, f"kept size {size} drifted from the parts' {recount}"
        assert n >= 1
        assert n // 4 <= size < n, f"size invariant broken: {size} vs N={n}"
        theta = eng.threshold.theta
        for part in eng.parts.values():
            bad = part.violations(theta)
            assert not bad, f"{part.name}: loose conditions violated at {bad}"
            part.check_disjoint()
            for lab in part.labels:
                r = part.part(lab)
                assert all(m != 0 for m in r.entries.values()), r.name
                if deep:
                    r.check_consistency()
        if deep:
            eng.verify_views()
