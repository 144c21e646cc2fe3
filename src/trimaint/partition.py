"""Degree-based heavy/light partitioning with threshold theta = N**epsilon.

A relation is split into parts by the class, heavy or light, of the
values of its partition sides: side X is column 0, and a double partition
adds side Y, column 1. A part label holds one H/L letter per side, at
the side's column. Membership is always a function of the values, never
of individual tuples.

Loose conditions (checked between driver steps):
  heavy value x:  deg(x) >= theta/2
  light value x:  deg(x) <  (3/2)*theta
Strict partitioning uses deg(x) >= theta. Comparisons against fractional
thresholds are done as 2*deg vs theta and 2*deg vs 3*theta.

`total_gets` are the getters whose values at a key sum to the relation's
multiplicity there, what a view tree's close and a probe of the whole
relation read: a single partition's two parts, or one map a double
partition keeps, `totals`, instead of its four. A key lives in one part,
so an update writes the part's new value into `totals` (one tick) and a
rebalancing move, which keeps every total, leaves it alone. The map is
never iterated outside the audit, so, like a linked index's nodes map,
it is outside the store's compaction rule.
"""

from __future__ import annotations

from collections import Counter

from trimaint.store import Relation, audit

# the hash indexes of every part: one per column
BASE_IDX = ((0,), (1,))


class Threshold:
    """Threshold base N and exponent epsilon; theta is recomputed from N."""

    __slots__ = ("N", "epsilon", "theta")

    def __init__(self, N, epsilon):
        if not N >= 1:
            raise ValueError(f"threshold base must be at least 1, got {N}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.N = N
        self.epsilon = epsilon
        self.theta = float(N) ** epsilon

    def rebase(self, N):
        self.N = N
        self.theta = float(N) ** self.epsilon


class Partition:
    """Heavy/light parts of a binary relation, one part per label.

    The base works out everything that follows from the label rule: per
    side, its column and its parts, heavy ones first (kept on the class),
    the parts' slices maps of the side's column, the moves that flip a
    side's class, the audit (`violation`, `violations`,
    `check_disjoint`) and a major's scan (`strict_flips`). The shapes,
    `SinglePartition` and `DoublePartition`, write out the per-update
    kernels (`affected_label`, `minor_moves`) and `total_gets`: they read
    the parts' entries and slices maps directly and charge what the
    equivalent `lookup`, `slice_count` and `contains` calls would. Each
    shape's `strict_build(items, name, meter, theta)` builds it strictly.
    """

    __slots__ = ("name", "meter", "parts")
    labels = ()
    # a double partition's map from key to total (see the module docstring)
    totals = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # per side: (column, labels of its heavy parts, of its light parts)
        cls._sides, cls._moves = {}, {}
        for col, side in enumerate("XY"[:len(cls.labels[0])]):
            heavy = tuple(lab for lab in cls.labels if lab[col] == "H")
            light = tuple(lab for lab in cls.labels if lab[col] == "L")
            cls._sides[side] = (col, heavy, light)
            for direction, srcs, new in (("to_light", heavy, "L"), ("to_heavy", light, "H")):
                cls._moves[side, direction] = tuple(
                    (src, src[:col] + new + src[col + 1:]) for src in srcs)

    def __init__(self, name, meter):
        self.name = name
        self.meter = meter
        self.parts = {
            lab: Relation(f"{name}^{lab}", 2, BASE_IDX, meter) for lab in self.labels
        }

    def size(self):
        return sum(len(p.entries) for p in self.parts.values())

    def column(self, side):
        """The column a side partitions on."""
        return self._sides[side][0]

    def _side_slices(self, side):
        """Slices maps of the side's column in its parts, heavy parts first:
        a value is a key of a map exactly while its slice is nonempty."""
        col, heavy, light = self._sides[side]
        return tuple(self.parts[lab].hash_slices((col,)) for lab in heavy + light)

    def moves(self, side, direction):
        """(source, destination) labels of the parts a value's tuples move
        between when its class on `side` flips in `direction`."""
        return self._moves[side, direction]

    def violation(self, side, value, theta):
        """Move direction needed to restore loose conditions, or None.

        The audit's check (`violations`): it reads every part of the side,
        so it holds even where a value sits on both sides of the split,
        and charges what `minor_moves` does where it does not: the degree,
        then one membership test per part, heavy ones first, up to the
        first that holds the value.
        """
        slices = self._side_slices(side)
        deg, first = 0, None
        for i, sl in enumerate(slices):
            s = sl.get(value)
            if s is not None:
                deg += len(s)
                if first is None:
                    first = i
        n = len(slices)
        self.meter.total += 2 * n if first is None else n + 1 + first
        if first is None:
            return None
        if first < n // 2:
            return "to_light" if 2 * deg < theta else None
        return "to_heavy" if 2 * deg >= 3 * theta else None

    def violations(self, theta):
        """(side, value, direction) of every value that breaks its loose
        condition, per side in the order its parts hold the values. Listing
        the values costs a tick per key of each part's slices map."""
        out = []
        for side in self._sides:
            slices = self._side_slices(side)
            self.meter.total += sum(map(len, slices))
            for v in dict.fromkeys(x for sl in slices for x in sl):
                d = self.violation(side, v, theta)
                if d is not None:
                    out.append((side, v, d))
        return out

    def strict_flips(self, theta):
        """Values whose strict class at theta (heavy iff degree >= theta)
        differs from the class of the parts that hold them.

        The strict twin of `violations`. Returns (flips, k): flips are
        (side, value, direction) triples, as `minor_moves` gives them, per
        side, the heavy class first, in the order its parts hold the
        values; k is the sum of their degrees, the tuple moves they need.
        Charged one tick per value of each class.
        """
        flips, k, values = [], 0, 0
        for side, (col, heavy, light) in self._sides.items():
            for labs, is_heavy, direction in ((heavy, True, "to_light"),
                                              (light, False, "to_heavy")):
                deg = {}
                for lab in labs:
                    for v, s in self.parts[lab].hash_slices((col,)).items():
                        deg[v] = deg.get(v, 0) + len(s)
                values += len(deg)
                for v, d in deg.items():
                    if (d >= theta) != is_heavy:
                        flips.append((side, v, direction))
                        k += d
        self.meter.total += values
        return flips, k

    def check_totals(self):
        """Raise AssertionError unless `totals`, where the shape keeps one,
        maps exactly the stored keys to their sums over the parts."""

    def check_disjoint(self):
        """Raise AssertionError if a value sits in a heavy and a light part
        of one side, a tick per key of each part's slices map."""
        for side, (_, heavy, _) in self._sides.items():
            slices = self._side_slices(side)
            self.meter.total += sum(map(len, slices))
            n = len(heavy)
            shared = set().union(*slices[:n]) & set().union(*slices[n:])
            audit(not shared, f"{self.name}/{side}: shared values {shared}")


class SinglePartition(Partition):
    """Heavy/light split of a binary relation on side X."""

    __slots__ = ("_h", "_l", "_hs", "_ls")
    labels = ("H", "L")

    @staticmethod
    def strict_build(items, name, meter, theta):
        # looked up by name at each call, so a wrapper put over the module
        # function (bench/tracer.py's) sees every build
        return strict_single(items, name, meter, theta)

    def __init__(self, name, meter):
        super().__init__(name, meter)
        self._h, self._l = self.parts.values()
        self._hs, self._ls = self._side_slices("X")

    @property
    def total_gets(self):
        return self._h.entries.get, self._l.entries.get

    def total(self, key):
        """The relation's multiplicity at `key`, a tick per part read. The
        kernels read `total_gets` instead; this stays because
        bench/tracer.py's TARGETS spans it by name."""
        self.meter.total += 2
        return self._h.entries.get(key, 0) + self._l.entries.get(key, 0)

    def affected_label(self, key, epsilon):
        """Part an update with this tuple lands in (heavy wins ties)."""
        if epsilon == 0:
            return "H"
        self.meter.total += 1
        return "H" if key[0] in self._hs else "L"

    def minor_moves(self, key, label, theta):
        """Moves the loose conditions need after an update of `key` routed
        to `label`: a tuple of (side, value, direction), or None.

        The label gives the value's class, which the update did not change
        (a value's tuples all sit in the parts of its class); charged as
        `violation` is.
        """
        x = key[0]
        if label == "H":
            s = self._hs.get(x)
            if s is not None:
                self.meter.total += 3
                return (("X", x, "to_light"),) if 2 * len(s) < theta else None
            # the update deleted x's last tuple
            self.meter.total += 4
            return None
        self.meter.total += 4
        s = self._ls.get(x)
        if s is not None and 2 * len(s) >= 3 * theta:
            return (("X", x, "to_heavy"),)
        return None


class DoublePartition(Partition):
    """Four-way split of a binary relation on sides X and Y.

    Loose conditions are evaluated on a value's total degree across all
    parts. `totals` maps each stored key to its multiplicity summed over
    the parts, sharing the parts' key objects (see the module docstring).
    """

    __slots__ = ("_all", "_slices", "_heavy", "totals")
    labels = ("HH", "HL", "LH", "LL")

    @staticmethod
    def strict_build(items, name, meter, theta):
        # looked up by name at each call, so a wrapper put over the module
        # function (bench/tracer.py's) sees every build
        return strict_double(items, name, meter, theta)

    def __init__(self, name, meter):
        super().__init__(name, meter)
        self._all = tuple(self.parts.values())
        # by side column
        self._slices = xs, ys = self._side_slices("X"), self._side_slices("Y")
        # where routing looks a value's class up
        self._heavy = xs[:2] + ys[:2]
        self.totals = {}

    @property
    def total_gets(self):
        return (self.totals.get,)

    def total(self, key):
        """The relation's multiplicity at `key`: one read of `totals`, one
        tick. The kernels read `total_gets` instead; this stays because
        bench/tracer.py's TARGETS spans it by name."""
        self.meter.total += 1
        return self.totals.get(key, 0)

    def check_totals(self):
        want = {}
        for r in self._all:
            for key, m in r.entries.items():
                want[key] = want.get(key, 0) + m
        audit(0 not in self.totals.values(), f"{self.name}: a zero total")
        audit(self.totals == want, f"{self.name}: totals drifted from the parts")

    def affected_label(self, key, epsilon):
        """Part an update with this tuple lands in: per side, H if a heavy
        part holds the value. Charged as one membership test per heavy
        part tried, the HH part first."""
        if epsilon == 0:
            return "HH"
        x, y = key
        xa, xb, ya, yb = self._heavy
        hx, hy = x in xa, y in ya
        self.meter.total += 4 - hx - hy
        return _LABELS[hx or x in xb][hy or y in yb]

    def minor_moves(self, key, label, theta):
        """Moves the loose conditions need after an update of `key` routed
        to `label`, as SinglePartition's, checked on both sides."""
        x, y = key
        dx = self._side_move(0, x, label[0], theta)
        dy = self._side_move(1, y, label[1], theta)
        if dx is None and dy is None:
            return None
        if dx is not None and dy is not None:
            # One update shifts each side's degree by one tuple, so both
            # sides can only break toward the same class.
            assert dx == dy
        return tuple((side, v, d) for side, v, d in (("X", x, dx), ("Y", y, dy))
                     if d is not None)

    def _side_move(self, col, value, cls, theta):
        """Move direction for a value of class `cls` on the side of column
        `col`, or None."""
        slices = self._slices[col]
        i = 0 if cls == "H" else 2
        a, b = slices[i].get(value), slices[i + 1].get(value)
        # the degree, then one membership test per part, heavy ones first,
        # up to the first that holds the value
        if a is None and b is None:
            self.meter.total += 8
            return None
        self.meter.total += 5 + i + (a is None)
        deg = (0 if a is None else len(a)) + (0 if b is None else len(b))
        if i == 0:
            return "to_light" if 2 * deg < theta else None
        return "to_heavy" if 2 * deg >= 3 * theta else None


# a double partition's part label by (X-side heavy, Y-side heavy)
_LABELS = (("LL", "LH"), ("HL", "HH"))


def _heavy_values(buf, col, theta):
    deg = Counter(key[col] for key, _ in buf)
    return {v for v, d in deg.items() if d >= theta}


def strict_single(items, name, meter, theta):
    """Build a SinglePartition placing each value by its strict degree;
    each part is loaded in one pass, in the order of `items`."""
    buf = list(items)
    p = SinglePartition(name, meter)
    if buf:  # an empty build skips the degree count
        heavy = _heavy_values(buf, 0, theta)
        p._h.load([kv for kv in buf if kv[0][0] in heavy])
        p._l.load([kv for kv in buf if kv[0][0] not in heavy])
    return p


def strict_double(items, name, meter, theta):
    """Build a DoublePartition from the strict partitions on both sides,
    each part loaded in one pass, in the order of `items`, then its
    `totals` from the parts, charged one tick per key."""
    buf = list(items)
    p = DoublePartition(name, meter)
    if buf:  # an empty build skips the degree count
        hx, hy = _heavy_values(buf, 0, theta), _heavy_values(buf, 1, theta)
        groups = {lab: [] for lab in p.labels}
        for kv in buf:
            x, y = kv[0]
            groups[_LABELS[x in hx][y in hy]].append(kv)
        for lab, group in groups.items():
            p.parts[lab].load(group)
        for part in p._all:
            # a key lives in one part: its total is the part's value
            p.totals.update(part.entries)
        meter.total += len(p.totals)
    return p
