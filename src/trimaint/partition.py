"""Degree-based heavy/light partitioning with threshold theta = N**epsilon.

A single partition splits a relation into heavy and light parts by the
degree of the partition variable's value; a double partition intersects
the strict partitions on two variables. Membership is always a function
of the value, never of individual tuples.

Loose conditions (checked between driver steps):
  heavy value x:  deg(x) >= theta/2
  light value x:  deg(x) <  (3/2)*theta
Strict partitioning uses deg(x) >= theta. Comparisons against fractional
thresholds are done as 2*deg vs theta and 2*deg vs 3*theta.
"""

from __future__ import annotations

from collections import Counter

from trimaint.store import Relation


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


class SinglePartition:
    """Heavy/light split of a binary relation on one variable.

    Routing (`affected_label`, `minor_moves`, `violation`, `total`) reads
    the parts' entries and their partition-column slices maps directly and charges
    what the equivalent `lookup`, `slice_count` and `contains` calls would.
    """

    kind = "single"
    labels = ("H", "L")

    def __init__(self, name, arity, index_cols, meter, var=0):
        self.name = name
        self.var = var
        self.meter = meter
        self.parts = {
            lab: Relation(f"{name}^{lab}", arity, index_cols, meter)
            for lab in self.labels
        }
        self._h = self.parts["H"]
        self._l = self.parts["L"]
        # slices maps of the partition column: a value is a key of the map
        # exactly while its slice is nonempty
        self._hs = self._h.hash_slices((var,))
        self._ls = self._l.hash_slices((var,))

    def part(self, lab):
        return self.parts[lab]

    def size(self):
        return len(self._h.entries) + len(self._l.entries)

    def total(self, key):
        self.meter.total += 2
        return self._h.entries.get(key, 0) + self._l.entries.get(key, 0)

    def items(self):
        for p in self.parts.values():
            yield from p.items()

    def affected_label(self, key, epsilon):
        """Part an update with this tuple lands in (heavy wins ties)."""
        if epsilon == 0:
            return "H"
        self.meter.total += 1
        return "H" if key[self.var] in self._hs else "L"

    def minor_moves(self, key, label, theta):
        """Moves the loose conditions need after an update of `key` routed
        to `label`: a tuple of (side, value, direction), or None.

        The label gives the value's class, which the update did not change
        (a value's tuples all sit in the parts of its class); charged as
        the degree, then membership in H and, if not there, in L.
        """
        x = key[self.var]
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

    def violation(self, side, value, theta):
        """Move direction needed to restore loose conditions, or None.

        The audit's check (`violations`): it reads both parts, so it holds
        even where a value sits on both sides of the split, and charges
        what `minor_moves` does where it does not. `check_disjoint` runs
        after `violations` in `Driver.check_invariants` and catches such a
        value too, but `violation` is also called on its own (the routing
        tests feed it split values, and the benchmark's tracer times it by
        name), so it cannot take the value's class from one part the way
        `minor_moves` takes it from the routed label.
        """
        assert side == "X"
        h, l = self._hs.get(value), self._ls.get(value)
        deg = (len(h) if h is not None else 0) + (len(l) if l is not None else 0)
        # the degree, then membership in H and, if not there, in L
        if h is not None:
            self.meter.total += 3
            if 2 * deg < theta:
                return "to_light"
            return None
        self.meter.total += 4
        if l is not None and 2 * deg >= 3 * theta:
            return "to_heavy"
        return None

    def violations(self, theta):
        out = []
        for lab in self.labels:
            for x in list(self.parts[lab].index_keys((self.var,))):
                d = self.violation("X", x, theta)
                if d is not None:
                    out.append(("X", x, d))
        return out

    def check_disjoint(self):
        cols = (self.var,)
        hv = set(self.parts["H"].index_keys(cols))
        lv = set(self.parts["L"].index_keys(cols))
        assert not (hv & lv), f"{self.name}: shared values {hv & lv}"


class DoublePartition:
    """Four-way split of a binary relation on both variables.

    Part labels are two letters, X-class then Y-class. Loose conditions
    are evaluated on the total degree across all parts. Routing reads the
    parts directly, as SinglePartition's does.
    """

    kind = "double"
    labels = ("HH", "HL", "LH", "LL")

    def __init__(self, name, arity, index_cols, meter, variables=(0, 1)):
        self.name = name
        self.vx, self.vy = variables
        self.meter = meter
        self.parts = {
            lab: Relation(f"{name}^{lab}", arity, index_cols, meter)
            for lab in self.labels
        }
        hh, hl, lh, ll = self._all = tuple(self.parts.values())
        # per side: slices maps of its column in its two heavy parts, then
        # in its two light parts
        self._sides = {
            side: tuple(r.hash_slices((var,)) for r in rels)
            for side, var, rels in (("X", self.vx, (hh, hl, lh, ll)),
                                    ("Y", self.vy, (hh, lh, hl, ll)))
        }
        # the first two of each: where routing looks a value's class up
        self._heavy = self._sides["X"][:2] + self._sides["Y"][:2]

    def part(self, lab):
        return self.parts[lab]

    def size(self):
        hh, hl, lh, ll = self._all
        return len(hh.entries) + len(hl.entries) + len(lh.entries) + len(ll.entries)

    def total(self, key):
        hh, hl, lh, ll = self._all
        self.meter.total += 4
        return (hh.entries.get(key, 0) + hl.entries.get(key, 0)
                + lh.entries.get(key, 0) + ll.entries.get(key, 0))

    def items(self):
        for p in self.parts.values():
            yield from p.items()

    def _side(self, side):
        assert side in ("X", "Y")
        if side == "X":
            # Parts whose first letter is H hold the X-heavy values.
            return self.vx, ("HH", "HL"), ("LH", "LL")
        return self.vy, ("HH", "LH"), ("HL", "LL")

    def affected_label(self, key, epsilon):
        """Part an update with this tuple lands in: per side, H if a heavy
        part holds the value. Charged as one membership test per heavy
        part tried, the HH part first."""
        if epsilon == 0:
            return "HH"
        x, y = key[self.vx], key[self.vy]
        xa, xb, ya, yb = self._heavy
        hx, hy = x in xa, y in ya
        self.meter.total += 4 - hx - hy
        return _LABELS[hx or x in xb][hy or y in yb]

    def minor_moves(self, key, label, theta):
        """Moves the loose conditions need after an update of `key` routed
        to `label`, as SinglePartition's, checked on both sides."""
        x, y = key[self.vx], key[self.vy]
        dx = self._side_move("X", x, label[0], theta)
        dy = self._side_move("Y", y, label[1], theta)
        if dx is None and dy is None:
            return None
        if dx is not None and dy is not None:
            # One update shifts each side's degree by one tuple, so both
            # sides can only break toward the same class.
            assert dx == dy
        return tuple((side, v, d) for side, v, d in (("X", x, dx), ("Y", y, dy))
                     if d is not None)

    def _side_move(self, side, value, cls, theta):
        """Move direction for a value of class `cls` on one side, or None."""
        slices = self._sides[side]
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

    def violation(self, side, value, theta):
        """The audit's check, as SinglePartition's, on one side."""
        deg, first = 0, None
        for i, slices in enumerate(self._sides[side]):
            s = slices.get(value)
            if s is not None:
                deg += len(s)
                if first is None:
                    first = i
        # the degree, then one membership test per part, heavy ones first,
        # up to the first that holds the value
        self.meter.total += 8 if first is None else 5 + first
        if first is None:
            return None
        if first < 2:
            return "to_light" if 2 * deg < theta else None
        return "to_heavy" if 2 * deg >= 3 * theta else None

    def violations(self, theta):
        out = []
        for side in ("X", "Y"):
            var, heavy_labs, light_labs = self._side(side)
            for labs in (heavy_labs, light_labs):
                vals = set()
                for lab in labs:
                    vals.update(self.parts[lab].index_keys((var,)))
                for v in sorted(vals):
                    d = self.violation(side, v, theta)
                    if d is not None:
                        out.append((side, v, d))
        return out

    def check_disjoint(self):
        for side in ("X", "Y"):
            var, heavy_labs, light_labs = self._side(side)
            hv = set()
            for lab in heavy_labs:
                hv.update(self.parts[lab].index_keys((var,)))
            lv = set()
            for lab in light_labs:
                lv.update(self.parts[lab].index_keys((var,)))
            assert not (hv & lv), f"{self.name}/{side}: shared values {hv & lv}"


# a double partition's part label by (X-side heavy, Y-side heavy)
_LABELS = (("LL", "LH"), ("HL", "HH"))


def move_target(label, side, direction):
    """Label a tuple moves to when `side` flips class in `direction`."""
    new = "H" if direction == "to_heavy" else "L"
    if len(label) == 1:
        return new
    if side == "X":
        return new + label[1]
    return label[0] + new


def strict_single(items, name, arity, index_cols, meter, theta, var=0):
    """Build a SinglePartition placing each value by its strict degree;
    each part is loaded in one pass, in the order of `items`."""
    buf = list(items)
    p = SinglePartition(name, arity, index_cols, meter, var=var)
    if not buf:  # empty parts; skipping the degree count keeps an empty build cheap
        return p
    deg = Counter(key[var] for key, _ in buf)
    heavy = {v for v, d in deg.items() if d >= theta}
    p._h.load([kv for kv in buf if kv[0][var] in heavy])
    p._l.load([kv for kv in buf if kv[0][var] not in heavy])
    return p


def strict_double(items, name, arity, index_cols, meter, theta, variables=(0, 1)):
    """Build a DoublePartition from the strict partitions on both variables,
    each part loaded in one pass, in the order of `items`."""
    buf = list(items)
    p = DoublePartition(name, arity, index_cols, meter, variables=variables)
    if not buf:  # empty parts; skipping the degree count keeps an empty build cheap
        return p
    vx, vy = variables
    degx = Counter(key[vx] for key, _ in buf)
    degy = Counter(key[vy] for key, _ in buf)
    hx = {v for v, d in degx.items() if d >= theta}
    hy = {v for v, d in degy.items() if d >= theta}
    groups = {lab: [] for lab in DoublePartition.labels}
    for kv in buf:
        key = kv[0]
        groups[_LABELS[key[vx] in hx][key[vy] in hy]].append(kv)
    for lab, group in groups.items():
        p.parts[lab].load(group)
    return p
