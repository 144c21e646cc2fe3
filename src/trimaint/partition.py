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
    """Heavy/light split of a binary relation on one variable."""

    kind = "single"
    labels = ("H", "L")

    def __init__(self, name, arity, index_cols, meter, var=0):
        self.name = name
        self.var = var
        self.parts = {
            lab: Relation(f"{name}^{lab}", arity, index_cols, meter)
            for lab in self.labels
        }
        self._h = self.parts["H"]
        self._l = self.parts["L"]
        self._cols = (var,)

    def part(self, lab):
        return self.parts[lab]

    def size(self):
        return len(self._h.entries) + len(self._l.entries)

    def total(self, key):
        return self._h.lookup(key) + self._l.lookup(key)

    def items(self):
        for p in self.parts.values():
            yield from p.items()

    def degree(self, side, value):
        assert side == "X"
        cols = self._cols
        return self._h.slice_count(cols, value) + self._l.slice_count(cols, value)

    def affected_label(self, key, epsilon):
        """Part an update with this tuple lands in (heavy wins ties)."""
        if epsilon == 0:
            return "H"
        return "H" if self._h.contains(self._cols, key[self.var]) else "L"

    def violation(self, side, value, theta):
        """Move direction needed to restore loose conditions, or None."""
        assert side == "X"
        cols = self._cols
        deg = self.degree(side, value)
        if self._h.contains(cols, value):
            if 2 * deg < theta:
                return "to_light"
        elif self._l.contains(cols, value):
            if 2 * deg >= 3 * theta:
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
    are evaluated on the total degree across all parts.
    """

    kind = "double"
    labels = ("HH", "HL", "LH", "LL")

    def __init__(self, name, arity, index_cols, meter, variables=(0, 1)):
        self.name = name
        self.vx, self.vy = variables
        self.parts = {
            lab: Relation(f"{name}^{lab}", arity, index_cols, meter)
            for lab in self.labels
        }
        hh, hl, lh, ll = self._all = tuple(self.parts.values())
        # per side: (column, its two heavy parts, its two light parts)
        self._sides = {
            "X": ((self.vx,), (hh, hl), (lh, ll)),
            "Y": ((self.vy,), (hh, lh), (hl, ll)),
        }

    def part(self, lab):
        return self.parts[lab]

    def size(self):
        hh, hl, lh, ll = self._all
        return len(hh.entries) + len(hl.entries) + len(lh.entries) + len(ll.entries)

    def total(self, key):
        hh, hl, lh, ll = self._all
        return hh.lookup(key) + hl.lookup(key) + lh.lookup(key) + ll.lookup(key)

    def items(self):
        for p in self.parts.values():
            yield from p.items()

    def _side(self, side):
        assert side in ("X", "Y")
        if side == "X":
            # Parts whose first letter is H hold the X-heavy values.
            return self.vx, ("HH", "HL"), ("LH", "LL")
        return self.vy, ("HH", "LH"), ("HL", "LL")

    def degree(self, side, value):
        cols = self._sides[side][0]
        hh, hl, lh, ll = self._all
        return (hh.slice_count(cols, value) + hl.slice_count(cols, value)
                + lh.slice_count(cols, value) + ll.slice_count(cols, value))

    def side_class(self, side, value):
        cols, (h1, h2), _ = self._sides[side]
        return "H" if h1.contains(cols, value) or h2.contains(cols, value) else "L"

    def affected_label(self, key, epsilon):
        if epsilon == 0:
            return "HH"
        xc = self.side_class("X", key[self.vx])
        yc = self.side_class("Y", key[self.vy])
        return xc + yc

    def violation(self, side, value, theta):
        cols, (h1, h2), (l1, l2) = self._sides[side]
        deg = self.degree(side, value)
        if h1.contains(cols, value) or h2.contains(cols, value):
            if 2 * deg < theta:
                return "to_light"
        elif l1.contains(cols, value) or l2.contains(cols, value):
            if 2 * deg >= 3 * theta:
                return "to_heavy"
        return None

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


def move_target(label, side, direction):
    """Label a tuple moves to when `side` flips class in `direction`."""
    new = "H" if direction == "to_heavy" else "L"
    if len(label) == 1:
        return new
    if side == "X":
        return new + label[1]
    return label[0] + new


def strict_single(items, name, arity, index_cols, meter, theta, var=0):
    """Build a SinglePartition placing each value by its strict degree."""
    buf = list(items)
    deg = Counter()
    for key, _ in buf:
        deg[key[var]] += 1
    p = SinglePartition(name, arity, index_cols, meter, var=var)
    for key, m in buf:
        lab = "H" if deg[key[var]] >= theta else "L"
        p.parts[lab].apply_delta(key, m)
    return p


def strict_double(items, name, arity, index_cols, meter, theta, variables=(0, 1)):
    """Build a DoublePartition from the strict partitions on both variables."""
    buf = list(items)
    vx, vy = variables
    degx = Counter()
    degy = Counter()
    for key, _ in buf:
        degx[key[vx]] += 1
        degy[key[vy]] += 1
    p = DoublePartition(name, arity, index_cols, meter, variables=variables)
    for key, m in buf:
        xc = "H" if degx[key[vx]] >= theta else "L"
        yc = "H" if degy[key[vy]] >= theta else "L"
        p.parts[xc + yc].apply_delta(key, m)
    return p
