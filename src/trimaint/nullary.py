"""Triangle-count maintenance over single- or double-partitioned relations.

The update procedure is one routine applied under the rotation symmetry of
the triangle query: an update to K joins through partner1 (the next
relation in the R->S->T cycle, sliced on its first column) and partner2
(the previous one, sliced on its second column). Three binary views cover
the one delta case per rotation that neither slice bounds.
"""

from __future__ import annotations

from trimaint.base import EngineBase
from trimaint.joins import triangle_products
from trimaint.partition import strict_double, strict_single
from trimaint.store import Relation

BASE_IDX = ((0,), (1,))

# partner1 is sliced on col0 at the update's second value, partner2 on
# col1 at the first value; the summation variable is the other column.
ROTATION = {"R": ("S", "T"), "S": ("T", "R"), "T": ("R", "S")}

# view consulted for the O(1) delta case, keyed (u1, u0)
FAST_VIEW = {"R": "ST", "S": "TR", "T": "RS"}
# view maintained when the update lands in the heavy part (HL part when
# double-partitioned): keyed (u0, w) over partner1's light slice
OWN_VIEW = {"R": "RS", "S": "ST", "T": "TR"}
# view maintained when it lands in the light part (LH when double):
# keyed (w, u1) over partner2's heavy slice
OTHER_VIEW = {"R": "TR", "S": "RS", "T": "ST"}

VIEW_NAMES = ("RS", "ST", "TR")

# (left part label, right part label) whose pairwise join defines each view
VIEW_JOIN_SINGLE = {"RS": ("H", "L"), "ST": ("H", "L"), "TR": ("H", "L")}
VIEW_JOIN_DOUBLE = {"RS": ("HL", "LH"), "ST": ("HL", "LH"), "TR": ("HL", "LH")}
VIEW_RELS = {"RS": ("R", "S"), "ST": ("S", "T"), "TR": ("T", "R")}


def fill_pair_view(view, left, right):
    """view[(x, z)] += left(x, y) * right(y, z), resolving y through right's
    first-column index."""
    for (x, y), ml in left.items():
        for (_, z), mr in right.slice_items((0,), y):
            view.apply_delta((x, z), ml * mr)


class NullaryEngine(EngineBase):
    """Count maintenance with R, S, T each single-partitioned."""

    query = "d0"
    heavy_group = ("H",)
    light_group = ("L",)
    view_join = VIEW_JOIN_SINGLE
    view_names = ("views", "count")

    def __init__(self, epsilon, meter=None):
        super().__init__(epsilon, meter)
        self.count = 0
        self.views = {}
        self._build_partitions({"R": [], "S": [], "T": []})
        self._recompute_views()

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {
            name: strict_single(rel_items[name], name, 2, BASE_IDX, self.meter, th)
            for name in ("R", "S", "T")
        }

    def _recompute_views(self):
        self.views = {
            v: Relation("V_" + v, 2, (), self.meter) for v in VIEW_NAMES
        }
        for v in VIEW_NAMES:
            lname, rname = VIEW_RELS[v]
            llab, rlab = self.view_join[v]
            fill_pair_view(
                self.views[v],
                self.parts[lname].part(llab),
                self.parts[rname].part(rlab),
            )
        merged = [self.merged_group(n, self.parts[n].labels) for n in ("R", "S", "T")]
        self.count = sum(prod for *_, prod in triangle_products(*merged))

    def query_result(self):
        self.meter.tick()
        return self.count

    # -- update processing ------------------------------------------------

    def apply_update(self, rel, label, key, m):
        assert m != 0
        self.precheck_delete(rel, label, key, m)
        u0, u1 = key
        p1 = self.parts[ROTATION[rel][0]]
        p2 = self.parts[ROTATION[rel][1]]
        meter = self.meter
        hg, lg = self.heavy_group, self.light_group

        delta = 0
        # both partners heavy: partner2's heavy slice is short
        for (w, _), mt in self._slice_group(p2, hg, (1,), u0):
            ms = self._lookup_group(p1, hg, (u1, w))
            if ms:
                meter.tick()
                delta += ms * mt
        # partner1 heavy, partner2 light
        delta += self._problem_case(rel, p1, p2, u0, u1)
        # partner1 light, partner2 heavy: iterate whichever side is shorter
        if self._count_group(p1, lg, (0,), u1) <= self._count_group(p2, hg, (1,), u0):
            for (_, w), ms in self._slice_group(p1, lg, (0,), u1):
                mt = self._lookup_group(p2, hg, (w, u0))
                if mt:
                    meter.tick()
                    delta += ms * mt
        else:
            for (w, _), mt in self._slice_group(p2, hg, (1,), u0):
                ms = self._lookup_group(p1, lg, (u1, w))
                if ms:
                    meter.tick()
                    delta += ms * mt
        # both light: partner1's light slice is short
        for (_, w), ms in self._slice_group(p1, lg, (0,), u1):
            mt = self._lookup_group(p2, lg, (w, u0))
            if mt:
                meter.tick()
                delta += ms * mt

        self.count += m * delta
        self._maintain_views(rel, label, u0, u1, m, p1, p2)
        self.parts[rel].part(label).apply_delta(key, m)
        self.version += 1

    def _problem_case(self, rel, p1, p2, u0, u1):
        # single partitioning: one view lookup covers (heavy, light)
        return self.views[FAST_VIEW[rel]].lookup((u1, u0))

    def _maintain_views(self, rel, label, u0, u1, m, p1, p2):
        if label == "H":
            v = self.views[OWN_VIEW[rel]]
            for (_, w), ms in p1.part("L").slice_items((0,), u1):
                v.apply_delta((u0, w), m * ms)
        else:
            v = self.views[OTHER_VIEW[rel]]
            for (w, _), mt in p2.part("H").slice_items((1,), u0):
                v.apply_delta((w, u1), m * mt)


class NullaryDoubleEngine(NullaryEngine):
    """Count maintenance with R, S, T double-partitioned on both columns.

    Most delta cases treat the four parts as two groups by the first
    letter; the (heavy, light) partner combination splits into three
    bounded scans plus an O(1) lookup in the refined view.
    """

    query = "d0"
    heavy_group = ("HH", "HL")
    light_group = ("LH", "LL")
    view_join = VIEW_JOIN_DOUBLE

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {
            name: strict_double(rel_items[name], name, 2, BASE_IDX, self.meter, th)
            for name in ("R", "S", "T")
        }

    def _problem_case(self, rel, p1, p2, u0, u1):
        meter = self.meter
        delta = 0
        # partner1 heavy on both columns: short in distinct summation values
        for (_, w), ms in p1.part("HH").slice_items((0,), u1):
            mt = self._lookup_group(p2, ("LH", "LL"), (w, u0))
            if mt:
                meter.tick()
                delta += ms * mt
        # partner2 light on both columns: short slice
        for (w, _), mt in p2.part("LL").slice_items((1,), u0):
            ms = p1.part("HL").lookup((u1, w))
            if ms:
                meter.tick()
                delta += ms * mt
        # the remaining combination is materialized
        delta += self.views[FAST_VIEW[rel]].lookup((u1, u0))
        return delta

    def _maintain_views(self, rel, label, u0, u1, m, p1, p2):
        if label == "HL":
            v = self.views[OWN_VIEW[rel]]
            for (_, w), ms in p1.part("LH").slice_items((0,), u1):
                v.apply_delta((u0, w), m * ms)
        elif label == "LH":
            v = self.views[OTHER_VIEW[rel]]
            for (w, _), mt in p2.part("HL").slice_items((1,), u0):
                v.apply_delta((w, u1), m * mt)
