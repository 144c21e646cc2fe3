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
from trimaint.store import Relation, slice_counter, walk_probe

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
    # labels of the left and the right part whose join is each pair view
    pair_labels = ("H", "L")
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
        llab, rlab = self.pair_labels
        for v in VIEW_NAMES:
            lname, rname = VIEW_RELS[v]
            fill_pair_view(
                self.views[v],
                self.parts[lname].part(llab),
                self.parts[rname].part(rlab),
            )
        merged = [self.merged_group(n, self.parts[n].labels) for n in ("R", "S", "T")]
        self.count = sum(prod for *_, prod in triangle_products(*merged))
        self._plan = None

    def query_result(self):
        self.meter.tick()
        return self.count

    # -- update processing ------------------------------------------------

    def _bind(self):
        """Bind each rotation's kernels to this build's parts and views.

        Per updated relation: the kernels that walk partner2's column-1
        slice at u0 and those that walk partner1's column-0 slice at u1,
        summed whole; the two counters and kernels of the case that walks
        whichever slice is shorter; the view of the O(1) case; and per
        part label, the view it maintains with the kernel that walks its
        partner.
        """
        meter = self.meter
        own, other = self.pair_labels
        self._plan = plan = {}
        for rel, (n1, n2) in ROTATION.items():
            p1, p2 = self.parts[n1].parts, self.parts[n2].parts
            h1, l1 = [p1[lab] for lab in self.heavy_group], [p1[lab] for lab in self.light_group]
            h2, l2 = [p2[lab] for lab in self.heavy_group], [p2[lab] for lab in self.light_group]
            at_u0, at_u1 = self._problem_walks(p1, p2)
            plan[rel] = (
                # both partners heavy: partner2's heavy slice is short
                (walk_probe(h2, 1, h1, meter), *at_u0),
                # both light: partner1's light slice is short
                (walk_probe(l1, 0, l2, meter), *at_u1),
                # partner1 light, partner2 heavy
                slice_counter(l1, 0, meter), slice_counter(h2, 1, meter),
                walk_probe(l1, 0, h2, meter), walk_probe(h2, 1, l1, meter),
                self.views[FAST_VIEW[rel]],
                {own: (self.views[OWN_VIEW[rel]], walk_probe([p1[other]], 0, (), meter), True),
                 other: (self.views[OTHER_VIEW[rel]], walk_probe([p2[own]], 1, (), meter), False)},
            )
        return plan

    def _problem_walks(self, p1, p2):
        """Kernels at u0 and at u1 of the (heavy, light) partner case
        besides the lookup in its view; single partitioning needs none."""
        return (), ()

    def apply_update(self, rel, label, key, m):
        assert m != 0
        if m < 0:
            self.precheck_delete(rel, label, key, m)
        u0, u1 = key
        at_u0, at_u1, count1, count2, lh1, lh2, fast, maintain = (self._plan or self._bind())[rel]

        # partner1 heavy, partner2 light: the materialized combination
        delta = fast.lookup((u1, u0))
        for walk in at_u0:
            for _, d in walk(u0, u1):
                delta += d
        for walk in at_u1:
            for _, d in walk(u1, u0):
                delta += d
        # partner1 light, partner2 heavy: walk whichever slice is shorter
        for _, d in (lh1(u1, u0) if count1(u1) <= count2(u0) else lh2(u0, u1)):
            delta += d
        self.count += m * delta

        # a tuple in the pair views' left part extends own-rotation pairs
        # (u0, w) over partner1's slice; one in the right part extends
        # (w, u1) over partner2's
        todo = maintain.get(label)
        if todo is not None:
            view, walk, left = todo
            if left:
                for w, ms in walk(u1):
                    view.apply_delta((u0, w), m * ms)
            else:
                for w, mt in walk(u0):
                    view.apply_delta((w, u1), m * mt)
        self.parts[rel].parts[label].apply_delta(key, m)
        self.version += 1


class NullaryDoubleEngine(NullaryEngine):
    """Count maintenance with R, S, T double-partitioned on both columns.

    Most delta cases treat the four parts as two groups by the first
    letter; the (heavy, light) partner combination splits into three
    bounded scans plus an O(1) lookup in the refined view.
    """

    query = "d0"
    heavy_group = ("HH", "HL")
    light_group = ("LH", "LL")
    pair_labels = ("HL", "LH")

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {
            name: strict_double(rel_items[name], name, 2, BASE_IDX, self.meter, th)
            for name in ("R", "S", "T")
        }

    def _problem_walks(self, p1, p2):
        meter = self.meter
        # partner2 light on both columns: short slice; partner1 heavy on
        # both columns: short in distinct summation values
        return ((walk_probe([p2["LL"]], 1, [p1["HL"]], meter),),
                (walk_probe([p1["HH"]], 0, [p2["LH"], p2["LL"]], meter),))
