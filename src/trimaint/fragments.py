"""Fragment-table engines: one interpreter for delta, init and audit.

A triangle query over R(A,B), S(B,C), T(C,A) splits into fragments by the
heavy/light labels of the three tuples that meet in a triangle. An engine
declares that split as a table of rows; this module derives partitions,
views, update steps and init joins from it.

Label groups name sets of part labels: one label ("H", "LH"), every label
with a given first letter ("H*" is HH and HL) or all of them ("*"). A
relation is partitioned on both columns when one of its groups names two
letters, else on its first column.

An update to X with key (u0, u1) meets next(X) in the R->S->T cycle
sliced on its first column at u1, and prev(X) sliced on its second column
at u0; the slice binds w, and (u0, u1, w) is the triangle in X's rotation
(VARS gives its variables).

  * `Direct(view, R, S, T, sides)` is a materialized result keyed by the
    engine's output variables. `sides` has one letter per updated
    relation: "N" walks next(X)'s slice and looks prev(X) up, "P" walks
    prev(X)'s slice and looks next(X) up. The letter names the slice the
    partition bounds (by theta for a light value, by N/theta for the heavy
    values), so it carries the update-time bound.
  * `Tree(left, lgroup, rgroup, ...)` is a view tree. The left relation X
    joins the right one next(X) on y into a pair view keyed (x, y, z),
    kept only where enumeration walks it; y is summed away into a hat view
    keyed (x, z); the third relation prev(X), all parts, closes the cycle
    at (z, x) into a top view keyed by x and/or z in output order. A left
    update walks the right group's slice, a right update the left group's,
    and a third update looks the hat up once. A tree with a root as well
    has buckets: its top is walked per root value and `bsz_<tree>` holds
    each root value's bucket size.

The init path joins every direct fragment with `triangle_products` and
fills every tree bottom up; `EngineBase.verify_views` reruns it on a copy.
"""

from __future__ import annotations

from operator import itemgetter

from trimaint.base import EngineBase
from trimaint.iterators import EOF, KeyIterator, UnionIterator
from trimaint.joins import triangle_products
from trimaint.partition import DoublePartition, SinglePartition, strict_double, strict_single
from trimaint.store import Relation, walk_probe

RELS = ("R", "S", "T")
BASE_IDX = ((0,), (1,))
# next and previous relation in the R->S->T cycle
ROTATION = {"R": ("S", "T"), "S": ("T", "R"), "T": ("R", "S")}
# the variables of (u0, u1, w) for an update to each relation, which are
# also the (x, y, z) of a tree with that left relation
VARS = {"R": "abc", "S": "bca", "T": "cab"}


def projector(src, dst):
    """Getter from a tuple over the variables `src` to the tuple over `dst`."""
    pos = [src.index(v) for v in dst]
    if len(pos) == 1:
        return itemgetter(slice(pos[0], pos[0] + 1))
    return itemgetter(*pos)


def group_labels(labels, group):
    if group == "*":
        return labels
    if group[-1] == "*":
        return tuple(lab for lab in labels if lab[0] == group[0])
    return (group,)


class Direct:
    """Materialized fragment: view name, R/S/T groups, side walked per update."""

    def __init__(self, view, r, s, t, sides):
        self.view = view
        self.groups = dict(zip(RELS, (r, s, t)))
        self.sides = dict(zip(RELS, sides))


class Tree:
    """View tree row: left relation and group, right group, and view names.

    `key` gives the top view's variables; a bucketed tree also names its
    root and the root's variable.
    """

    def __init__(self, left, lgroup, rgroup, pair, hat, top, key, root=None, root_key=None):
        self.left = left
        self.right, self.third = ROTATION[left]
        self.groups = {left: lgroup, self.right: rgroup, self.third: "*"}
        self.name = (left + self.right).lower()
        self.pair, self.hat, self.top, self.key = pair, hat, top, key
        self.root, self.root_key = root, root_key
        self.bsz = root and "bsz_" + self.name
        self.xyz = xyz = VARS[left]
        xz = xyz[0] + xyz[2]
        self.abc_of = projector(xyz, "abc")  # pair key -> (a, b, c)
        self.top_of = projector(xz, key)  # hat key -> top key
        self.hat_of = projector(key, xz) if len(key) == 2 else None
        self.root_of = root and projector(xz, root_key)
        self.root_pos = root and xz.index(root_key)  # root variable in the hat key


def _direct_step(kernel, next_side, view, key):
    """Update step of a direct fragment: the kernel walks next(X)'s slice
    at u1 and probes prev(X), or walks prev(X)'s at u0 and probes next(X)."""
    def step(u0, u1, m):
        for w, d in (kernel(u1, u0) if next_side else kernel(u0, u1)):
            view.apply_delta(key((u0, u1, w)), m * d)
    return step


def _from_left(kernel, cascade):
    def step(u0, u1, m):
        for w, mr in kernel(u1):
            cascade(u0, u1, w, m * mr)
    return step


def _from_right(kernel, cascade):
    def step(u0, u1, m):
        for w, ml in kernel(u0):
            cascade(w, u0, u1, ml * m)
    return step


def _plain_tree(t, pair, hat, top, total, meter):
    """(cascade, close) for a tree without buckets."""
    top_of = t.top_of

    def cascade(x, y, z, d):
        if pair is not None:
            pair.apply_delta((x, y, z), d)
        hat.apply_delta((x, z), d)
        tm = total((z, x))
        if tm:
            meter.total += 1
            top.apply_delta(top_of((x, z)), d * tm)

    def close(u0, u1, m):
        v = hat.lookup((u1, u0))
        if v:
            top.apply_delta(top_of((u1, u0)), m * v)

    return cascade, close


def _bucketed_tree(t, pair, hat, top, total, meter, root, bsz):
    """(cascade, close) for a tree whose top is walked per root value.

    A bucket holds the pair entries under the top entries of one root
    value, so its size moves with the pair slice under a top entry and
    with that entry appearing or vanishing.
    """
    top_of, root_of, root_pos = t.top_of, t.root_of, t.root_pos

    def grow(c, delta):
        if delta:
            v = bsz.get(c, 0) + delta
            assert v >= 0
            if v:
                bsz[c] = v
            else:
                bsz.pop(c, None)

    def cascade(x, y, z, d):
        hk = (x, z)
        ck = top_of(hk)
        cnt = pair.slice_count((0, 2), hk)
        old = top.lookup(ck)
        pair.apply_delta((x, y, z), d)
        hat.apply_delta(hk, d)
        tm = total((z, x))
        if tm:
            meter.total += 1
            top.apply_delta(ck, d * tm)
            root.apply_delta(root_of(hk), d * tm)
        new = pair.slice_count((0, 2), hk)
        grow(hk[root_pos], (new if top.lookup(ck) else 0) - (cnt if old else 0))

    def close(u0, u1, m):
        hk = (u1, u0)
        v = hat.lookup(hk)
        if not v:
            return
        ck = top_of(hk)
        cnt = pair.slice_count((0, 2), hk)
        old = top.lookup(ck)
        top.apply_delta(ck, m * v)
        root.apply_delta(root_of(hk), m * v)
        grow(hk[root_pos], ((1 if top.lookup(ck) else 0) - (1 if old else 0)) * cnt)

    return cascade, close


class FragmentEngine(EngineBase):
    """An engine run from its fragment table (see the module docstring).

    Subclasses set `query`, `out` (the output variables in order) and
    their `direct` and `trees` rows. Label sets, view specs, init joins and
    the update plan are worked out once per class; the plan is bound to a
    build's parts and views by the first update after the build.

    Enumeration here is a union over the keyed result views plus one hop
    union per pair tree, for which a subclass provides `_hop_union(tree,
    check)` and `multiplicity(key)`; an engine that enumerates otherwise
    (d3) overrides `enumerate_result`.
    """

    out = ""
    direct = ()
    trees = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        rows = cls.direct + cls.trees
        cls.labels = {
            rel: (DoublePartition if any(len(row.groups[rel]) == 2 for row in rows)
                  else SinglePartition).labels
            for rel in RELS
        }

        def group(rel, g):
            return rel, group_labels(cls.labels[rel], g)

        # (name, arity, index columns, linked columns) of every Relation view
        views = [(f.view, len(cls.out), (), ()) for f in cls.direct]
        for t in cls.trees:
            if t.pair and len(cls.out) < 3:
                # hop iterators step through a pair's (x, z) slices, and
                # candidate buckets slice it on the output variables
                views.append((t.pair, 3, ((0, 2), tuple(map(t.xyz.index, cls.out))), ((0, 2),)))
            elif t.pair:
                views.append((t.pair, 3, ((0, 2),), ()))
            views.append((t.hat, 2, (), ()))
            if t.root:
                # a bucket steps through the top's slice at its root value
                idx = ((t.key.index(t.root_key),),)
                views += [(t.top, len(t.key), idx, idx), (t.root, 1, (), ())]
            else:
                views.append((t.top, len(t.key), (), ()))
        cls._views = tuple(views)
        cls._bsz = tuple(t.bsz for t in cls.trees if t.root)
        cls.view_names = tuple(v[0] for v in views) + cls._bsz
        # views enumerated by key: the direct ones and the pair-less tops
        cls.results = tuple(f.view for f in cls.direct) + tuple(
            t.top for t in cls.trees if t.pair is None)

        # init joins: (view, R, S and T groups), a group being (relation,
        # labels); tree fills: (tree, left group, right group); update
        # steps: (relation, labels it runs for, kind, row, walked group,
        # looked-up group, result key from (u0, u1, w))
        cls._out_of_abc = projector("abc", cls.out)
        cls._joins = tuple((f.view, [group(rel, f.groups[rel]) for rel in RELS])
                           for f in cls.direct)
        fills, plan = [], []
        for f in cls.direct:
            for rel in RELS:
                nxt, prv = ROTATION[rel]
                walked, looked = (nxt, prv) if f.sides[rel] == "N" else (prv, nxt)
                plan.append((*group(rel, f.groups[rel]), f.sides[rel], f,
                             group(walked, f.groups[walked]), group(looked, f.groups[looked]),
                             projector(VARS[rel], cls.out)))
        for t in cls.trees:
            left, right = group(t.left, t.groups[t.left]), group(t.right, t.groups[t.right])
            fills.append((t, left, right))
            plan += [(*left, "left", t, right, None, None),
                     (*right, "right", t, left, None, None),
                     (*group(t.third, "*"), "close", t, None, None, None)]
        cls._fills, cls._plan = tuple(fills), tuple(plan)

    def __init__(self, epsilon, meter=None):
        super().__init__(epsilon, meter)
        self._fresh_views()
        self._build_partitions({"R": [], "S": [], "T": []})

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {
            rel: (strict_double if len(self.labels[rel]) == 4 else strict_single)(
                rel_items[rel], rel, 2, BASE_IDX, self.meter, th)
            for rel in RELS
        }

    def _fresh_views(self):
        m = self.meter
        for name, arity, idx, linked in self._views:
            setattr(self, name, Relation(name, arity, idx, m, linked))
        for name in self._bsz:
            setattr(self, name, {})
        self._steps = None

    # -- init path --------------------------------------------------------

    def _recompute_views(self):
        self._fresh_views()
        parts, merged = self.parts, {}

        def join_input(group):
            rel, labels = group
            if len(labels) == 1:
                return parts[rel].parts[labels[0]]
            if group not in merged:
                merged[group] = self.merged_group(rel, labels)
            return merged[group]

        key = self._out_of_abc
        for name, groups in self._joins:
            view = getattr(self, name)
            for a, b, c, prod in triangle_products(*map(join_input, groups)):
                view.apply_delta(key((a, b, c)), prod)
        for t, left, right in self._fills:
            pair = getattr(self, t.pair) if t.pair else None
            hat, top = getattr(self, t.hat), getattr(self, t.top)
            root = getattr(self, t.root) if t.root else None
            right = join_input(right)
            for (x, y), ml in join_input(left).items():
                for (_, z), mr in right.slice_items((0,), y):
                    if pair is not None:
                        pair.apply_delta((x, y, z), ml * mr)
                    hat.apply_delta((x, z), ml * mr)
            third = parts[t.third]
            for (x, z), v in hat.items():
                tm = third.total((z, x))
                if tm:
                    top.apply_delta(t.top_of((x, z)), v * tm)
                    if root is not None:
                        root.apply_delta(t.root_of((x, z)), v * tm)
            if root is not None:
                bsz = getattr(self, t.bsz)
                for ck, _ in top.items():
                    hk = t.hat_of(ck)
                    c = hk[t.root_pos]
                    bsz[c] = bsz.get(c, 0) + pair.slice_count((0, 2), hk)

    # -- update processing ------------------------------------------------

    def _bind(self):
        """Bind the class's update plan to this build's parts and views."""
        parts, meter = self.parts, self.meter

        def members(group):
            rel, labels = group
            return [parts[rel].parts[lab] for lab in labels]

        trees = {t: self._tree(t) for t in self.trees}
        steps = {rel: {lab: [] for lab in self.labels[rel]} for rel in RELS}
        for rel, labels, kind, row, walk, look, key in self._plan:
            if kind in ("N", "P"):
                kernel = walk_probe(members(walk), 0 if kind == "N" else 1, members(look), meter)
                step = _direct_step(kernel, kind == "N", getattr(self, row.view), key)
            elif kind == "close":
                step = trees[row][1]
            elif kind == "left":
                step = _from_left(walk_probe(members(walk), 0, (), meter), trees[row][0])
            else:
                step = _from_right(walk_probe(members(walk), 1, (), meter), trees[row][0])
            for lab in labels:
                steps[rel][lab].append(step)
        self._steps = {rel: {lab: tuple(s) for lab, s in d.items()} for rel, d in steps.items()}
        return self._steps

    def _tree(self, t):
        pair, hat, top = (getattr(self, n) if n else None for n in (t.pair, t.hat, t.top))
        total = self.parts[t.third].total
        if t.root:
            return _bucketed_tree(t, pair, hat, top, total, self.meter,
                                  getattr(self, t.root), getattr(self, t.bsz))
        return _plain_tree(t, pair, hat, top, total, self.meter)

    def apply_update(self, rel, label, key, m):
        assert m != 0
        if m < 0:
            self.precheck_delete(rel, label, key, m)
        u0, u1 = key
        for step in (self._steps or self._bind())[rel][label]:
            step(u0, u1, m)
        self.parts[rel].parts[label].apply_delta(key, m)
        self.version += 1

    # -- enumeration ------------------------------------------------------

    def open_union(self):
        """Union of the keyed result views and one hop union per pair tree."""
        check = self.guard()
        iters = [KeyIterator(getattr(self, name), check) for name in self.results]
        iters += [self._hop_union(t, check) for t in self.trees if t.pair]
        return UnionIterator(iters, self.meter, check)

    def enumerate_result(self):
        """Iterator of (key, multiplicity), each result key exactly once."""
        u = self.open_union()

        def gen():
            while True:
                t = u.next()
                if t is EOF:
                    return
                yield t, self.multiplicity(t)

        return gen()

    def query_result(self):
        return dict(self.enumerate_result())
