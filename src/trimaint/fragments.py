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

  * `Direct(R, S, T, sides)` is a fragment written into the engine's
    result view `res`, keyed by the output variables. `sides` has one
    letter per updated relation: "N" walks next(X)'s slice and looks
    prev(X) up, "P" walks prev(X)'s slice and looks next(X) up. The
    letter names the slice the partition bounds (by theta for a light
    value, by N/theta for the heavy values), so it carries the
    update-time bound. The step's kernel may walk the other side instead
    when that side's slices are shorter (see `store.walk_probe`), which
    never costs more, so the letter's bound still holds.
  * `Tree(left, lgroup, rgroup, hat, key, ...)` is a view tree. The left
    relation X joins the right one next(X) on y into a pair view keyed
    (x, y, z), kept only where enumeration walks it; y is summed away into
    a hat view keyed (x, z); the third relation prev(X), all parts, closes
    the cycle at (z, x) into a top view keyed by `key`, x and/or z in
    output order. A tree without a pair view writes its top into the
    result, so its key is the output variables. A left update walks the
    right group's slice, a right update the left group's, and a third
    update looks the hat up once. A tree with a root as well has buckets:
    its top is walked per root value and `bsz_<tree>` holds each root
    value's bucket size.

The init path joins every direct fragment with `triangle_products` and
fills every tree bottom up; `verify_views` reruns it on a copy.
It collects what each view receives and fills the view with one
`Relation.load`, `res` last, from the direct joins and the pair-less
tops; a group of several parts is joined through one merged copy. Its
charges are those of the same reads and writes made one by one, added
in bulk, so a build's ops do not depend on how it is carried out.

A table with no output variables (`out = ""`, d0's count) has a scalar
output: every direct fragment and every tree top (its trees have no pair
view) adds into one integer, `count`. Each direct or tree step walks its
slice once and adds the probed sum, a tree step also writing every walked
tuple into the hat; a close step looks the hat up. Writes to `count` are
O(1) bookkeeping and are not metered.

Every fragment value is a product of nonnegative multiplicities, so the
sum `res` holds for a tuple is nonzero exactly when one of the fragments
written into it is: keeping them apart would buy nothing at read time.
Enumeration (`KeyedEngine`) of an engine with one
or two output variables is a union of `res`'s keys and one hop union per
pair tree, whose buckets are keyed by the tree's root value, or by its
top key for a tree without a root. A tuple's multiplicity is its value in
`res` plus, per pair tree, the pair slice at the tuple closed by the
third relation's totals. Each pair tree's candidate rule keeps the slice
entries it walked for the last tuple it saw; a repeated call at that
tuple, and `multiplicity`, reuse them while the engine version stands.
An emitted tuple's slice is then walked once per pair tree, unless the
tree's rule moved on after probing it: in d2 a later hop union can emit
a tuple that the first one probed and then stepped past.
"""

from __future__ import annotations

import copy
from operator import itemgetter

from trimaint.iterators import EOF, HopUnionIterator, KeyIterator, StaleIterator, UnionIterator
from trimaint.joins import triangle_products
from trimaint.partition import BASE_IDX, DoublePartition, SinglePartition, Threshold
from trimaint.store import CostMeter, RejectedDelete, Relation, entry_list, walk_probe, walk_sum

RELS = ("R", "S", "T")
# next and previous relation in the R->S->T cycle
ROTATION = {"R": ("S", "T"), "S": ("T", "R"), "T": ("R", "S")}
# the variables of (u0, u1, w) for an update to each relation, which are
# also the (x, y, z) of a tree with that left relation
VARS = {"R": "abc", "S": "bca", "T": "cab"}


def projector(src, dst):
    """Getter from a tuple over the variables `src` to the tuple over `dst`,
    or None when `dst` is empty (a scalar output)."""
    if not dst:
        return None
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
    """Materialized fragment: R/S/T groups, side walked per update."""

    def __init__(self, r, s, t, sides):
        self.groups = dict(zip(RELS, (r, s, t)))
        self.sides = dict(zip(RELS, sides))


class Tree:
    """View tree row: left relation and group, right group, hat view name
    and the top's variables `key`.

    A pair tree also names its pair and top views, and a bucketed one its
    root and the root's variable. A tree without a pair view writes its
    top into the result: `res`, or `count` for a scalar output.
    """

    def __init__(self, left, lgroup, rgroup, hat, key, pair=None, top=None, root=None,
                 root_key=None):
        self.left = left
        self.right, self.third = ROTATION[left]
        self.groups = {left: lgroup, self.right: rgroup, self.third: "*"}
        self.name = (left + self.right).lower()
        self.pair, self.hat, self.top, self.key = pair, hat, top or "res", key
        self.root, self.root_key = root, root_key
        self.bsz = root and "bsz_" + self.name
        self.xyz = xyz = VARS[left]
        xz = xyz[0] + xyz[2]
        self.abc_of = projector(xyz, "abc")  # pair key -> (a, b, c)
        self.top_of = projector(xz, key)  # hat key -> top key
        self.hat_of = projector(key, xz) if len(key) == 2 else None
        self.root_of = root and projector(xz, root_key)
        self.root_pos = root and xz.index(root_key)  # root variable in the hat key
        self.root_idx = root and (key.index(root_key),)  # the top's index on it
        self.third_of = projector(xyz, xyz[2] + xyz[0])  # pair key -> (z, x)


def _direct_step(kernel, next_side, view, key):
    """Update step of a direct fragment: the kernel intersects next(X)'s
    slice at u1 with prev(X)'s at u0, walking the side its letter names
    unless the other is shorter."""
    def step(u0, u1, m):
        for w, d in (kernel(u1, u0) if next_side else kernel(u0, u1)):
            view.apply_delta(key((u0, u1, w)), m * d)
    return step


def _sum_step(eng, kernel, next_side):
    """`_direct_step` into a scalar output: the hits summed, written once."""
    def step(u0, u1, m):
        hits = kernel(u1, u0) if next_side else kernel(u0, u1)
        eng.count += m * sum([d for _, d in hits])
    return step


def _scalar_tree_step(eng, kernel, next_side, hat):
    """Left (next_side) or right step of a scalar tree, from one `walk_sum`."""
    def step(u0, u1, m):
        walked, s = kernel(u1, u0) if next_side else kernel(u0, u1)
        for hk, d in walked:
            hat.apply_delta(hk, m * d)
        eng.count += m * s
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
        # the pair entry appeared iff its new value is d, vanished iff 0
        pv = pair.apply_delta((x, y, z), d)
        new = cnt + (pv == d) - (pv == 0)
        hat.apply_delta(hk, d)
        tm = total((z, x))
        if tm:
            meter.total += 1
            # a write returns the new value; the old is it less the delta
            new_top = top.apply_delta(ck, d * tm)
            old = new_top - d * tm
            root.apply_delta(root_of(hk), d * tm)
        else:
            old = new_top = top.lookup(ck)
        grow(hk[root_pos], (new if new_top else 0) - (cnt if old else 0))

    def close(u0, u1, m):
        hk = (u1, u0)
        v = hat.lookup(hk)
        if not v:
            return
        ck = top_of(hk)
        cnt = pair.slice_count((0, 2), hk)
        new = top.apply_delta(ck, m * v)
        old = new - m * v
        root.apply_delta(root_of(hk), m * v)
        grow(hk[root_pos], ((1 if new else 0) - (1 if old else 0)) * cnt)

    return cascade, close


def _candidate_rule(eng, walk, cols, bucket_of, bucket_lookup):
    """(candidates, kept) of a pair tree. `candidates(x)` gives the bucket
    key of each pair entry at the output tuple x whose root (top, for a
    rootless tree) is nonzero.

    `kept` holds the last walk: x, the engine version it ran at, the
    (pair key, value) entries and the bucket keys. A call at the same x
    and version returns the kept keys without walking again.
    """
    kept = [None, None, (), ()]

    def candidates(x):
        if kept[1] == eng.version and kept[0] == x:
            return kept[3]
        entries = list(walk(cols, x[0] if len(x) == 1 else x))
        out = []
        for pk, _v in entries:
            k = bucket_of(pk)
            if bucket_lookup(k):
                out.append(k)
        kept[:] = x, eng.version, entries, out
        return out
    return candidates, kept


class Bucket:
    """Hop-iterator collection of one bucket of a pair tree: the output
    tuples under one root value, or under one top entry for a tree without
    a root.

    Level 1 walks the top view's linked slice at the root value; a rootless
    bucket is its one top entry, at no cost. Level 2 walks the pair view's
    linked (0, 2) slice at each top entry's (x, z). An element followed by
    the bucket key gives the pair and top keys.
    """

    __slots__ = ("_pair", "_top", "_key", "_idx", "_hat", "_pk", "_ck", "_elem")

    def __init__(self, pair, top, key, idx, keys):
        self._pair, self._top, self._key, self._idx = pair, top, key, idx
        # top key -> (x, z), element + bucket key -> pair and top keys,
        # pair key -> element
        self._hat, self._pk, self._ck, self._elem = keys

    def _head(self, ck):
        if ck is None:
            return None
        return self._elem(self._pair.slice_head((0, 2), self._hat(ck)))

    def first(self):
        if self._idx is None:
            return self._head(self._key)
        return self._head(self._top.slice_head(self._idx, self._key[0]))

    def successor(self, x):
        full = x + self._key
        nk = self._pair.slice_next((0, 2), self._pk(full))
        if nk is not None:
            return self._elem(nk)
        if self._idx is None:
            return None
        return self._head(self._top.slice_next(self._idx, self._ck(full)))

    def contains(self, x):
        full = x + self._key
        if self._idx is not None and not self._top.lookup(self._ck(full)):
            return False
        return self._pair.lookup(self._pk(full)) != 0


class FragmentEngine:
    """An engine run from its fragment table (see the module docstring).

    Subclasses set `query`, `out` (the output variables in order, empty
    for a count) and their `direct` and `trees` rows. Label sets, view
    specs, init joins, the update plan and the enumeration's bucket
    layouts are worked out once per class; the update plan is bound to a
    build's parts and views on first update after the build. A keyed
    output is read through `KeyedEngine`; a scalar one is `count`.

    An engine holds its threshold, a version that every update and
    rebuild advances, and |D| as `size`: `rebuild` sets it from the fresh
    parts and `apply_update` moves it as keys appear and vanish, so the
    driver reads |D| without recounting. The driver owns threshold-base
    management and rebalancing; engines only apply updates and rebuild.
    """

    query = None
    out = ""
    direct = ()
    trees = ()

    def __init__(self, epsilon, meter=None):
        self.epsilon = epsilon
        self.meter = meter if meter is not None else CostMeter()
        self.threshold = Threshold(1, epsilon)
        self.version = 0
        self.parts = {}
        self.size = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        rows = cls.direct + cls.trees
        # each relation's partition shape: double when a row groups it by
        # two letters
        cls.shapes = {
            rel: (DoublePartition if any(len(row.groups[rel]) == 2 for row in rows)
                  else SinglePartition)
            for rel in RELS
        }
        cls.labels = {rel: shape.labels for rel, shape in cls.shapes.items()}

        def group(rel, g):
            return rel, group_labels(cls.labels[rel], g)

        # (name, arity, index columns, linked columns) of every Relation view
        views = [("res", len(cls.out), (), ())] if cls.out else []
        # pair trees enumerated by a hop union: (pair columns of the output
        # variables, pair key -> bucket key, Bucket projections)
        cls._hops = {}
        for t in cls.trees:
            if t.pair and len(cls.out) < 3:
                # buckets step through the pair's (x, z) slices, and the
                # candidate rule slices it on the output variables
                cols = tuple(map(t.xyz.index, cls.out))
                bucket_vars = t.root_key or t.key
                full = cls.out + bucket_vars
                cls._hops[t] = (cols, projector(t.xyz, bucket_vars), (
                    t.hat_of, projector(full, t.xyz), projector(full, t.key),
                    projector(t.xyz, cls.out)))
                views.append((t.pair, 3, ((0, 2), cols), ((0, 2),)))
            elif t.pair:
                views.append((t.pair, 3, ((0, 2),), ()))
            views.append((t.hat, 2, (), ()))
            if t.root:
                # a bucket steps through the top's slice at its root value
                idx = (t.root_idx,)
                views += [(t.top, len(t.key), idx, idx), (t.root, 1, (), ())]
            elif t.pair:
                views.append((t.top, len(t.key), (), ()))
        cls._views = tuple(views)
        cls._bsz = tuple(t.bsz for t in cls.trees if t.root)
        cls.view_names = tuple(v[0] for v in views) + cls._bsz + ("count",) * (not cls.out)

        # init joins: the R, S and T groups, a group being (relation,
        # labels); tree fills: (tree, left group, right group); update
        # steps: (relation, labels it runs for, kind, row, walked group,
        # looked-up group or a tree's third, result key from (u0, u1, w))
        cls._out_of_abc = projector("abc", cls.out)
        cls._joins = tuple([group(rel, f.groups[rel]) for rel in RELS] for f in cls.direct)
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
            third = group(t.third, "*")
            fills.append((t, left, right))
            plan += [(*left, "left", t, right, third, None),
                     (*right, "right", t, left, third, None),
                     (*third, "close", t, None, None, None)]
        cls._fills, cls._plan = tuple(fills), tuple(plan)

    @classmethod
    def from_database(cls, rd, sd, td, epsilon, meter=None):
        """Build a state for an existing database: N = 2|D|+1, strict parts.

        rd, sd and td are dicts from key to multiplicity. Raises ValueError,
        before anything is built, unless every key is a tuple of two values
        and every multiplicity a positive int. This is how an engine is
        made: the constructor alone builds no parts and no views.
        """
        dbs = {"R": rd, "S": sd, "T": td}
        for rel, d in dbs.items():
            reason = _refused(rel, d)
            if reason is not None:
                raise ValueError(reason)
        eng = cls(epsilon, meter)
        eng.rebuild({rel: list(d.items()) for rel, d in dbs.items()},
                    2 * (len(rd) + len(sd) + len(td)) + 1)
        return eng

    def rebuild(self, rel_items, N):
        """Strictly repartition from scratch and recompute every view."""
        self.threshold.rebase(N)
        self._build_partitions(rel_items)
        self.size = sum(p.size() for p in self.parts.values())
        self._recompute_views()
        self.version += 1

    def db_size(self):
        return self.size

    def rel_items(self):
        """Every part's (key, m) pairs by relation, each partition's parts
        in label order."""
        return {name: entry_list(p.parts.values(), self.meter) for name, p in self.parts.items()}

    def verify_views(self):
        """Raise AssertionError unless every view equals its recomputation.

        The views are recomputed from the current parts through the init
        path, on a shallow copy, so parts, views and version stay as they
        are; the meter is charged for the recomputation.
        """
        fresh = copy.copy(self)
        fresh._recompute_views()
        for name in self.view_names:
            if _contents(getattr(self, name)) != _contents(getattr(fresh, name)):
                raise AssertionError(f"view {name} drifted")

    def guard(self):
        """Version check callable for enumeration iterators."""
        v = self.version

        def check():
            if self.version != v:
                raise StaleIterator(f"state advanced past version {v}")

        return check

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {rel: shape.strict_build(rel_items[rel], rel, self.meter, th)
                      for rel, shape in self.shapes.items()}

    def _fresh_views(self):
        m = self.meter
        for name, arity, idx, linked in self._views:
            setattr(self, name, Relation(name, arity, idx, m, linked))
        for name in self._bsz:
            setattr(self, name, {})
        if not self.out:
            self.count = 0
        self._steps = self._enum = None

    # -- init path --------------------------------------------------------

    def _recompute_views(self):
        self._fresh_views()
        parts, meter, merged = self.parts, self.meter, {}

        def join_input(group):
            rel, labels = group
            if len(labels) == 1:
                return parts[rel].parts[labels[0]]
            if group not in merged:
                merged[group] = into = Relation(f"{rel}_all", 2, BASE_IDX, meter)
                into.load(entry_list([parts[rel].parts[lab] for lab in labels], meter))
            return merged[group]

        key = self._out_of_abc
        res = []  # what the direct joins and the pair-less tops write into res
        for groups in self._joins:
            products = triangle_products(*map(join_input, groups))
            if key is None:
                self.count += sum(prod for *_, prod in products)
            else:
                res += [(key((a, b, c)), prod) for a, b, c, prod in products]
        for t, left, right in self._fills:
            closed = self._fill(t, join_input(left), join_input(right))
            if not self.out:
                self.count += sum(v for _, v in closed)
                continue
            top_of = t.top_of
            if t.top == "res":
                res += [(top_of(hk), v) for hk, v in closed]
                continue
            top = getattr(self, t.top)
            top.load([(top_of(hk), v) for hk, v in closed])
            if t.root:
                root_of, pos, pair = t.root_of, t.root_pos, getattr(self, t.pair)
                getattr(self, t.root).load([(root_of(hk), v) for hk, v in closed])
                # the top's entries, read one tick each, are the closed (x, z)
                meter.total += len(closed)
                bsz = getattr(self, t.bsz)
                for hk, _ in closed:
                    c = hk[pos]
                    bsz[c] = bsz.get(c, 0) + pair.slice_count((0, 2), hk)
        if key is not None:
            self.res.load(res)

    def _fill(self, t, left, right):
        """Load tree t's pair and hat views from its left and right inputs;
        return [((x, z), hat value * the third relation's total at (z, x))]
        over the hat's entries in order, where that total is nonzero.

        Charged as the reads through `items`, `slice_items` and `total`
        would be, one add per loop.
        """
        if not left.entries:
            # nothing to fill or charge; returning now keeps an empty build cheap
            return []
        pair = getattr(self, t.pair) if t.pair else None
        hat, meter = getattr(self, t.hat), self.meter
        by_y, re = right.hash_slices((0,)), right.entries
        pairs, hats, walked = [], [], 0
        for (x, y), ml in left.entries.items():
            s = by_y.get(y, ())
            walked += len(s)
            for yz in s:
                d, z = ml * re[yz], yz[1]
                hats.append(((x, z), d))
                if pair is not None:
                    pairs.append(((x, y, z), d))
        meter.total += 2 * len(left.entries) + walked
        if pair is not None:
            pair.load(pairs)
        hat.load(hats)
        ga, gb, *more = [p.entries.get for p in self.parts[t.third].parts.values()]
        meter.total += (3 + len(more)) * len(hat.entries)
        closed = []
        for (x, z), v in hat.entries.items():
            zx = z, x
            tm = ga(zx, 0) + gb(zx, 0)
            for g in more:
                tm += g(zx, 0)
            if tm:
                closed.append(((x, z), v * tm))
        return closed

    # -- update processing ------------------------------------------------

    def _bind(self):
        """Bind the class's update plan to this build's parts and views."""
        parts, meter = self.parts, self.meter

        def members(group):
            rel, labels = group
            return [parts[rel].parts[lab] for lab in labels]

        trees = {t: self._tree(t) for t in self.trees}
        steps = {(rel, lab): [] for rel in RELS for lab in self.labels[rel]}
        for rel, labels, kind, row, walk, look, key in self._plan:
            if kind == "close":
                step = trees[row][1]
            elif kind in ("N", "P"):
                kernel = walk_probe(members(walk), 0 if kind == "N" else 1, members(look), meter)
                step = (_sum_step(self, kernel, kind == "N") if not self.out else
                        _direct_step(kernel, kind == "N", self.res, key))
            elif not self.out:
                kernel = walk_sum(members(walk), 0 if kind == "left" else 1, members(look), meter)
                step = _scalar_tree_step(self, kernel, kind == "left", getattr(self, row.hat))
            elif kind == "left":
                step = _from_left(walk_probe(members(walk), 0, (), meter), trees[row][0])
            else:
                step = _from_right(walk_probe(members(walk), 1, (), meter), trees[row][0])
            for lab in labels:
                steps[rel, lab].append(step)
        # (rel, label) -> (the part the update writes, its steps)
        self._steps = {(rel, lab): (parts[rel].parts[lab], tuple(s))
                       for (rel, lab), s in steps.items()}
        return self._steps

    def _tree(self, t):
        if not self.out:
            hat = getattr(self, t.hat)

            def close(u0, u1, m):  # a scalar tree's close: the hat looked up once
                self.count += m * hat.lookup((u1, u0))
            return None, close
        pair, hat, top = (getattr(self, n) if n else None for n in (t.pair, t.hat, t.top))
        total = self.parts[t.third].total
        if t.root:
            return _bucketed_tree(t, pair, hat, top, total, self.meter,
                                  getattr(self, t.root), getattr(self, t.bsz))
        return _plain_tree(t, pair, hat, top, total, self.meter)

    def apply_update(self, rel, label, key, m):
        assert m != 0
        part, steps = (self._steps or self._bind())[rel, label]
        if m < 0:
            # the overdelete check, charged as one lookup, before any write
            self.meter.total += 1
            if part.entries.get(key, 0) + m < 0:
                raise RejectedDelete(f"{rel}^{label}{key} {m:+d}")
        u0, u1 = key
        for step in steps:
            step(u0, u1, m)
        # the key appeared iff its new value is m, vanished iff 0
        v = part.apply_delta(key, m)
        if v == m:
            self.size += 1
        elif not v:
            self.size -= 1
        self.version += 1


class KeyedEngine(FragmentEngine):
    """A fragment engine with output variables, read by enumeration; its
    reads bind on first use after a build. d3, whose pair trees have no
    hop union, overrides `enumerate_result`."""

    def candidate_buckets(self, t, x):
        """Keys of the buckets of pair tree t that may hold the output tuple x."""
        return (self._enum or self._bind_enumeration())[0][t](x)

    def _hop_union(self, t, rule, check):
        pair, top = getattr(self, t.pair), getattr(self, t.top)
        idx, keys = t.root_idx, self._hops[t][2]
        if t.root:
            bsz = getattr(self, t.bsz)

            def size(k):
                return bsz.get(k[0], 0)
        else:
            hat_of = t.hat_of

            def size(k):
                return pair.slice_count((0, 2), hat_of(k))

        return HopUnionIterator(
            getattr(self, t.root or t.top).entries,
            lambda k: Bucket(pair, top, k, idx, keys),
            size, rule, self.meter, check)

    def open_union(self):
        """Union of `res`'s keys and one hop union per pair tree."""
        rules = (self._enum or self._bind_enumeration())[0]
        check = self.guard()
        iters = [KeyIterator(self.res, check)]
        iters += [self._hop_union(t, rule, check) for t, rule in rules.items()]
        return UnionIterator(iters, self.meter, check)

    def _bind_enumeration(self):
        """Bind each pair tree's candidate rule, and multiplicity's walk of
        its pair slices, to this build's views."""
        if any(t.pair and t not in self._hops for t in self.trees):
            # the union would miss that tree's fragment
            raise NotImplementedError(f"{self.query} enumerates its pair trees itself")
        rules, walks = {}, []
        for t, (cols, bucket_of, _) in self._hops.items():
            pair, buckets = getattr(self, t.pair), getattr(self, t.root or t.top)
            rules[t], kept = _candidate_rule(self, pair.slice_items, cols, bucket_of,
                                             buckets.lookup)
            walks.append((pair.slice_items, cols, self.parts[t.third].total, t.third_of, kept))
        self._enum = (rules, tuple(walks))
        return self._enum

    def multiplicity(self, x):
        """Multiplicity of the output tuple x: its value in `res`, plus per
        pair tree each pair entry at x times the third relation's total at
        the entry's (z, x). A pair slice the tree's candidate rule walked
        at x, at this version, is read from the rule, not walked again."""
        walks = (self._enum or self._bind_enumeration())[1]
        v = self.res.lookup(x)
        # a one-column index is keyed by the bare value, not a 1-tuple
        meter, version, sub = self.meter, self.version, x[0] if len(x) == 1 else x
        for walk, cols, total, third_of, kept in walks:
            entries = kept[2] if kept[1] == version and kept[0] == x else walk(cols, sub)
            for pk, pv in entries:
                tm = total(third_of(pk))
                if tm:
                    meter.total += 1
                    v += pv * tm
        return v

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


def _refused(rel, d):
    """Why the database part `d` of relation `rel` is refused, in one line,
    or None. A dict's keys are hashable already; the checks run at C speed
    over the whole part first and look for the culprit only if one fails."""
    if not d:
        return None
    if not (set(map(type, d)) <= {tuple} and set(map(len, d)) <= {2}):
        for key in d:
            if not (isinstance(key, tuple) and len(key) == 2):
                return f"{rel}{key!r}: a key is a tuple of two values"
    ms = d.values()
    if not (set(map(type, ms)) <= {int} and min(ms, default=1) > 0):
        for key, m in d.items():
            if not (isinstance(m, int) and m > 0):
                return f"{rel}{key}: multiplicity {m!r} is not a positive integer"
    return None


def _contents(view):
    return view.entries if isinstance(view, Relation) else view
