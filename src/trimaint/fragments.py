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
    update-time bound. Each of its steps is one `store.walk_probe`
    kernel, which writes every hit into `res` as it walks. It may walk
    the other side instead when that side's slices are shorter, which
    never costs more, so the letter's bound still holds.
  * `Tree(left, lgroup, rgroup, hat, key, ...)` is a view tree. The left
    relation X joins the right one next(X) on y into a pair view keyed
    (x, y, z), kept only where enumeration walks it; y is summed away into
    a hat view keyed (x, z); the third relation prev(X), all parts, closes
    the cycle at (z, x) into a top view keyed by `key`, x and/or z in
    output order. A tree without a pair view writes its top into the
    result, so its key is the output variables. A left update walks the
    right group's slice, a right update the left group's, both through
    one kernel (`store.walk_close`) that writes each walked tuple into
    the pair and hat views and, times the third relation's total at its
    (z, x), into the top as it walks; a third update looks the hat up
    once (`store.lookup_close`). A tree with a root variable as well has
    buckets: its top has a linked index on that variable, whose slices
    are the buckets, and whose map's keys are the nonempty ones.

A tree's close and a direct fragment's probe of a "*" group read the
relation through its partition's `total_gets` (see `partition`).

The init path joins every direct fragment with `triangle_products` and
fills every tree bottom up; `verify_views` reruns it on a copy.
It collects what each view receives and fills the view with one
`Relation.load`, `res` last, from the direct joins and the pair-less
tops; a group of several parts is joined through one merged copy. Its
charges are those of the same reads and writes made one by one, added
in bulk, so a build's ops do not depend on how it is carried out.

A table with no output variables (`out = ""`, d0's count) has a scalar
output: every direct fragment and every tree top (its trees have no pair
view) adds into one integer, `count`. Each step returns what it adds
and `apply_update` adds the sum: a direct step its hits' sum, a tree
step the walked deltas closed by the third relation's totals (it writes
every walked tuple into the hat, as a keyed tree does), a close step the
hat's value. Writes to `count` are O(1) bookkeeping and are not
metered.

Every fragment value is a product of nonnegative multiplicities, so the
sum `res` holds for a tuple is nonzero exactly when one of the fragments
written into it is: keeping them apart would buy nothing at read time.
Enumeration (`KeyedEngine`) of an engine with one or two output
variables is a union of `res`'s keys and one hop union per pair tree. A
bucketed tree's buckets are the slices of its top view's linked index on
the root variable, keyed by the root value and listed from that index's
map; a tree without a root has one bucket per top entry, keyed by the
top key. A pair entry (x, y, z) is in a bucket exactly when its top
entry, hat(x, z) times the third relation's total at (z, x), is stored,
that is when the entry closes. So each pair tree has one read rule: it
walks the pair slice at an output tuple once and closes every entry,
and the entries that close give both the keys of the buckets that hold
the tuple and the tree's share of the tuple's multiplicity (its value
in `res` plus every pair tree's share). The rule keeps both for the last tuple
it walked; a repeated call at that tuple, and `multiplicity`, reuse them
while the engine version stands. An emitted tuple's slice is then walked
once per pair tree, unless the tree's rule moved on after probing it: in
d2 a later hop union can emit a tuple that the first one probed and then
stepped past.

The read path binds on first use after a build, as the update plan
does, and reads the views' and parts' maps directly at the charge of
the method calls it replaces: a tree's rule walks the pair's hash slice
at the tuple itself (charged as draining `slice_items`) and closes each
entry with the third relation's `total_gets` (a tick per getter, as
`Partition.total`), and its hop union's two bucket steps
(`_bucket_steps`) walk the pair's and top's linked slices and nodes maps
(charged as `slice_head`, `slice_next` and `lookup`). The union itself
is one generator, `KeyedEngine._enumerate`: the absorb loop of
`iterators.UnionIterator` written out over `res`'s keys and the hop
unions, where a hop union holds a tuple when its tree's rule there lists
a bucket, read from the kept walk when that is at the tuple. d3's pair
trees have no hop union: it binds its own read loop the same way (see
`ternary`). Either bound read is kept in `_enum` and dropped with the
views it reads, in `_fresh_views`.
"""

from __future__ import annotations

import copy
from operator import itemgetter

from trimaint.iterators import EOF, HopUnionIterator, stale
from trimaint.joins import triangle_products
from trimaint.partition import BASE_IDX, DoublePartition, SinglePartition, Threshold
from trimaint.store import (CostMeter, RejectedDelete, Relation, entry_list, lookup_close,
                            walk_close, walk_probe)

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

    A pair tree also names its pair and top views, and a bucketed one the
    top variable its buckets are keyed by, `root_key`. A tree without a
    pair view writes its top into the result: `res`, or `count` for a
    scalar output.
    """

    def __init__(self, left, lgroup, rgroup, hat, key, pair=None, top=None, root_key=None):
        self.left = left
        self.right, self.third = ROTATION[left]
        self.groups = {left: lgroup, self.right: rgroup, self.third: "*"}
        self.pair, self.hat, self.top, self.key = pair, hat, top or "res", key
        self.root_key = root_key
        self.xyz = xyz = VARS[left]
        xz = xyz[0] + xyz[2]
        self.abc_of = projector(xyz, "abc")  # pair key -> (a, b, c)
        self.top_of = projector(xz, key)  # hat key -> top key
        self.hat_of = projector(key, xz) if len(key) == 2 else None
        self.root_idx = root_key and (key.index(root_key),)  # the top's index on it
        self.third_of = projector(xyz, xyz[2] + xyz[0])  # pair key -> (z, x)


def _pair_rule(eng, get, entries, bucket_of, third_of, gets):
    """(rule, kept) of a pair tree. `rule(x)` walks the pair slice at the
    output tuple x once: `get` is the getter of the pair's hash slices map
    on the output variables, and `entries` gives each walked entry's value.
    It closes each entry with the third relation's total at its (z, x),
    summed over `gets`. A nonzero total means the entry's top, hat(x, z)
    times that total, is stored, so the entries that close are the ones in
    a bucket: `rule` returns their bucket keys, in walk order, each through
    `bucket_of`, pair key -> bucket key. For a slice of n entries it charges
    what draining `slice_items` does, 1 + n, a tick per getter read and one
    per nonzero total, in one add once the walk has run.

    `kept` holds the last walk: x, the engine version it ran at, the
    bucket keys and the tree's share of x's multiplicity, each closed
    entry's value times its total. A call at the same x and version
    returns the kept keys at no tick.
    """
    kept = [None, None, (), 0]
    meter, ngets, (g0, g1) = eng.meter, len(gets), (*gets, None)[:2]
    # a one-column index is keyed by the bare value, not a 1-tuple
    bare = len(eng.out) == 1

    def rule(x):
        version = eng.version
        if kept[1] == version and kept[0] == x:
            return kept[2]
        s = get(x[0] if bare else x)
        keys = []
        if s is None:
            meter.total += 1
            kept[:] = x, version, keys, 0
            return keys
        share = 0
        for pk in s:
            zx = third_of(pk)
            tm = g0(zx, 0) if g1 is None else g0(zx, 0) + g1(zx, 0)
            if tm:
                keys.append(bucket_of(pk))
                share += entries[pk] * tm
        meter.total += 1 + (1 + ngets) * len(s) + len(keys)
        kept[:] = x, version, keys, share
        return keys
    return rule, kept


def _bucket_steps(layout):
    """(first(k), successor(k, x)) of a pair tree's buckets, the steps of
    its hop union. Bucket k holds the output tuples under one root value,
    or under one top entry for a tree without a root.

    Level 1 walks the top view's linked slice at the root value; a rootless
    bucket is its one top entry, at no cost. Level 2 walks the pair view's
    linked (0, 2) slice at each top entry's (x, z). An element followed by
    the bucket key gives the pair and top keys.

    `layout` is bound once per build (see `KeyedEngine`): the meter, the
    pair's (0, 2) slices and nodes maps, the top's slices and nodes maps
    on the root (None for a rootless tree), and the projections top key
    -> (x, z), element + bucket key -> pair and top keys, pair key ->
    element. Each step reads those maps directly and charges a tick per
    head, next and lookup, as `slice_head`, `slice_next` and `lookup` do.
    """
    meter, heads, nodes, roots, top_nodes, hat, pk, ck, elem = layout

    def head(top_key):
        # a stored top entry's first element: its (x, z) pair slice is nonempty
        meter.total += 1
        return elem(heads[hat(top_key)].head.key)

    def first(k):
        if roots is None:
            return head(k)
        meter.total += 1
        s = roots.get(k[0])
        return None if s is None else head(s.head.key)

    def successor(k, x):
        full = x + k
        meter.total += 1
        nxt = nodes[pk(full)].nxt
        if nxt is not None:
            return elem(nxt.key)
        if roots is None:
            return None
        meter.total += 1
        nxt = top_nodes[ck(full)].nxt
        return None if nxt is None else head(nxt.key)
    return first, successor


class FragmentEngine:
    """An engine run from its fragment table (see the module docstring).

    Subclasses set `query`, `out` (the output variables in order, empty
    for a count) and their `direct` and `trees` rows. Label sets, view
    specs, init joins, the update plan and the enumeration's bucket
    layouts are worked out once per class; the update plan is bound to a
    build's parts and views on first update after the build. A keyed
    output is read by `enumerate_result`: `KeyedEngine`'s hop unions for
    one or two output variables, d3's own loop (see `ternary`) for three.
    A scalar one is `count`.

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
        # variables, pair key -> bucket key, bucket step projections)
        cls._hops = {}
        for t in cls.trees:
            if t.pair and len(cls.out) < 3:
                # buckets step through the pair's (x, z) slices, and the
                # tree's rule slices it on the output variables
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
            if t.pair:
                # a bucket steps through the top's slice at its root value
                idx = (t.root_idx,) if t.root_key else ()
                views.append((t.top, len(t.key), idx, idx))
        cls._views = tuple(views)
        cls.view_names = tuple(v[0] for v in views) + ("count",) * (not cls.out)

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

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        self.parts = {rel: shape.strict_build(rel_items[rel], rel, self.meter, th)
                      for rel, shape in self.shapes.items()}

    def _fresh_views(self):
        m = self.meter
        for name, arity, idx, linked in self._views:
            setattr(self, name, Relation(name, arity, idx, m, linked))
        if not self.out:
            self.count = 0
        # the bound update plan and read path
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
            getattr(self, t.top).load([(top_of(hk), v) for hk, v in closed])
        if key is not None:
            self.res.load(res)

    def _fill(self, t, left, right):
        """Load tree t's pair and hat views from its left and right inputs;
        return [((x, z), hat value * the third relation's total at (z, x))]
        over the hat's entries in order, where that total is nonzero.

        Charged as the reads through `items`, `slice_items` and a `lookup`
        per getter of the third's `total_gets` would be, one add per loop.
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
        gets = self.parts[t.third].total_gets
        g0, g1 = (*gets, None)[:2]
        meter.total += (1 + len(gets)) * len(hat.entries)
        closed = []
        for (x, z), v in hat.entries.items():
            zx = z, x
            tm = g0(zx, 0) if g1 is None else g0(zx, 0) + g1(zx, 0)
            if tm:
                closed.append(((x, z), v * tm))
        return closed

    # -- update processing ------------------------------------------------

    def _bind(self):
        """Bind the class's update plan to this build's parts and views,
        one store kernel per plan row (see `store.walk_probe`,
        `walk_close` and `lookup_close`)."""
        parts, meter = self.parts, self.meter

        def members(group):
            rel, labels = group
            return [parts[rel].parts[lab] for lab in labels]

        def gets(group):
            # a group of every part is the whole relation
            rel, labels = group
            p = parts[rel]
            return p.total_gets if labels == p.labels else tuple(
                p.parts[lab].entries.get for lab in labels)

        res = self.res if self.out else None
        steps = {(rel, lab): [] for rel in RELS for lab in self.labels[rel]}
        for rel, labels, kind, row, walk, look, key in self._plan:
            if kind in ("N", "P"):
                step = walk_probe(members(walk), 0 if kind == "N" else 1, members(look),
                                  gets(look), meter, res, key)
            else:
                # a scalar output has no top: its tree steps return their closed sums
                hat, pair = getattr(self, row.hat), row.pair and getattr(self, row.pair)
                top, key = (getattr(self, row.top), row.top_of) if self.out else (None, None)
                step = (lookup_close(hat, meter, top, key) if kind == "close" else
                        walk_close(members(walk), 0 if kind == "left" else 1, gets(look),
                                   meter, hat, pair, top, key))
            for lab in labels:
                steps[rel, lab].append(step)
        # (rel, label) -> (the part the update writes, its steps, the
        # relation's totals map or None)
        self._steps = {(rel, lab): (parts[rel].parts[lab], tuple(s), parts[rel].totals)
                       for (rel, lab), s in steps.items()}
        return self._steps

    def apply_update(self, rel, label, key, m, move=False):
        """Apply the update key by m to part `label` of relation `rel` and
        to every view. A double partition's `totals` is written beside the
        part unless the update is one half of a rebalancing move (`move`),
        which keeps every key's total."""
        assert m != 0
        part, steps, totals = (self._steps or self._bind())[rel, label]
        if m < 0:
            # the overdelete check, charged as one lookup, before any write
            self.meter.total += 1
            if part.entries.get(key, 0) + m < 0:
                raise RejectedDelete(f"{rel}^{label}{key} {m:+d}")
        u0, u1 = key
        # a scalar output's steps return what they add to it, a keyed
        # output's 0
        c = 0
        for step in steps:
            c += step(u0, u1, m)
        if c:
            self.count += c
        # the key appeared iff its new value is m, vanished iff 0
        v = part.apply_delta(key, m)
        if v == m:
            self.size += 1
        elif not v:
            self.size -= 1
        if totals is not None and not move:
            # a key lives in one part, so its total is the part's value
            self.meter.total += 1
            if v:
                totals[key] = v
            else:
                del totals[key]
        self.version += 1

    def query_result(self):
        """A keyed output's result, key -> multiplicity; the count engine
        overrides it."""
        return dict(self.enumerate_result())


class KeyedEngine(FragmentEngine):
    """A fragment engine with one or two output variables, read by a union
    of `res`'s keys and one hop union per pair tree. Its read path binds
    on first use after a build, as the update plan does: each pair tree's
    rule and its hop union's bucket steps read the views' and parts' maps
    directly (see `_bind_enumeration`)."""

    def open_union(self):
        """One hop union per pair tree, in the order `_enumerate` passes
        an element along them."""
        hops = (self._enum or self._bind_enumeration())[0]
        # a bucketed tree's bucket keys are its top's root values, as 1-tuples
        return [HopUnionIterator(zip(keys) if rooted else keys, *steps, rule, self.meter)
                for keys, rooted, steps, rule in hops.values()]

    def _bind_enumeration(self):
        """Bind each pair tree's rule (see `_pair_rule`) and bucket steps
        (see `_bucket_steps`), and `multiplicity`, to this build's views
        and parts: ((bucket keys map, rooted, (first, successor), rule) by
        tree, multiplicity, (rule, kept) per tree in the same order)."""
        meter, hops, rules = self.meter, {}, []
        for t, (cols, bucket_of, keys) in self._hops.items():
            pair, top, idx = getattr(self, t.pair), getattr(self, t.top), t.root_idx
            rule, kept = _pair_rule(self, pair.hash_slices(cols).get, pair.entries, bucket_of,
                                    t.third_of, self.parts[t.third].total_gets)
            # the keys of the top's entries, or of its slices map on the
            # root, list the buckets
            live = top.entries if idx is None else top.linked_slices(idx)
            roots, top_nodes = (None, None) if idx is None else (live, top.linked_nodes(idx))
            steps = _bucket_steps((meter, pair.linked_slices((0, 2)), pair.linked_nodes((0, 2)),
                                   roots, top_nodes, *keys))
            hops[t] = (live, idx is not None, steps, rule)
            rules.append((rule, kept))
        get, rules = self.res.entries.get, tuple(rules)

        def multiplicity(x):
            # x's value in res, charged as a lookup, plus each tree's share,
            # from its kept walk when that is at x and this version
            meter.total += 1
            v, version = get(x, 0), self.version
            for rule, kept in rules:
                if kept[1] != version or kept[0] != x:
                    rule(x)
                v += kept[3]
            return v
        self._enum = (hops, multiplicity, rules)
        return self._enum

    def multiplicity(self, x):
        """Multiplicity of the output tuple x: its value in `res`, plus per
        pair tree each pair entry at x times the third relation's total at
        the entry's (z, x), the share the tree's rule keeps for x. A pair
        slice the rule walked at x, at this version, is not walked again."""
        return (self._enum or self._bind_enumeration())[1](x)

    def enumerate_result(self):
        """Iterator of (key, multiplicity), each result key exactly once.

        The version is pinned here, not at first consumption, so an update
        between open and first next() already invalidates it: the next
        next() raises StaleIterator, as it does after any update.
        """
        hops = self.open_union()
        later = [(hop.next, rule, kept) for hop, (rule, kept) in zip(hops, self._enum[2])]
        return self._enumerate(self.version, iter(self.res.entries), later, self.multiplicity)

    def _enumerate(self, version, keys, later, multiplicity):
        # The absorb loop of a union (Durand and Strozecki, CSL 2011) over
        # the result's `keys` and the hop unions: the current element t
        # passes along them in order, and a hop union that holds t (its
        # tree's rule at t has a bucket key) absorbs it and steps, to
        # emit t when its own cursor reaches it; an EOF passes to each hop
        # union's next element in turn. "Holds" reads the rule's kept walk
        # when that is at t and this version. A step charges the union step
        # and the key step.
        meter = self.meter
        while True:
            if self.version != version:
                raise stale(version)
            meter.total += 2
            t = next(keys, EOF)
            for step, rule, kept in later:
                if t is EOF or (kept[2] if kept[1] == version and kept[0] == t else rule(t)):
                    t = step()
            if t is EOF:
                return
            yield t, multiplicity(t)


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
