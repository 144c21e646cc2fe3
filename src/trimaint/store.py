"""Multiplicity-annotated relations with constant-time indexed access.

`entries` maps each stored tuple to its nonzero multiplicity. Every
declared projection is an index from projection key to the slice of
tuples under it, of one of two kinds:

  * hash (the default): the slice is a list of its tuples while it
    holds at most COMPACT_FLOOR of them and a dict above that, both in
    insertion order, so add, remove and count take constant time and a
    slice walk runs in insertion order;
  * linked (listed in `linked=`): the slice is an insertion-ordered
    doubly-linked list with a node per tuple, which also answers
    `slice_head` and `slice_next` in O(1). Hop iterators need that
    successor step; nothing else does, so only their indexes pay for it.

Most slices are tiny, and on CPython 3.11 a list of one to COMPACT_FLOOR
tuples takes 64 to 120 bytes where a dict of them takes 224 or 352. A
list slice is scanned to remove a tuple, which is at most COMPACT_FLOOR
steps. The write that takes a list past the floor replaces it with a
dict of the same tuples in the same order; that promotion is unmetered
constant work, like a dict resize, since the list holds
COMPACT_FLOOR + 1 tuples.

CPython dicts keep the slots of deleted keys until they next grow, and
iterating walks those slots too: a dict that shrank from a million keys
to one still takes milliseconds to yield its first key, delay the meter
cannot see. So one rule holds for every dict a Relation iterates:
`entries`, each index's slices map and each dict slice. Once its length
falls below a quarter of its high-water mark, it is rebuilt in place
(the same dict, in the same order), charged one tick per key moved, and
its mark becomes its length. A dict whose mark is at most COMPACT_FLOOR
is left alone: CPython sizes a dict from its live keys whenever it
grows, so one that never held more keys has a small constant number of
slots to walk. A dict slice rebuilt at or below COMPACT_FLOOR tuples
becomes a list again. `entries` and the slices maps thus live as long as
the Relation, and `load` fills them in place too. A rebuild invalidates
an iterator open over the dict, so a reader resumed after an update
checks the engine version first. A linked index's nodes map is outside
the rule: it is only ever keyed, never iterated, so its dead slots cost
memory, not delay.

Kernels read the maps directly. Each is bound once per build to the
`entries` and slices maps it reads, which live as long as their
Relation, and reads a slice afresh on every call. Keyed enumeration
walks a pair view's hash slice through `walk_slice`, which charges what
draining `slice_items` does. The update path is bound per row of an
engine's plan, one kernel per step, `step(u0, u1, m)`, which walks the
parts and writes its views in the same loop: `walk_probe`, a direct
fragment's "walk one partner's slice, probe the other partner at the
rotated pair, write each hit into the result"; `walk_close`, a view
tree's "walk the partner's slice, write every walked tuple into the pair
and hat views and, closed with the third relation's total, into the
top"; and `lookup_close`, a tree's "look the hat up once, write it into
the top". A step into a scalar output writes no result view and returns
what it adds to the output (a tree step still writes its hat); a keyed
one returns 0. A relation read whole at one key, a tree's third or a
probed group of every part, is handed over as getters whose values sum
to its multiplicity: a single partition's two parts, or a double
partition's one totals map (see `partition`). `walk_probe` first reads
both partners' slice lengths, one tick each, and walks the shorter side
(the intersection rule of worst-case optimal joins), charging the
lengths, the chosen walk at one tick per tuple plus one per probe
getter, and one per hit; `walk_close` charges what the equivalent
`slice_items` and `lookup` calls would, a `lookup` being one getter
read, and `lookup_close` what a `lookup` does. Each charges its reads
in one add once its walk has run (see CostMeter for when that is
allowed). No step writes a Relation it reads, and each writes its views
in the order of its walk.

A step writes a view as `apply_delta` would, with that method's
in-place branch inline: a key stored before and after the write (its
old value and old + d both nonzero) gets `entries[key] = old + d` in
the loop, for one tick. A key that appears or vanishes goes through
`apply_delta`, so index upkeep, slice marks, the high-water mark and
compaction stay in that one method, and so does the refusal of a
negative result. Only the kernels in this module write a view in place.

The init path (a build, and a major that falls back to a rebuild) fills
each fresh part and view with `load`: one pass per index over the new
entries, in the order and at the charge of one `apply_delta` per item,
the charge in one add.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import itemgetter

# most tuples a list slice holds, and the high-water mark at or below
# which a dict is never rebuilt (see above)
COMPACT_FLOOR = 8

_mult = itemgetter(1)


class RejectedDelete(Exception):
    """A delete would drive some multiplicity negative."""


class MissingIndex(Exception):
    """No index of the needed kind was declared for the requested projection."""


class CostMeter:
    """Counts elementary operations: `total`, and the part of it that
    major and minor rebalancing took.

    One unit is charged per map operation, per index-list step, per
    arithmetic combine, and per entry a dict rebuild moves. Wall-clock time
    is never part of the contract; tests and the bench harness compare
    these counters instead.

    Charging is one add to `total`. The driver adds each major's and each
    minor's ops to `major` and `minor`; everything else is apply, which
    `phases` derives as what is left of the total.

    A loop may charge its whole cost in one add (bulk charging) only if it
    always runs to its end and nothing reads `total` while it runs: the
    update steps (`walk_probe`, `walk_close`) and the read kernel
    `walk_slice` do, and so does the init path, since a build or a
    rebuild always runs to its end (`Relation.load`,
    `joins.triangle_products` and the tree fills). An update step's
    `apply_delta` calls charge as they run, inside its walk, which adds
    to `total` but does not read it. Enumeration, hop
    iterators and walks that can stop early charge item by item, so the
    delay between two reads of `total` is what was metered in between:
    d3's bound read loop charges each tuple before it yields it, and each
    top entry's step, close and slice open before its first tuple.
    """

    __slots__ = ("total", "major", "minor")

    def __init__(self):
        self.total = 0
        self.major = 0
        self.minor = 0

    @property
    def phases(self):
        """Ops per phase so far, as a fresh dict."""
        return {"apply": self.total - self.major - self.minor,
                "major": self.major, "minor": self.minor}

    def snapshot(self):
        return {"total": self.total, **self.phases}


class _Node:
    __slots__ = ("key", "prev", "nxt")

    def __init__(self, key):
        self.key = key
        self.prev = None
        self.nxt = None


class _KeyList:
    """Insertion-ordered doubly-linked list of the tuples under one index key."""

    __slots__ = ("head", "tail", "count")

    def __init__(self):
        self.head = None
        self.tail = None
        self.count = 0

    def append(self, node):
        node.prev = self.tail
        if self.tail is None:
            self.head = node
        else:
            self.tail.nxt = node
        self.tail = node
        self.count += 1

    def remove(self, node):
        if node.prev is None:
            self.head = node.nxt
        else:
            node.prev.nxt = node.nxt
        if node.nxt is None:
            self.tail = node.prev
        else:
            node.nxt.prev = node.prev
        self.count -= 1


class Relation:
    """A finite map from tuples to nonzero signed integer multiplicities.

    Indexes are fixed at construction: `index_cols` is a sequence of
    column-position tuples, one per projection that must support slicing;
    those also listed in `linked` are linked indexes (see the module
    docstring). Each index is a tuple (projector, slices, marks, nodes,
    i): slices maps projection key to slice, marks holds the high-water
    marks of each dict slice by key (a hash slice has a mark exactly when
    it is a dict, and a list slice none), nodes maps each stored tuple to
    its list node for a linked index and is None for a hash one, and i is
    the index's position. `_hwm` is the high-water mark of `entries`, and
    `_map_hwm[i]` that of index i's slices map, kept out of marks so that
    marks is an exact dict, which CPython subscripts faster than a
    subclass.
    """

    __slots__ = ("name", "arity", "meter", "index_cols", "entries", "_hwm",
                 "_map_hwm", "_by_cols", "_indexes")

    def __init__(self, name, arity, index_cols, meter, linked=()):
        self.name = name
        self.arity = arity
        self.meter = meter
        self.index_cols = index_cols = tuple(map(tuple, index_cols))
        self.entries = {}
        self._hwm = 0
        self._map_hwm = [0] * len(index_cols)
        by_cols = {}
        for i, cols in enumerate(index_cols):
            for c in cols:
                if not 0 <= c < arity:
                    raise ValueError(f"{name}: index column {c} outside arity {arity}")
            # one C-level call projects a tuple onto the index columns
            by_cols[cols] = (itemgetter(*cols), {}, {}, {} if cols in linked else None, i)
        for cols in linked:
            if tuple(cols) not in by_cols:
                raise ValueError(f"{name}: linked index {cols} is not declared")
        self._by_cols = by_cols
        self._indexes = tuple(by_cols.values())

    def __len__(self):
        return len(self.entries)

    def lookup(self, key):
        self.meter.total += 1
        return self.entries.get(key, 0)

    def apply_delta(self, key, m):
        """Add m to the multiplicity of `key`; return the new multiplicity.

        Raises RejectedDelete, before any mutation, if the result would be
        negative. A result of exactly 0 removes the entry everywhere.
        """
        assert m != 0
        assert len(key) == self.arity, (self.name, key)
        entries = self.entries
        old = entries.get(key, 0)
        new = old + m
        if new < 0:
            raise RejectedDelete(f"{self.name}{key}: {old} {m:+d} < 0")
        meter = self.meter
        if old and new:
            entries[key] = new
            meter.total += 1
            return new
        indexes = self._indexes
        meter.total += 1 + len(indexes)
        if new:
            entries[key] = new
            n = len(entries)
            if n > self._hwm:
                self._hwm = n
            for project, slices, marks, nodes, i in indexes:
                sub = project(key)
                s = slices.get(sub)
                if s is None:
                    slices[sub] = s = [key] if nodes is None else _KeyList()
                    hwm = self._map_hwm
                    if len(slices) > hwm[i]:
                        hwm[i] = len(slices)
                    if nodes is None:
                        continue
                if nodes is not None:
                    node = nodes[key] = _Node(key)
                    s.append(node)
                elif s.__class__ is list:
                    s.append(key)
                    if len(s) > COMPACT_FLOOR:
                        # promotion: unmetered, like a dict resize, since
                        # the list holds COMPACT_FLOOR + 1 tuples
                        slices[sub] = dict.fromkeys(s)
                        marks[sub] = len(s)
                else:
                    s[key] = None
                    if len(s) > marks[sub]:
                        marks[sub] = len(s)
            return new
        del entries[key]
        for project, slices, marks, nodes, i in indexes:
            sub = project(key)
            s = slices[sub]
            if nodes is not None:
                s.remove(nodes.pop(key))
                if s.count:
                    continue
            elif s.__class__ is list:
                # at most COMPACT_FLOOR tuples to scan
                s.remove(key)
                if s:
                    continue
            else:
                del s[key]
                if s:
                    if 4 * len(s) < marks[sub]:
                        marks[sub] = mark = _compact(s, marks[sub], meter)
                        if mark <= COMPACT_FLOOR:
                            # compacted to a list's size
                            slices[sub] = list(s)
                            del marks[sub]
                    continue
                del marks[sub]
            # the slice emptied: its key leaves the map
            del slices[sub]
            hwm = self._map_hwm
            if 4 * len(slices) < hwm[i]:
                hwm[i] = _compact(slices, hwm[i], meter)
        if 4 * len(entries) < self._hwm:
            self._hwm = _compact(entries, self._hwm, meter)
        return 0

    def load(self, items):
        """Fill this empty relation from (key, m) pairs, every m > 0.

        The result, and the meter's charge, are those of one `apply_delta`
        per pair in order: a key that repeats adds up, each pair costs one
        tick and each distinct key one more per index, charged in one add.
        Each index is filled in one pass over the new entries. Raises
        ValueError, before any mutation, if the relation holds a tuple or
        some m is not positive.
        """
        if self.entries:
            raise ValueError(f"{self.name}: load needs an empty relation")
        items = items if isinstance(items, list) else list(items)
        if not items:
            return
        if min(map(_mult, items)) <= 0:
            raise ValueError(f"{self.name}: load needs positive multiplicities")
        entries = self.entries
        entries.update(items)
        if len(entries) < len(items):
            # a key repeats: its multiplicities add up
            entries.clear()
            get = entries.get
            for key, m in items:
                entries[key] = get(key, 0) + m
        n = len(entries)
        if n > self._hwm:
            self._hwm = n
        for project, slices, marks, nodes, i in self._indexes:
            if nodes is not None:
                for key in entries:
                    sub = project(key)
                    s = slices.get(sub)
                    if s is None:
                        s = slices[sub] = _KeyList()
                    node = nodes[key] = _Node(key)
                    s.append(node)
            else:
                groups = defaultdict(list)
                for key in entries:
                    groups[project(key)].append(key)
                for sub, s in groups.items():
                    if len(s) > COMPACT_FLOOR:
                        groups[sub] = dict.fromkeys(s)
                        marks[sub] = len(s)
                slices.update(groups)
            if len(slices) > self._map_hwm[i]:
                self._map_hwm[i] = len(slices)
        self.meter.total += len(items) + n * len(self._indexes)

    def _missing(self, cols, kind="index"):
        return MissingIndex(f"{self.name}: no {kind} on columns {cols}")

    def slice_count(self, cols, sub):
        """|sigma_{cols=sub}K|: number of distinct tuples under the key, O(1)."""
        self.meter.total += 1
        try:
            _, slices, _, nodes, _ = self._by_cols[cols]
        except KeyError:
            raise self._missing(cols) from None
        s = slices.get(sub)
        if s is None:
            return 0
        return len(s) if nodes is None else s.count

    def slice_items(self, cols, sub):
        """Yield (tuple, multiplicity) for each entry under the key of a
        hash index, constant delay.

        The relation must not be mutated while the generator is live.
        """
        ix = self._by_cols.get(cols)
        if ix is None or ix[3] is not None:
            raise self._missing(cols, "hash index")
        meter = self.meter
        meter.total += 1
        s = ix[1].get(sub)
        if s is None:
            return
        entries = self.entries
        for k in s:
            meter.total += 1
            yield k, entries[k]

    def hash_slices(self, cols):
        """The slices map of a hash index: projection key -> list or dict
        of its tuples, both iterated in insertion order. The map lives as
        long as the Relation; the slices in it do not (promotion, and a
        compaction that makes a list, replace them)."""
        ix = self._by_cols.get(cols)
        if ix is None or ix[3] is not None:
            raise self._missing(cols, "hash index")
        return ix[1]

    def _linked(self, cols):
        ix = self._by_cols.get(cols)
        if ix is None or ix[3] is None:
            raise self._missing(cols, "linked index")
        return ix

    def linked_slices(self, cols):
        """The slices map of a linked index (see `hash_slices`)."""
        return self._linked(cols)[1]

    def linked_nodes(self, cols):
        """The nodes map of a linked index: each stored tuple -> its list
        node, whose `nxt` is the next node of its slice or None. The map
        lives as long as the Relation."""
        return self._linked(cols)[3]

    def slice_head(self, cols, sub):
        """First tuple in a linked slice's insertion order, or None if empty."""
        self.meter.total += 1
        s = self._linked(cols)[1].get(sub)
        return s.head.key if s is not None else None

    def slice_next(self, cols, key):
        """Tuple following `key` inside its linked slice, or None at the end.

        `key` must currently be stored.
        """
        self.meter.total += 1
        nxt = self._linked(cols)[3][key].nxt
        return nxt.key if nxt is not None else None

    def index_keys(self, cols):
        """Yield the distinct projection keys of an index (pi_{cols}K)."""
        ix = self._by_cols.get(cols)
        if ix is None:
            raise self._missing(cols)
        for sub in ix[1]:
            self.meter.total += 1
            yield sub

    def items(self):
        """Yield all (tuple, multiplicity) pairs in insertion order."""
        meter = self.meter
        for kv in self.entries.items():
            meter.total += 1
            yield kv

    def check_consistency(self):
        """Exhaustive index audit for tests; O(|K| * #indexes)."""
        entries = self.entries
        for key, mult in entries.items():
            audit(mult != 0, key)
            audit(len(key) == self.arity, key)
        for d, mark in [(entries, self._hwm)] + [(ix[1], self._map_hwm[ix[4]])
                                                 for ix in self._indexes]:
            audit(len(d) <= mark and (4 * len(d) >= mark or mark <= COMPACT_FLOOR), self.name)
        for cols, (project, slices, marks, nodes, _) in self._by_cols.items():
            seen = 0
            for sub, s in slices.items():
                if nodes is None:
                    keys = list(s)
                    mark = marks.get(sub)
                    if s.__class__ is list:
                        # a list, unlike a dict, would keep a repeated key
                        audit(mark is None and len(s) <= COMPACT_FLOOR, (self.name, cols, sub))
                        audit(len(set(s)) == len(s), (self.name, cols, sub))
                    else:
                        audit(s.__class__ is dict and mark is not None, (self.name, cols, sub))
                        audit(mark > COMPACT_FLOOR and mark >= len(s), (self.name, cols, sub))
                        audit(4 * len(s) >= mark, (self.name, cols, sub))
                else:
                    keys, node, prev = [], s.head, None
                    while node is not None:
                        audit(node.prev is prev, self.name)
                        audit(nodes[node.key] is node, self.name)
                        keys.append(node.key)
                        prev, node = node, node.nxt
                    audit(s.tail is prev and s.count == len(keys), (self.name, cols, sub))
                audit(keys, (self.name, cols, sub))
                for key in keys:
                    audit(key in entries, (self.name, cols, key))
                    audit(project(key) == sub, (self.name, cols, key))
                seen += len(keys)
            audit(seen == len(entries), (self.name, cols))
            audit(set(marks) <= set(slices), (self.name, cols))
            if nodes is not None:
                audit(len(nodes) == len(entries), (self.name, cols))


def _compact(d, mark, meter):
    """d's high-water mark once the compaction rule has run on the dict d,
    which fell below a quarter of `mark`. Refilling d in place, in order,
    gives it the slots a dict filled key by key with its keys gets."""
    if mark <= COMPACT_FLOOR:
        return mark
    items = list(d.items())
    d.clear()
    d.update(items)
    meter.total += len(items)
    return len(items)


def audit(ok, what):
    """Raise AssertionError(what) unless `ok`: an audit's check, which
    `python -O` does not strip as it strips `assert`."""
    if not ok:
        raise AssertionError(what)


def entry_list(rels, meter):
    """The (key, m) pairs of the Relations `rels`, one after another, each
    in insertion order, as a list; charged one tick per pair, as `items`
    charges, in one add."""
    kvs = list(chain.from_iterable(r.entries.items() for r in rels))
    meter.total += len(kvs)
    return kvs


def walk_slice(rel, cols, meter):
    """Bind the read kernel of a hash index of `rel`, `walk(sub)`: the
    (tuple, multiplicity) pairs under `sub`, in insertion order, as a
    list, or () if there are none. It charges what draining `slice_items` does, one tick plus one
    per pair, in one add once the walk has run."""
    get, entries = rel.hash_slices(cols).get, rel.entries

    def walk(sub):
        s = get(sub)
        if s is None:
            meter.total += 1
            return ()
        out = []
        for k in s:
            out.append((k, entries[k]))
        meter.total += 1 + len(out)
        return out

    return walk


def walk_probe(walked, col, probed, gets, meter, view=None, key=None):
    """Bind a direct fragment's update step, `step(u0, u1, m)`.

    The update (u0, u1) by m slices the `walked` parts (one or two binary
    Relations) on column `col` at sub, u1 when walking column 0 and u0
    when walking column 1, and `other` is its other value. A walked tuple
    binds w, its other column, and the probe key is the rotated pair:
    (w, other) when walking column 0, (other, w) when walking column 1.
    Every w where both the walked multiplicity mw and the multiplicity mp
    of the `probed` parts (one, two or four) are nonzero is a hit: the
    step adds m * mw * mp to `view` at key((u0, u1, w)), in the order of
    the walk (see the module docstring), and returns 0; with no view it
    writes nothing and returns the hits' sum. mp is summed over `gets`:
    one getter (of the one probed part, or of the parts' sum, a double
    partition's totals, when all four are probed) or the two probed
    parts' `entries.get`. Every part needs a hash index on each column it
    is sliced on.

    It reads, one tick each, the length of each walked part's slice at
    sub and of each probed part's slice at `other` on column 1 - col: the
    probe keys that can hit are exactly the tuples of those slices. If
    either side is empty it returns there. Otherwise it walks the side
    that costs less, the intersection rule of worst-case optimal joins:
    n_walked * (1 + #gets) against n_probed * (1 + #walked), ties to the
    walked side. Walking the probed side binds w = k[col] and probes the
    walked parts at (sub, w) or (w, sub); it yields one hit per probed
    tuple, so where probed parts overlap (never within a partition) a w can
    come out more than once. The charge is #walked + #probed, plus the
    chosen walk, plus one per hit, in one add once the walk has run, and
    the writes. The walk never costs more than the walked side's, so the
    bound a fragment's `sides` letter gives still holds.
    """
    if (not 1 <= len(walked) <= 2 or len(probed) not in (1, 2, 4)
            or not (len(gets) == 1 or len(gets) == len(probed) == 2)):
        raise ValueError(f"{len(walked)} walked and {len(probed)} probed parts, "
                         f"{len(gets)} probe getters")
    at, first = 1 - col, col == 0
    slices = tuple(rel.hash_slices((col,)) for rel in walked)
    others = tuple(rel.hash_slices((at,)) for rel in probed)
    ve, put = (None, None) if view is None else (view.entries, view.apply_delta)

    if len(walked) == len(probed) == 1:
        # the common case (most direct-fragment steps), without the loops
        # over parts: with this branch dropped, so that the loop below ran
        # one walked and one probed part, `scripts/ab_pairs.py` (10 pairs
        # of 10 s, CPython 3.11, 2-core Xeon) read count-churn's
        # updates_per_s 8% lower and update_p50_us 9% higher, losing all
        # ten pairs on both
        (by_sub,), (by_other,), (pget,) = slices, others, gets
        we, pe = walked[0].entries, probed[0].entries
        wget = we.get

        def step(u0, u1, m):
            sub, other = (u1, u0) if first else (u0, u1)
            s, t = by_sub.get(sub), by_other.get(other)
            if s is None or t is None:
                meter.total += 2
                return 0
            # walk s, probing at (w, other) or (other, w), or t, probing at
            # (sub, w) or (w, sub)
            if len(s) <= len(t):
                entries, get, pos, fix, wfirst = we, pget, at, other, first
            else:
                s, entries, get, pos, fix, wfirst = t, pe, wget, col, sub, not first
            ops, acc = 2 + 2 * len(s), 0
            for k in s:
                w = k[pos]
                mp = get((w, fix) if wfirst else (fix, w), 0)
                if mp:
                    ops += 1
                    d = m * entries[k] * mp
                    if ve is None:
                        acc += d
                        continue
                    rk = key((u0, u1, w))
                    old = ve.get(rk, 0)
                    new = old + d
                    if old and new > 0:
                        ve[rk] = new
                        ops += 1
                    else:
                        put(rk, d)
            meter.total += ops
            return acc

        return step

    fixed, per_walked, per_probed = len(walked) + len(probed), 1 + len(gets), 1 + len(walked)
    wsides = tuple((rel.entries, by_sub) for rel, by_sub in zip(walked, slices))
    psides = tuple((rel.entries, by_other) for rel, by_other in zip(probed, others))
    # each side's probe getters, the second None where there is one
    wgets = (*(rel.entries.get for rel in walked), None)[:2]
    pgets = (*gets, None)[:2]

    def step(u0, u1, m):
        sub, other = (u1, u0) if first else (u0, u1)
        nw = np = 0
        for by_sub in slices:
            s = by_sub.get(sub)
            if s is not None:
                nw += len(s)
        if nw:
            for by_other in others:
                s = by_other.get(other)
                if s is not None:
                    np += len(s)
        if not np:
            meter.total += fixed
            return 0
        if nw * per_walked <= np * per_probed:
            sides, on, (g0, g1), pos, fix, wfirst = wsides, sub, pgets, at, other, first
            ops = fixed + nw * per_walked
        else:
            sides, on, (g0, g1), pos, fix, wfirst = psides, other, wgets, col, sub, not first
            ops = fixed + np * per_probed
        acc = 0
        for entries, by in sides:
            s = by.get(on)
            if s is None:
                continue
            for k in s:
                w = k[pos]
                pk = (w, fix) if wfirst else (fix, w)
                mp = g0(pk, 0) if g1 is None else g0(pk, 0) + g1(pk, 0)
                if mp:
                    ops += 1
                    d = m * entries[k] * mp
                    if ve is None:
                        acc += d
                        continue
                    rk = key((u0, u1, w))
                    old = ve.get(rk, 0)
                    new = old + d
                    if old and new > 0:
                        ve[rk] = new
                        ops += 1
                    else:
                        put(rk, d)
        meter.total += ops
        return acc

    return step


def walk_close(walked, col, third, meter, hat, pair=None, top=None, key=None):
    """Bind a view tree's left or right update step, `step(u0, u1, m)`.

    The update (u0, u1) by m slices the `walked` parts (one or two binary
    Relations) on column `col` at sub, u1 when walking column 0 and u0
    when walking column 1, part by part, each in insertion order, and
    `other` is its other value. Each walked tuple k, binding w, gives the
    hat key hk, k with `other` in place of sub, and d = m times its
    multiplicity; tm is the third relation's total at the rotated pair,
    (w, other) when walking column 0 and (other, w) when walking column 1,
    summed over the `third` getters: a single partition's two parts'
    `entries.get`, or a double partition's one totals getter. In the
    order of the walk, the step adds d to `pair` (if any) at (hk[0], sub,
    hk[1]) and to `hat` at hk, and, where tm is nonzero, d * tm to `top`
    at key(hk); it returns 0. With no top it writes the hat alone and
    returns the sum of d * tm. It charges what the same walk through
    `slice_items` and a `lookup` per getter costs, with one combine per
    nonzero tm: 1 + (1 + #third) * n per walked part with n tuples under
    sub, plus one per nonzero tm, in one add, and the writes.
    """
    if not 1 <= len(walked) <= 2 or len(third) not in (1, 2):
        raise ValueError(f"{len(walked)} walked parts and {len(third)} third getters")
    sides = [(rel.entries, rel.hash_slices((col,)).get) for rel in walked]
    nsides, per, first = len(sides), 1 + len(third), col == 0
    g0, g1 = (*third, None)[:2]
    he, put_hat = hat.entries, hat.apply_delta
    pe, put_pair = (None, None) if pair is None else (pair.entries, pair.apply_delta)
    te, put_top = (None, None) if top is None else (top.entries, top.apply_delta)

    def step(u0, u1, m):
        sub, other = (u1, u0) if first else (u0, u1)
        ops, acc = nsides, 0
        for entries, get in sides:
            s = get(sub)
            if s is None:
                continue
            ops += per * len(s)
            for k in s:
                if first:
                    w = k[1]
                    zx, hk = (w, other), (other, w)
                else:
                    w = k[0]
                    zx, hk = (other, w), (w, other)
                d = m * entries[k]
                if pe is not None:
                    # y, the walked slice's value, sits between x and z
                    pk = hk[0], sub, hk[1]
                    old = pe.get(pk, 0)
                    new = old + d
                    if old and new > 0:
                        pe[pk] = new
                        ops += 1
                    else:
                        put_pair(pk, d)
                old = he.get(hk, 0)
                new = old + d
                if old and new > 0:
                    he[hk] = new
                    ops += 1
                else:
                    put_hat(hk, d)
                tm = g0(zx, 0) if g1 is None else g0(zx, 0) + g1(zx, 0)
                if tm:
                    ops += 1
                    if te is None:
                        acc += d * tm
                        continue
                    tk, d = key(hk), d * tm
                    old = te.get(tk, 0)
                    new = old + d
                    if old and new > 0:
                        te[tk] = new
                        ops += 1
                    else:
                        put_top(tk, d)
        meter.total += ops
        return acc

    return step


def lookup_close(hat, meter, top=None, key=None):
    """Bind a view tree's third-relation update step, `step(u0, u1, m)`:
    it reads the hat at (u1, u0), one tick as a `lookup`, and adds m times
    that value to `top` at key((u1, u0)) if it is nonzero, returning 0;
    with no top it returns m times the value."""
    he = hat.entries
    if top is None:
        def close(u0, u1, m):
            meter.total += 1
            return m * he.get((u1, u0), 0)
        return close
    te, put = top.entries, top.apply_delta

    def close(u0, u1, m):
        hk = u1, u0
        v = he.get(hk)
        if not v:
            meter.total += 1
            return 0
        tk, d = key(hk), m * v
        old = te.get(tk, 0)
        new = old + d
        if old and new > 0:
            te[tk] = new
            meter.total += 2
        else:
            meter.total += 1
            put(tk, d)
        return 0

    return close
