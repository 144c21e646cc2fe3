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
steps. The write that takes a list
past the floor replaces it with a dict of the same tuples in the same
order; that promotion is unmetered constant work, like a dict resize,
since the list holds COMPACT_FLOOR + 1 tuples.

CPython dicts keep the slots of deleted keys until they next grow, and
iterating walks those slots too: a dict that shrank from a million keys
to one still takes milliseconds to yield its first key, delay the meter
cannot see. So every dict that is iterated and can shrink (`entries` and
each dict slice) is rebuilt once its length falls below a quarter of its
high-water mark, charged one tick per entry moved; the rebuilt dict's
mark is its new length, and a rebuilt slice of at most COMPACT_FLOOR
tuples becomes a list again. `entries` is left alone while its mark is
at most COMPACT_FLOOR: CPython sizes a dict from its live keys whenever
it grows, so one that never held more than that many keys has a small
constant number of slots to walk.

The update path reads the parts through `walk_probe`, one kernel for the
loops of the form "walk one partner's slice, probe the other partner at
the rotated pair", and `walk_sum`, which also keeps the misses. A kernel
is bound once per build to the parts and to the `slices` maps of their
indexes, which live as long as their Relation; promotion and compaction
replace single slices, and compaction replaces `entries`, so a kernel
reads both afresh on every call. A probing `walk_probe` kernel first
reads both partners' slice lengths, one tick each, and walks the shorter
side (the intersection rule of worst-case optimal joins), charging the
lengths, the chosen walk at one tick per tuple plus one per probe, and
one per hit; the other kernels charge what the equivalent `slice_items`
and `lookup` calls would. Each charges in one add once its walk has run
(see CostMeter for when that is allowed).

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
    update-path kernels (`walk_probe`) do, and so does the init path, since
    a build or a rebuild always runs to its end (`Relation.load`,
    `joins.triangle_products` and the tree fills). Enumeration, hop
    iterators and walks that can stop early charge item by item, so the
    delay between two reads of `total` is what was metered in between.
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
    docstring). Each index is a tuple (projector, slices, marks, nodes):
    slices maps projection key to slice, marks holds the high-water mark
    of each dict slice (a hash slice has a mark exactly when it is a dict,
    and a list slice none), and nodes maps each stored tuple to its list
    node for a linked index and is None for a hash one.
    """

    __slots__ = ("name", "arity", "meter", "index_cols", "entries", "_hwm",
                 "_by_cols", "_indexes")

    def __init__(self, name, arity, index_cols, meter, linked=()):
        self.name = name
        self.arity = arity
        self.meter = meter
        self.index_cols = index_cols = tuple(map(tuple, index_cols))
        self.entries = {}
        self._hwm = 0
        by_cols = {}
        for cols in index_cols:
            for c in cols:
                if not 0 <= c < arity:
                    raise ValueError(f"{name}: index column {c} outside arity {arity}")
            # one C-level call projects a tuple onto the index columns
            by_cols[cols] = (itemgetter(*cols), {}, {}, {} if cols in linked else None)
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
            for project, slices, marks, nodes in indexes:
                sub = project(key)
                s = slices.get(sub)
                if nodes is not None:
                    if s is None:
                        s = slices[sub] = _KeyList()
                    node = nodes[key] = _Node(key)
                    s.append(node)
                elif s is None:
                    slices[sub] = [key]
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
        for project, slices, marks, nodes in indexes:
            sub = project(key)
            s = slices[sub]
            if nodes is not None:
                s.remove(nodes.pop(key))
                if not s.count:
                    del slices[sub]
                continue
            if s.__class__ is list:
                # at most COMPACT_FLOOR tuples to scan
                s.remove(key)
                if not s:
                    del slices[sub]
                continue
            del s[key]
            n = len(s)
            if not n:
                del slices[sub], marks[sub]
            elif 4 * n < marks[sub]:
                meter.total += n
                if n > COMPACT_FLOOR:
                    slices[sub] = dict(s)
                    marks[sub] = n
                else:
                    slices[sub] = list(s)
                    del marks[sub]
        n = len(entries)
        if 4 * n < self._hwm and self._hwm > COMPACT_FLOOR:
            self.entries = dict(entries)
            meter.total += n
            self._hwm = n
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
        entries = dict(items)
        if len(entries) < len(items):
            # a key repeats: its multiplicities add up
            entries = {}
            get = entries.get
            for key, m in items:
                entries[key] = get(key, 0) + m
        self.entries = entries
        n = len(entries)
        if n > self._hwm:
            self._hwm = n
        for project, slices, marks, nodes in self._indexes:
            if nodes is not None:
                for key in entries:
                    sub = project(key)
                    s = slices.get(sub)
                    if s is None:
                        s = slices[sub] = _KeyList()
                    node = nodes[key] = _Node(key)
                    s.append(node)
                continue
            groups = defaultdict(list)
            for key in entries:
                groups[project(key)].append(key)
            for sub, s in groups.items():
                if len(s) > COMPACT_FLOOR:
                    groups[sub] = dict.fromkeys(s)
                    marks[sub] = len(s)
            slices.update(groups)
        self.meter.total += len(items) + n * len(self._indexes)

    def _missing(self, cols, kind="index"):
        return MissingIndex(f"{self.name}: no {kind} on columns {cols}")

    def slice_count(self, cols, sub):
        """|sigma_{cols=sub}K|: number of distinct tuples under the key, O(1)."""
        self.meter.total += 1
        try:
            _, slices, _, nodes = self._by_cols[cols]
        except KeyError:
            raise self._missing(cols) from None
        s = slices.get(sub)
        if s is None:
            return 0
        return len(s) if nodes is None else s.count

    def contains(self, cols, sub):
        """Projection membership test, O(1)."""
        return self.slice_count(cols, sub) > 0

    def slice_items(self, cols, sub):
        """Yield (tuple, multiplicity) for each entry under the key, constant delay.

        The relation must not be mutated while the generator is live.
        """
        try:
            _, slices, _, nodes = self._by_cols[cols]
        except KeyError:
            raise self._missing(cols) from None
        meter = self.meter
        meter.total += 1
        s = slices.get(sub)
        if s is None:
            return
        entries = self.entries
        if nodes is None:
            for k in s:
                meter.total += 1
                yield k, entries[k]
            return
        node = s.head
        while node is not None:
            meter.total += 1
            k = node.key
            yield k, entries[k]
            node = node.nxt

    def hash_slices(self, cols):
        """The slices map of a hash index: projection key -> list or dict
        of its tuples, both iterated in insertion order. The map lives as
        long as the Relation; the slices in it do not (promotion and
        compaction replace them)."""
        ix = self._by_cols.get(cols)
        if ix is None or ix[3] is not None:
            raise self._missing(cols, "hash index")
        return ix[1]

    def _linked(self, cols):
        ix = self._by_cols.get(cols)
        if ix is None or ix[3] is None:
            raise self._missing(cols, "linked index")
        return ix

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
        audit(not (4 * len(entries) < self._hwm and self._hwm > COMPACT_FLOOR), self.name)
        for cols, (project, slices, marks, nodes) in self._by_cols.items():
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


def walk_probe(walked, col, probed, meter):
    """Bind the update path's walk-and-probe kernel, `kernel(sub, other)`.

    The `walked` parts (one or two binary Relations) are sliced on column
    `col` at `sub`; a walked tuple binds w, its other column, and the
    probe key is the rotated pair: (w, other) when walking column 0,
    (other, w) when walking column 1. The kernel returns (w, mw * mp) for
    every w where both the walked multiplicity mw and the multiplicity mp
    summed over the `probed` parts (one, two or four) are nonzero; with
    nothing probed it returns (w, mw) for every walked tuple. Every part
    needs a hash index on each column it is sliced on.

    With nothing probed the kernel walks the walked parts' slices, part by
    part, each in insertion order, and charges what `slice_items` would:
    1 + n per walked part with n tuples under `sub`.

    With parts probed it reads, one tick each, the length of each walked
    part's slice at `sub` and of each probed part's slice at `other` on
    column 1 - col: the probe keys that can hit are exactly the tuples of
    those slices. If either side is empty it returns there. Otherwise it
    walks the side that costs less, the intersection rule of worst-case
    optimal joins: n_walked * (1 + #probed) against n_probed * (1 +
    #walked), ties to the walked side. Walking the probed side binds
    w = k[col] and probes the walked parts at (sub, w) or (w, sub); it
    yields one hit per probed tuple, so where probed parts overlap (never
    within a partition) a w can come out more than once. The charge is
    #walked + #probed, plus the chosen walk, plus one per hit, in one add
    once the walk has run. The walk never costs more than the walked
    side's, so the bound a fragment's `sides` letter gives still holds.
    """
    if not 1 <= len(walked) <= 2 or len(probed) not in (0, 1, 2, 4):
        raise ValueError(f"{len(walked)} walked and {len(probed)} probed parts")
    if not probed:
        if len(walked) == 2:
            a, b = (walk_probe([rel], col, probed, meter) for rel in walked)
            return lambda sub, other=None: a(sub, other) + b(sub, other)
        (rel,) = walked
        slices = rel.hash_slices((col,))
        at = 1 - col

        def kernel(sub, other=None):
            s = slices.get(sub)
            if s is None:
                meter.total += 1
                return []
            meter.total += 1 + len(s)
            entries = rel.entries
            return [(k[at], entries[k]) for k in s]

        return kernel
    at, first = 1 - col, col == 0
    slices = tuple(rel.hash_slices((col,)) for rel in walked)
    others = tuple(rel.hash_slices((at,)) for rel in probed)

    if len(walked) == len(probed) == 1:
        # the common case (most direct-fragment steps), with both walks
        # written out
        (rel,), (probe,) = walked, probed
        (by_sub,), (by_other,) = slices, others

        def kernel(sub, other):
            s, t = by_sub.get(sub), by_other.get(other)
            if s is None or t is None:
                meter.total += 2
                return []
            we, pe, out = rel.entries, probe.entries, []
            if len(s) <= len(t):
                for k in s:
                    w = k[at]
                    mp = pe.get((w, other) if first else (other, w), 0)
                    if mp:
                        out.append((w, we[k] * mp))
                meter.total += 2 + 2 * len(s) + len(out)
            else:
                for k in t:
                    w = k[col]
                    mw = we.get((sub, w) if first else (w, sub), 0)
                    if mw:
                        out.append((w, mw * pe[k]))
                meter.total += 2 + 2 * len(t) + len(out)
            return out

        return kernel

    fixed, per_walked, per_probed = len(walked) + len(probed), 1 + len(probed), 1 + len(walked)
    forward, flipped = _probe_walk(walked, col, probed), _probe_walk(probed, at, walked)

    def kernel(sub, other):
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
            return []
        if nw * per_walked <= np * per_probed:
            out = forward(sub, other)
            meter.total += fixed + nw * per_walked + len(out)
        else:
            out = flipped(other, sub)
            meter.total += fixed + np * per_probed + len(out)
        return out

    return kernel


def _probe_walk(walked, col, probed):
    """`walk(sub, other)`: [(w, mw * mp)] over the `walked` parts' col = sub
    slices, part by part, each in insertion order, mp summed over the
    `probed` parts at the rotated pair; unmetered."""
    at, first = 1 - col, col == 0
    sides = tuple((rel, rel.hash_slices((col,))) for rel in walked)

    def walk(sub, other):
        out = []
        for rel, by_sub in sides:
            s = by_sub.get(sub)
            if s is None:
                continue
            entries = rel.entries
            for k in s:
                w = k[at]
                key = (w, other) if first else (other, w)
                mp = 0
                for p in probed:
                    mp += p.entries.get(key, 0)
                if mp:
                    out.append((w, entries[k] * mp))
        return out

    return walk


def walk_sum(walked, col, probed, meter):
    """Bind `kernel(sub, other)`, the walk of `walk_probe` that keeps its
    misses: it returns [(key, mw)] for every walked tuple, key being the
    tuple with `other` in place of `sub`, and the sum of mw * mp, mp summed
    over the two or four `probed` parts at the rotated pair. It walks every
    walked tuple, whatever the probed side holds, and charges what the same
    walk through `slice_items` and `lookup` costs, with one combine per
    nonzero probe: 1 + n per walked part with n tuples under `sub`, one per
    probed part per tuple, and one per hit."""
    slices = [(rel, rel.hash_slices((col,))) for rel in walked]
    per, first = 1 + len(probed), col == 0

    def kernel(sub, other):
        ga, gb, *more = [p.entries.get for p in probed]
        out, total, ops = [], 0, 0
        for rel, by_sub in slices:
            s, entries = by_sub.get(sub, ()), rel.entries
            ops += 1 + per * len(s)
            for k in s:
                mw = entries[k]
                if first:
                    w = k[1]
                    key = (w, other)
                    out.append(((other, w), mw))
                else:
                    w = k[0]
                    key = (other, w)
                    out.append(((w, other), mw))
                mp = ga(key, 0) + gb(key, 0)
                if more:
                    for g in more:
                        mp += g(key, 0)
                if mp:
                    total += mw * mp
                    ops += 1
        meter.total += ops
        return out, total

    return kernel
