"""Multiplicity-annotated relations with constant-time indexed access.

`entries` maps each stored tuple to its nonzero multiplicity. Every
declared projection is an index from projection key to the slice of
tuples under it, of one of two kinds:

  * hash (the default): the slice is an insertion-ordered dict of its
    tuples, so add, remove and count are one dict operation each and a
    slice walk runs in insertion order;
  * linked (listed in `linked=`): the slice is an insertion-ordered
    doubly-linked list with a node per tuple, which also answers
    `slice_head` and `slice_next` in O(1). Hop iterators need that
    successor step; nothing else does, so only their indexes pay for it.

CPython dicts keep the slots of deleted keys until they next grow, and
iterating walks those slots too: a dict that shrank from a million keys
to one still takes milliseconds to yield its first key, delay the meter
cannot see. So every dict that is iterated and can shrink (`entries` and
each hash slice) is rebuilt once its length falls below a quarter of its
high-water mark, charged one tick per entry moved; the rebuilt dict's
mark is its new length. Dicts whose mark is at most COMPACT_FLOOR are
left alone: CPython sizes a dict from its live keys whenever it grows, so
one that never held more than that many keys has a small constant number
of slots to walk.

The update path reads the parts through `walk_probe`, one kernel for the
loops of the form "walk one partner's slice, probe the other partner at
the rotated pair", and `slice_counter`. A kernel is bound once per build
to the parts and to the `slices` map of their index, which lives as long
as its Relation; compaction replaces `entries` and single slice dicts, so
a kernel reads both afresh on every call. A kernel charges exactly what
the equivalent `slice_items` and `lookup` calls would, in one add once its
walk has run (see CostMeter for when that is allowed).
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter

# high-water mark at or below which a dict is never rebuilt (see above)
COMPACT_FLOOR = 8


class RejectedDelete(Exception):
    """A delete would drive some multiplicity negative."""


class MissingIndex(Exception):
    """No index of the needed kind was declared for the requested projection."""


class CostMeter:
    """Counts elementary operations, bucketed by maintenance phase.

    One unit is charged per map operation, per index-list step, per
    arithmetic combine, and per entry a dict rebuild moves. Wall-clock time
    is never part of the contract; tests and the bench harness compare
    these counters instead.

    Charging is one add to `total` (hot paths add to it directly). Phase
    totals are settled at the `phase()` brackets: the ops since the last
    bracket edge belong to the phase that was current in between, which
    is "apply" outside any bracket.

    A loop may charge its whole cost in one add (bulk charging) only if it
    always runs to its end and nothing reads `total` while it runs: the
    update-path kernels (`walk_probe`) do. Enumeration, hop iterators, walks
    that can stop early and the init path charge item by item, so the
    delay between two reads of `total` is what was metered in between.
    """

    __slots__ = ("total", "last_update", "_bucket", "_mark", "_settled")

    def __init__(self):
        self.total = 0
        self.last_update = 0
        self._bucket = "apply"
        self._mark = 0
        self._settled = {"apply": 0, "major": 0, "minor": 0}

    def tick(self, n=1):
        self.total += n

    def _enter(self, name):
        prev = self._bucket
        self._settled[prev] += self.total - self._mark
        self._mark = self.total
        self._bucket = name
        return prev

    @contextmanager
    def phase(self, name):
        if name not in self._settled:
            raise ValueError(f"unknown phase {name!r}")
        prev = self._enter(name)
        try:
            yield
        finally:
            self._enter(prev)

    @property
    def phases(self):
        """Ops per phase so far, as a fresh dict."""
        out = dict(self._settled)
        out[self._bucket] += self.total - self._mark
        return out

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
    of each hash slice above COMPACT_FLOOR, and nodes maps each stored
    tuple to its list node for a linked index and is None for a hash one.
    """

    __slots__ = ("name", "arity", "meter", "index_cols", "entries", "_hwm",
                 "_by_cols", "_indexes")

    def __init__(self, name, arity, index_cols=(), meter=None, linked=()):
        self.name = name
        self.arity = arity
        self.meter = meter if meter is not None else CostMeter()
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
                    slices[sub] = {key: None}
                else:
                    s[key] = None
                    n = len(s)
                    if n > COMPACT_FLOOR and n > marks.get(sub, 0):
                        marks[sub] = n
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
            del s[key]
            n = len(s)
            if not n:
                del slices[sub]
                if marks:
                    marks.pop(sub, None)
            elif marks:
                mark = marks.get(sub)
                if mark is not None and 4 * n < mark:
                    slices[sub] = dict(s)
                    meter.total += n
                    if n > COMPACT_FLOOR:
                        marks[sub] = n
                    else:
                        del marks[sub]
        n = len(entries)
        if 4 * n < self._hwm and self._hwm > COMPACT_FLOOR:
            self.entries = dict(entries)
            meter.total += n
            self._hwm = n
        return 0

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
        """The slices map of a hash index: projection key -> dict of its
        tuples. The map lives as long as the Relation; the slice dicts in
        it do not (compaction replaces them)."""
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
            assert mult != 0, key
            assert len(key) == self.arity, key
        assert not (4 * len(entries) < self._hwm and self._hwm > COMPACT_FLOOR), self.name
        for cols, (project, slices, marks, nodes) in self._by_cols.items():
            seen = 0
            for sub, s in slices.items():
                if nodes is None:
                    keys = list(s)
                    mark = marks.get(sub)
                    if mark is not None:
                        assert mark > COMPACT_FLOOR and 4 * len(s) >= mark, (self.name, cols, sub)
                else:
                    keys, node, prev = [], s.head, None
                    while node is not None:
                        assert node.prev is prev
                        assert nodes[node.key] is node
                        keys.append(node.key)
                        prev, node = node, node.nxt
                    assert s.tail is prev and s.count == len(keys), (self.name, cols, sub)
                assert keys, (self.name, cols, sub)
                for key in keys:
                    assert key in entries, (self.name, cols, key)
                    assert project(key) == sub, (self.name, cols, key)
                seen += len(keys)
            assert seen == len(entries), (self.name, cols)
            assert set(marks) <= set(slices), (self.name, cols)
            if nodes is not None:
                assert len(nodes) == len(entries), (self.name, cols)


def walk_probe(walked, col, probed, meter):
    """Bind the update path's walk-and-probe kernel, `kernel(sub, other)`.

    The kernel walks the col = sub slices of the `walked` parts (one or
    two binary Relations with a hash index on `(col,)`), part by part, each
    in insertion order. A walked tuple binds w, its other column, and the
    probe key is the rotated pair: (w, other) when walking column 0,
    (other, w) when walking column 1. The kernel returns [(w, mw * mp)]
    for every walked tuple whose multiplicity mp summed over the `probed`
    parts (one, two or four) is nonzero; with nothing probed it returns
    [(w, mw)] for every walked tuple.

    It charges what the same walk through `slice_items` and `lookup`
    costs, with one combine per nonzero probe: 1 + n per walked part with
    n tuples under `sub`, one per probed part per tuple, and one per hit,
    in one add once the walk has run.
    """
    if not 1 <= len(walked) <= 2 or len(probed) not in (0, 1, 2, 4):
        raise ValueError(f"{len(walked)} walked and {len(probed)} probed parts")
    if len(walked) == 2:
        a, b = (walk_probe([rel], col, probed, meter) for rel in walked)
        return lambda sub, other=None: a(sub, other) + b(sub, other)
    (rel,) = walked
    slices = rel.hash_slices((col,))
    per, at, first = 1 + len(probed), 1 - col, col == 0

    if not probed:
        def kernel(sub, other=None):
            s = slices.get(sub)
            if s is None:
                meter.total += 1
                return []
            meter.total += 1 + len(s)
            entries = rel.entries
            return [(k[at], entries[k]) for k in s]

    elif len(probed) == 1:
        # the common case (every d0 walk of a single partitioning, most
        # direct-fragment walks), without the loop over probed parts
        (probe,) = probed

        def kernel(sub, other):
            s = slices.get(sub)
            if s is None:
                meter.total += 1
                return []
            pe, entries, out = probe.entries, rel.entries, []
            for k in s:
                w = k[at]
                mp = pe.get((w, other) if first else (other, w), 0)
                if mp:
                    out.append((w, entries[k] * mp))
            meter.total += 1 + per * len(s) + len(out)
            return out

    else:
        def kernel(sub, other):
            s = slices.get(sub)
            if s is None:
                meter.total += 1
                return []
            pes, entries, out = [p.entries for p in probed], rel.entries, []
            for k in s:
                w = k[at]
                key = (w, other) if first else (other, w)
                mp = 0
                for pe in pes:
                    mp += pe.get(key, 0)
                if mp:
                    out.append((w, entries[k] * mp))
            meter.total += 1 + per * len(s) + len(out)
            return out

    return kernel


def slice_counter(rels, col, meter):
    """Bind `count(sub)`: the tuples under col = sub summed over one or two
    hash-indexed `rels`, charged one per part as `slice_count` is."""
    if len(rels) == 2:
        a, b = (slice_counter([rel], col, meter) for rel in rels)
        return lambda sub: a(sub) + b(sub)
    (rel,) = rels
    slices = rel.hash_slices((col,))

    def count(sub):
        meter.total += 1
        s = slices.get(sub)
        return 0 if s is None else len(s)

    return count
