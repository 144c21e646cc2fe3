"""Distinct-element enumeration over unions of sets.

Three layers, each with constant delay in its own terms:

  * union_next over plain set iterators: the recursive absorb algorithm
    (an element found in a later set defers emission to that set's cursor);
  * HopIterator: iteration with an exclusion set, using mutually inverse
    skipTo/skippedFrom pointer maps so runs of excluded elements are
    jumped in one hop;
  * HopUnionIterator: a union of per-key buckets where emitting an element
    excludes it from every candidate bucket that may still hold it.

Collections backing hop iterators expose first() -> element or None,
successor(x) -> element or None, and contains(x) -> bool.
"""

from __future__ import annotations


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


EOF = _Sentinel("EOF")
BOF = _Sentinel("BOF")


class StaleIterator(Exception):
    """The engine state changed while an enumeration iterator was live."""


class SeqIterator:
    """Set iterator over an ordered duplicate-free sequence."""

    def __init__(self, seq):
        self._seq = list(seq)
        self._set = set(self._seq)
        assert len(self._set) == len(self._seq), "duplicates in sequence"
        self._pos = 0

    def next(self):
        if self._pos >= len(self._seq):
            return EOF
        t = self._seq[self._pos]
        self._pos += 1
        return t

    def contains(self, t):
        return t in self._set


class KeyIterator:
    """Set iterator over the keys of a Relation, in insertion order."""

    def __init__(self, rel, guard=None):
        self._rel = rel
        self._it = iter(rel.entries)
        self._guard = guard

    def next(self):
        if self._guard is not None:
            self._guard()
        self._rel.meter.tick()
        return next(self._it, EOF)

    def contains(self, t):
        if self._guard is not None:
            self._guard()
        return self._rel.lookup(t) != 0


def union_next(iterators):
    """Next distinct element of the union of the given set iterators, or EOF.

    Calling repeatedly until EOF emits every element of the union exactly
    once. An element produced by an earlier iterator that also belongs to a
    later set is absorbed: the later iterator's cursor element is emitted
    in its place and the element itself surfaces when that iterator reaches
    it.
    """
    return _union_next(list(iterators), len(iterators))


def _union_next(iters, n):
    if n == 0:
        return EOF
    if n == 1:
        return iters[0].next()
    t = _union_next(iters, n - 1)
    last = iters[n - 1]
    if t is not EOF:
        if last.contains(t):
            return last.next()
        return t
    return last.next()


class UnionIterator:
    """Stateful wrapper around union_next over a fixed iterator list."""

    def __init__(self, iterators, meter=None, guard=None):
        self._iters = list(iterators)
        self._meter = meter
        self._guard = guard

    def next(self):
        if self._guard is not None:
            self._guard()
        if self._meter is not None:
            self._meter.tick()
        return _union_next(self._iters, len(self._iters))

    def contains(self, t):
        return any(it.contains(t) for it in self._iters)


class ListCollection:
    """Hop-iterator collection over a fixed duplicate-free list."""

    def __init__(self, seq):
        self._seq = list(seq)
        self._pos = {x: i for i, x in enumerate(self._seq)}
        assert len(self._pos) == len(self._seq), "duplicates in sequence"

    def __len__(self):
        return len(self._seq)

    def first(self):
        return self._seq[0] if self._seq else None

    def successor(self, x):
        i = self._pos[x] + 1
        return self._seq[i] if i < len(self._seq) else None

    def contains(self, x):
        return x in self._pos


class RangeCollection:
    """Hop-iterator collection over the integers 0..n-1."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def first(self):
        return 0 if self.n > 0 else None

    def successor(self, i):
        j = i + 1
        return j if j < self.n else None

    def contains(self, i):
        return 0 <= i < self.n


class MappedSliceCollection:
    """Linked-slice collection whose elements are a projection of the entry tuples.

    `to_element` maps a stored tuple to the exposed element; `to_key` maps
    an element back to the full tuple (well-defined because the slice key
    pins the other positions).
    """

    def __init__(self, rel, cols, sub, to_element, to_key):
        self._rel = rel
        self._cols = cols
        self._sub = sub
        self._to_element = to_element
        self._to_key = to_key

    def __len__(self):
        return self._rel.slice_count(self._cols, self._sub)

    def first(self):
        k = self._rel.slice_head(self._cols, self._sub)
        return self._to_element(k) if k is not None else None

    def successor(self, x):
        k = self._rel.slice_next(self._cols, self._to_key(x))
        return self._to_element(k) if k is not None else None

    def contains(self, x):
        return self._rel.lookup(self._to_key(x)) != 0


class HopIterator:
    """Iterator over a collection supporting exclusion of arbitrary elements.

    skipTo maps the first element of each maximal excluded run to the first
    live element (or EOF) after it; skippedFrom is its inverse for the
    reachable entries. Stale pointers left behind by run merges are never
    consulted: lookups happen only at live elements and run starts.
    """

    def __init__(self, coll, meter=None):
        self.coll = coll
        self.curr = BOF
        self.skip_to = {}
        self.skipped_from = {}
        self.excluded = set()
        self.visits = 0
        self._meter = meter

    def _hop(self, x):
        return self.skip_to.get(x, x)

    def next(self):
        self.visits += 1
        if self._meter is not None:
            self._meter.tick()
        if self.curr is EOF:
            return EOF
        if self.curr is BOF:
            raw = self.coll.first()
        else:
            raw = self.coll.successor(self.curr)
        raw = EOF if raw is None else raw
        self.curr = self._hop(raw)
        return self.curr

    def exclude(self, x):
        """Prevent x from ever being reported. Returns True if state changed."""
        if self._meter is not None:
            self._meter.tick()
        if x in self.excluded or not self.coll.contains(x):
            return False
        succ = self.coll.successor(x)
        to = self._hop(EOF if succ is None else succ)
        frm = self.skipped_from.get(x, x)
        self.skip_to[frm] = to
        self.skipped_from[to] = frm
        self.excluded.add(x)
        return True


class HopUnionIterator:
    """Distinct union over per-key buckets with exclusion of emitted elements.

    Buckets get dense integer ids in the order `bucket_keys` lists them
    (engines pass the root view's entries, so its key order), charged one
    tick per key before the first element; bucket hop iterators are
    created on first access, whether that access is iteration or exclusion.
    After emitting t from the current bucket, t is excluded from every
    other candidate bucket; a bucket whose remaining count hits zero that
    way is excluded from the bucket-level hop iterator and never iterated.
    """

    def __init__(self, bucket_keys, open_bucket, bucket_size, candidate_keys,
                 meter=None, guard=None):
        self._open_bucket = open_bucket
        self._bucket_size = bucket_size
        self._candidates = candidate_keys
        self._meter = meter
        self._guard = guard
        self._keys = list(bucket_keys)
        self.id_map = {k: i for i, k in enumerate(self._keys)}
        if meter is not None:
            # listing and numbering the bucket keys: one tick per key
            meter.total += len(self._keys)
        self.i_buckets = HopIterator(RangeCollection(len(self._keys)), meter)
        self.bucket_iters = {}
        self._colls = {}
        self._remaining = {}
        self._cur = None

    def _coll(self, i):
        c = self._colls.get(i)
        if c is None:
            c = self._colls[i] = self._open_bucket(self._keys[i])
        return c

    def _ensure(self, i):
        it = self.bucket_iters.get(i)
        if it is None:
            it = self.bucket_iters[i] = HopIterator(self._coll(i), self._meter)
            self._remaining[i] = self._bucket_size(self._keys[i])
        return it

    def next(self):
        if self._guard is not None:
            self._guard()
        if self._meter is not None:
            self._meter.tick()
        while True:
            if self._cur is None:
                i = self.i_buckets.next()
                if i is EOF:
                    return EOF
                self._cur = i
            it = self._ensure(self._cur)
            t = it.next()
            if t is EOF:
                self._cur = None
                continue
            cur = self._cur
            self._remaining[cur] -= 1
            for k in self._candidates(t):
                j = self.id_map.get(k)
                if j is None or j == cur:
                    continue
                if self._ensure(j).exclude(t):
                    self._remaining[j] -= 1
                    if self._remaining[j] == 0:
                        self.i_buckets.exclude(j)
            return t

    def contains(self, t):
        if self._guard is not None:
            self._guard()
        for k in self._candidates(t):
            j = self.id_map.get(k)
            if j is not None and self._coll(j).contains(t):
                return True
        return False
