"""Distinct-element enumeration over unions of sets.

Three layers, each with constant delay in its own terms:

  * UnionIterator over set iterators: the absorb algorithm (an element
    found in a later set defers emission to that set's cursor);
  * HopIterator: iteration with an exclusion set, using mutually inverse
    skipTo/skippedFrom pointer maps so runs of excluded elements are
    jumped in one hop; the run that reaches EOF from the first element
    says every element is excluded;
  * HopUnionIterator: a union of per-key buckets where emitting an element
    excludes it from every other bucket that holds it, and a bucket left
    with every element excluded is dropped unvisited.

A hop union is told which buckets hold an element, its candidate keys, so
the collections backing hop iterators only step: first() -> element or
None, and successor(x) -> element or None.

d1's and d2's read runs the union's absorb loop itself, over `res`'s
keys and one hop union per pair tree (`fragments.KeyedEngine`), so
UnionIterator and KeyIterator serve only the tests' reference loops and
the bench tracer's spans; HopUnionIterator is the one the engines open.
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


def stale(version):
    """The StaleIterator of a read opened at `version`."""
    return StaleIterator(f"state advanced past version {version}")


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
    """Set iterator over the keys of a Relation, in insertion order, as
    the head of a UnionIterator, which checks the engine version first.
    `next` charges one tick, as a key step, as d1's and d2's read loop
    does."""

    def __init__(self, rel):
        self._meter = rel.meter
        self._it = iter(rel.entries)

    def next(self):
        self._meter.total += 1
        return next(self._it, EOF)


class UnionIterator:
    """Next distinct element of the union of a fixed list of set
    iterators, or EOF; their methods are bound once.

    Calling `next` repeatedly until EOF emits every element of the union
    exactly once. The head iterator is only stepped; each later one, in
    order, either absorbs the element passed on to it (it holds that
    element, so its own cursor element is passed on instead and the
    absorbed one surfaces when its cursor reaches it) or passes it on,
    and an EOF passes to its next element. Each `next` first checks that
    `state.version` has not moved since the open, the one staleness
    check of a step.
    """

    def __init__(self, iterators, meter, state):
        self._iters = iters = list(iterators)
        self._meter = meter
        self._state, self._version = state, state.version
        self._head = iters[0].next
        self._later = tuple((it.contains, it.next) for it in iters[1:])

    def next(self):
        if self._state.version != self._version:
            raise stale(self._version)
        self._meter.total += 1
        t = self._head()
        for contains, nxt in self._later:
            if t is EOF or contains(t):
                t = nxt()
        return t


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


class HopIterator:
    """Iterator over a collection supporting exclusion of arbitrary elements.

    skipTo maps the first element of each maximal excluded run to the first
    live element (or EOF) after it; skippedFrom is its inverse for the
    reachable entries. Stale pointers left behind by run merges are never
    consulted: lookups happen only at live elements and run starts.

    The collection's first element is read at most once: by the first
    `next()`, or by `exhausted()` once an excluded run reaches EOF.
    """

    def __init__(self, coll, meter):
        self.coll = coll
        self.curr = BOF
        self.skip_to = {}
        self.skipped_from = {}
        self.excluded = set()
        self._first = BOF  # BOF until read
        self._meter = meter

    def _hop(self, x):
        return self.skip_to.get(x, x)

    def _head(self):
        if self._first is BOF:
            self._first = self.coll.first()
        return self._first

    def next(self):
        self._meter.total += 1
        if self.curr is EOF:
            return EOF
        if self.curr is BOF:
            raw = self._head()
        else:
            raw = self.coll.successor(self.curr)
        raw = EOF if raw is None else raw
        self.curr = self._hop(raw)
        return self.curr

    def exclude(self, x):
        """Prevent x, an element of the collection, from ever being
        reported. Returns True if state changed, False if x was excluded
        already."""
        self._meter.total += 1
        if x in self.excluded:
            return False
        succ = self.coll.successor(x)
        to = self._hop(EOF if succ is None else succ)
        frm = self.skipped_from.get(x, x)
        self.skip_to[frm] = to
        self.skipped_from[to] = frm
        self.excluded.add(x)
        return True

    def exhausted(self):
        """True when every element is excluded: the excluded run that
        reaches EOF starts at the first element."""
        frm = self.skipped_from.get(EOF)
        return frm is not None and frm == self._head()


class HopUnionIterator:
    """Distinct union over per-key buckets with exclusion of emitted elements.

    A bucket-level hop iterator walks the buckets in the order
    `bucket_keys` lists them (engines pass the keys of a top view, or of
    its linked index on the root variable, in their order); listing them
    costs one tick per key before the first element. Bucket hop iterators
    are created on first access, whether that access is iteration or
    exclusion. After emitting t from the current bucket, t is excluded
    from every other candidate bucket; a bucket left with every element
    excluded that way is excluded from the bucket-level hop iterator and
    never iterated. Only a bucket not yet started loses elements this
    way: an element that an earlier bucket also held was emitted there
    already.

    `candidate_keys(t)` returns the keys of exactly the buckets that hold
    t, which is not checked here: the exclusions trust it, and the union
    holds t exactly when t has a candidate. Every bucket must be
    non-empty: the delay bound of a few ticks per candidate bucket rests
    on it.
    """

    def __init__(self, bucket_keys, open_bucket, candidate_keys, meter):
        self._open_bucket = open_bucket
        self._candidates = candidate_keys
        self._meter = meter
        self.buckets = ListCollection(bucket_keys)
        # listing the bucket keys: one tick per key
        meter.total += len(self.buckets)
        self.i_buckets = HopIterator(self.buckets, meter)
        self.bucket_iters = {}
        self._cur = None

    def _ensure(self, k):
        it = self.bucket_iters.get(k)
        if it is None:
            it = self.bucket_iters[k] = HopIterator(self._open_bucket(k), self._meter)
        return it

    def next(self):
        self._meter.total += 1
        while True:
            if self._cur is None:
                k = self.i_buckets.next()
                if k is EOF:
                    return EOF
                self._cur = k
            cur = self._cur
            t = self._ensure(cur).next()
            if t is EOF:
                self._cur = None
                continue
            for k in self._candidates(t):
                if k == cur:
                    continue
                it = self._ensure(k)
                if it.exclude(t) and it.exhausted():
                    self.i_buckets.exclude(k)
            return t
