"""Distinct-element enumeration over unions of sets.

Three layers, each with constant delay in its own terms:

  * UnionIterator over set iterators: the absorb algorithm (an element
    found in a later set defers emission to that set's cursor);
  * HopIterator: iteration with an exclusion set, using mutually inverse
    skipTo/skippedFrom pointer maps so runs of excluded elements are
    jumped in one hop;
  * HopUnionIterator: a union of per-key buckets where emitting an element
    excludes it from every other bucket that holds it, and a bucket left
    with every element excluded (its excluded run that reaches EOF starts
    at its first element) is dropped unvisited. It holds every bucket's
    skip maps itself and walks the buckets with one HopIterator.

A hop union is told which buckets hold an element, its candidate keys, so
a HopIterator's collection only steps, first() and successor(x), and so
does a hop union's bucket k, first(k) and successor(k, x): each gives an
element or None.

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
    """

    def __init__(self, coll, meter):
        self.coll = coll
        self.curr = BOF
        self.skip_to = {}
        self.skipped_from = {}
        self.excluded = set()
        self._meter = meter

    def _hop(self, x):
        return self.skip_to.get(x, x)

    def next(self):
        self._meter.total += 1
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


class HopUnionIterator:
    """Distinct union over per-key buckets with exclusion of emitted elements.

    A bucket-level hop iterator walks the buckets in the order
    `bucket_keys` lists them (engines pass the keys of a top view, or of
    its linked index on the root variable, in their order); listing them
    costs one tick per key before the first element. The union steps
    bucket k through `first(k)` and `successor(k, x)` and holds its hop
    state: `heads[k]`, its first element, read at most once, and
    `skips[k]`, its skipTo and skippedFrom maps, made at its first
    exclusion. A bucket step ticks once, as does an exclusion. After
    emitting t from the current bucket, t is excluded from every other
    candidate bucket; a bucket left with every element excluded that way
    is excluded from the bucket-level hop iterator and never iterated.
    Only a bucket not yet started loses elements this way (an element an
    earlier bucket also held was emitted there already), so none loses
    one twice.

    `candidate_keys(t)` returns the keys of exactly the buckets that hold
    t, which is not checked here: the exclusions trust it, and the union
    holds t exactly when t has a candidate. Every bucket must be
    non-empty: the delay bound of a few ticks per candidate bucket rests
    on it.
    """

    def __init__(self, bucket_keys, first, successor, candidate_keys, meter):
        self._first, self._successor = first, successor
        self._candidates = candidate_keys
        self._meter = meter
        self.buckets = ListCollection(bucket_keys)
        # listing the bucket keys: one tick per key
        meter.total += len(self.buckets)
        self.i_buckets = HopIterator(self.buckets, meter)
        self.heads, self.skips = {}, {}
        # the current bucket, its skipTo map or None, and its cursor
        self.cur = self._skip_to = self._at = None

    def _head(self, k):
        x = self.heads.get(k, BOF)
        if x is BOF:
            x = self.heads[k] = self._first(k)
        return x

    def next(self):
        meter, successor = self._meter, self._successor
        meter.total += 1
        cur, skip_to = self.cur, self._skip_to
        while True:
            if cur is None:
                cur = self.i_buckets.next()
                if cur is EOF:
                    return EOF
                self.cur = cur
                skip_to = self._skip_to = self.skips.get(cur, (None,))[0]
                meter.total += 1
                x = self._head(cur)
            else:
                meter.total += 1
                x = successor(cur, self._at)
            if x is None:
                x = EOF
            elif skip_to is not None:
                x = skip_to.get(x, x)
            if x is EOF:
                self.cur = cur = None
                continue
            self._at = x
            for k in self._candidates(x):
                if k == cur:
                    continue
                # x joins or starts an excluded run, which now reaches the
                # hop of x's successor
                meter.total += 1
                succ = successor(k, x)
                hop_to, hop_from = self.skips.get(k) or self.skips.setdefault(k, ({}, {}))
                to = EOF if succ is None else hop_to.get(succ, succ)
                frm = hop_from.get(x, x)
                hop_to[frm] = to
                hop_from[to] = frm
                if to is EOF and frm == self._head(k):
                    self.i_buckets.exclude(k)
            return x
