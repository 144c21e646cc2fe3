"""Shared builders for enumeration and engine tests."""

from trimaint.iterators import BOF, EOF, HopIterator, HopUnionIterator, ListCollection
from trimaint.store import CostMeter

# Per-bucket iteration orders and candidate-bucket map for the four-bucket
# union example used in both the unit suite and the acceptance suite.
WORKED_ORDERS = {
    "a1": [1, 2, 3],
    "a2": [4, 1, 5],
    "a3": [2, 5, 3],
    "a4": [6, 4],
}
WORKED_CANDIDATES = {
    1: ("a1", "a2"),
    2: ("a1", "a3"),
    3: ("a1", "a3"),
    4: ("a2", "a4"),
    5: ("a2", "a3"),
    6: ("a4",),
}


def bucket_steps(orders, meter=None):
    """(first(k), successor(k, x)) of a hop union over the buckets
    `orders` lists, {key: elements in order}; with a meter, each step
    ticks once."""
    colls = {k: ListCollection(v) for k, v in orders.items()}

    def first(k):
        if meter is not None:
            meter.total += 1
        return colls[k].first()

    def successor(k, x):
        if meter is not None:
            meter.total += 1
        return colls[k].successor(x)
    return first, successor


def build_worked_hop_example():
    return HopUnionIterator(
        ["a1", "a2", "a3", "a4"],
        *bucket_steps(WORKED_ORDERS),
        lambda t: WORKED_CANDIDATES[t],
        CostMeter(),
    )


def started_buckets(it):
    """The list, filled as `it` runs, of the buckets the hop union `it`
    starts: each key its bucket-level hop iterator returns."""
    started, step = [], it.i_buckets.next

    def recorded():
        k = step()
        if k is not EOF:
            started.append(k)
        return k
    it.i_buckets.next = recorded
    return started


class BoundBucket:
    """Bucket k of a hop union's bound steps (first, successor) as a
    hop-iterator collection."""

    def __init__(self, steps, k):
        first, successor = steps
        self.first = lambda: first(k)
        self.successor = lambda x: successor(k, x)


class _FirstOnce:
    """A bucket collection whose first element is read at most once."""

    def __init__(self, coll):
        self._coll, self._first = coll, BOF
        self.successor = coll.successor

    def first(self):
        if self._first is BOF:
            self._first = self._coll.first()
        return self._first


class RefHopUnion:
    """The hop union as one HopIterator per bucket, made on the bucket's
    first access, iteration or exclusion, over the collection
    `open_bucket(key)`: the reference for HopUnionIterator, which holds
    every bucket's hop state itself. A bucket's first element is read at
    most once: by its first `next()`, or when an excluded run reaches EOF
    and the bucket may be exhausted."""

    def __init__(self, bucket_keys, open_bucket, candidate_keys, meter):
        self._open_bucket = open_bucket
        self._candidates = candidate_keys
        self._meter = meter
        self.buckets = ListCollection(bucket_keys)
        meter.total += len(self.buckets)
        self.i_buckets = HopIterator(self.buckets, meter)
        self.bucket_iters = {}
        self._cur = None

    def _ensure(self, k):
        it = self.bucket_iters.get(k)
        if it is None:
            it = self.bucket_iters[k] = HopIterator(_FirstOnce(self._open_bucket(k)),
                                                    self._meter)
        return it

    @staticmethod
    def _exhausted(it):
        # every element is excluded: the excluded run that reaches EOF
        # starts at the first element
        frm = it.skipped_from.get(EOF)
        return frm is not None and frm == it.coll.first()

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
                if it.exclude(t) and self._exhausted(it):
                    self.i_buckets.exclude(k)
            return t


def bound_rule(eng, t):
    """The bound read rule of pair tree t of a d1 or d2 engine: the keys
    of the buckets that hold an output tuple (see `fragments._pair_rule`)."""
    return (eng._enum or eng._bind_enumeration())[0][t][3]


class Versioned:
    """The state a UnionIterator checks for staleness: a version field."""

    version = 0


class SeqIterator:
    """Set iterator over an ordered duplicate-free sequence, a set of a
    UnionIterator."""

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


# the one triangle (a, b, c) = (1, 2, 3)
TRIANGLE = (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1)))


def part_labels(eng, triangle=TRIANGLE):
    """Labels of the parts holding each tuple of the triangle, by relation."""
    return {rel: [lab for lab, part in eng.parts[rel].parts.items() if key in part.entries]
            for rel, key in triangle}


def relation_layout(r):
    """Everything the insertion order of a Relation shows: its entries,
    the high-water marks of its entries and of its slices maps, and per
    index each slice's members in order (a hash slice with its container
    kind, list or dict; a linked slice walked from its head, with its tail
    and count), the marks and the order of the linked nodes."""
    out = [list(r.entries.items()), r._hwm]
    for _, slices, marks, nodes, i in r._indexes:
        if nodes is None:
            out.append([(sub, type(s), list(s)) for sub, s in slices.items()])
        else:
            walks = []
            for sub, s in slices.items():
                keys, node = [], s.head
                while node is not None:
                    keys.append(node.key)
                    node = node.nxt
                walks.append((sub, keys, s.tail.key, s.count))
            out += [walks, list(nodes)]
        out.append((dict(marks), r._map_hwm[i]))
    return out
