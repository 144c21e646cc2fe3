import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Versioned, build_worked_hop_example
from trimaint.iterators import (
    BOF,
    EOF,
    HopIterator,
    HopUnionIterator,
    KeyIterator,
    ListCollection,
    SeqIterator,
    StaleIterator,
    UnionIterator,
)
from trimaint.store import CostMeter, Relation


def drain(next_fn, limit=10_000):
    out = []
    for _ in range(limit):
        t = next_fn()
        if t is EOF:
            return out
        out.append(t)
    raise AssertionError("iterator did not terminate")


def drain_union(sets):
    union = UnionIterator([SeqIterator(s) for s in sets], CostMeter(), Versioned())
    return drain(union.next)


def test_union_two_overlapping_sets():
    assert drain_union([[1, 2], [2, 3]]) == [1, 2, 3]


def test_union_with_empty_first_set():
    assert drain_union([[], [7]]) == [7]


def test_union_three_identical_singletons():
    union = UnionIterator([SeqIterator([1]) for _ in range(3)], CostMeter(), Versioned())
    assert union.next() == 1
    assert union.next() is EOF


def test_union_iterator_over_relation_keys():
    # a tick per union step and per key step of the head; a moved
    # version stops the union
    meter, state = CostMeter(), Versioned()
    head = Relation("V", 1, (), meter)
    for k in (1, 2, 3):
        head.apply_delta((k,), 1)

    def union():
        later = [SeqIterator([(k,) for k in keys]) for keys in ([2, 4], [3, 4, 5])]
        return UnionIterator([KeyIterator(head)] + later, meter, state)

    u, before = union(), meter.total
    t = u.next()
    # (1,): one union step, one key step
    assert t == (1,) and meter.total - before == 2
    assert drain(u.next) == [(2,), (3,), (4,), (5,)]
    u = union()
    u.next()
    state.version += 1
    with pytest.raises(StaleIterator):
        u.next()


def test_hop_exclude_skips_over_excluded_run():
    it = HopIterator(ListCollection(["b4", "b1", "b5"]), CostMeter())
    assert it.next() == "b4"
    it.exclude("b1")
    assert it.next() == "b5"
    assert it.next() is EOF


def test_hop_exclude_twice_changes_nothing():
    it = HopIterator(ListCollection(["b4", "b1", "b5"]), CostMeter())
    assert it.exclude("b1")
    state = dict(it.skip_to), dict(it.skipped_from)
    assert not it.exclude("b1")
    assert (it.skip_to, it.skipped_from) == state
    assert drain(it.next) == ["b4", "b5"]


def test_hop_exclude_adjacent_merges_to_single_hop():
    it = HopIterator(ListCollection(["b4", "b1", "b5"]), CostMeter())
    it.exclude("b1")
    it.exclude("b5")
    assert it.skip_to == {"b1": EOF}
    assert drain(it.next) == ["b4"]


def test_hop_exclude_head_run():
    it = HopIterator(ListCollection([1, 2, 3, 4]), CostMeter())
    it.exclude(1)
    it.exclude(2)
    assert drain(it.next) == [3, 4]


def test_hop_exclude_everything():
    it = HopIterator(ListCollection([1, 2]), CostMeter())
    it.exclude(2)
    it.exclude(1)
    assert drain(it.next) == []


def test_hop_exclude_current_element_is_safe():
    it = HopIterator(ListCollection([1, 2, 3]), CostMeter())
    assert it.next() == 1
    it.exclude(1)
    assert drain(it.next) == [2, 3]


def test_hop_union_single_bucket_passthrough():
    it = HopUnionIterator(["k"], lambda k: ListCollection([3, 1, 2]), lambda t: ("k",),
                          CostMeter())
    assert drain(it.next) == [3, 1, 2]


def test_hop_union_disjoint_buckets():
    colls = {"x": [1], "y": [2]}
    it = HopUnionIterator(
        ["x", "y"],
        lambda k: ListCollection(colls[k]),
        lambda t: ("x",) if t == 1 else ("y",),
        CostMeter(),
    )
    assert drain(it.next) == [1, 2]


def test_worked_example_emission_and_states():
    it = build_worked_hop_example()
    got = [it.next() for _ in range(3)]
    assert got == [1, 2, 3]

    a2 = it.bucket_iters["a2"]
    a3 = it.bucket_iters["a3"]
    assert a2.skip_to == {1: 5}
    assert a2.skipped_from == {5: 1}
    assert a3.skip_to == {2: 5, 3: EOF}
    assert a3.skipped_from == {5: 2, EOF: 3}

    assert it.next() == 4
    a4 = it.bucket_iters["a4"]
    assert a4.skip_to == {4: EOF}

    assert it.next() == 5
    # Excluding 5 merges a3's runs: its head now connects straight to EOF,
    # and the emptied bucket is skipped at the bucket level.
    assert a3.skip_to[2] is EOF
    assert a3.skipped_from[EOF] == 2
    assert it.i_buckets.skip_to == {"a3": "a4"}

    assert it.next() == 6
    assert it.next() is EOF
    assert a3.curr is BOF


class LinkedSlice:
    """Hop-iterator collection over the B-values of V's linked slice at A = a."""

    def __init__(self, rel, a):
        self._rel, self._a = rel, a

    def first(self):
        k = self._rel.slice_head((0,), self._a)
        return k[1] if k is not None else None

    def successor(self, b):
        k = self._rel.slice_next((0,), (self._a, b))
        return k[1] if k is not None else None


def test_hop_union_over_relation_slices():
    m = CostMeter()
    v = Relation("V", 2, index_cols=((0,), (1,)), meter=m, linked=((0,),))
    rows = {1: [5, 6], 2: [6, 7], 3: [7, 5]}
    for a, bs in rows.items():
        for b in bs:
            v.apply_delta((a, b), 1)

    def candidates(b):
        return [a for a, bs in rows.items() if b in bs]

    it = HopUnionIterator(
        [1, 2, 3],
        lambda a: LinkedSlice(v, a),
        candidates,
        m,
    )
    # Elements are the distinct B-values reachable from each A-keyed slice.
    assert drain(it.next) == [5, 6, 7]
    assert it.bucket_iters[3].curr is BOF


unique_lists = st.lists(st.integers(0, 15), unique=True, max_size=16)


@settings(max_examples=300)
@given(st.lists(unique_lists, min_size=1, max_size=6))
def test_union_emits_distinct_union(sets):
    got = drain_union(sets)
    assert len(got) == len(set(got))
    assert set(got) == set().union(*map(set, sets))


@settings(max_examples=300)
@given(st.lists(unique_lists, min_size=1, max_size=6), st.randoms())
def test_hop_union_emits_distinct_union(sets, rng):
    colls = {i: s for i, s in enumerate(sets)}

    def candidates(t):
        # exactly the buckets that hold t, in any order
        out = [i for i, s in colls.items() if t in s]
        rng.shuffle(out)
        return out

    it = HopUnionIterator(
        list(colls),
        lambda i: ListCollection(colls[i]),
        candidates,
        CostMeter(),
    )
    got = drain(it.next)
    assert len(got) == len(set(got))
    assert set(got) == set().union(*map(set, sets))


@settings(max_examples=300)
@given(unique_lists, st.data())
def test_hop_exclusion_soundness(seq, data):
    excluded = set(data.draw(st.lists(st.sampled_from(seq), unique=True))) if seq else set()
    it = HopIterator(ListCollection(seq), CostMeter())
    order = list(excluded)
    random.Random(0).shuffle(order)
    for x in order:
        it.exclude(x)
    assert drain(it.next) == [x for x in seq if x not in excluded]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=16), st.data())
def test_hop_exhausted_exactly_when_every_element_is_excluded(seq, data):
    order = data.draw(st.permutations(seq))
    it = HopIterator(ListCollection(seq), CostMeter())
    assert not it.exhausted()
    for i, x in enumerate(order):
        it.exclude(x)
        assert it.exhausted() == (i == len(order) - 1), order[:i + 1]
    assert drain(it.next) == []


@settings(max_examples=100)
# buckets are never empty, as HopUnionIterator requires of its callers
@given(st.lists(st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=16),
                min_size=1, max_size=6))
def test_hop_union_delay_bounded_by_candidates(sets):
    colls = {i: s for i, s in enumerate(sets)}

    def candidates(t):
        return [i for i, s in colls.items() if t in s]

    m = CostMeter()
    it = HopUnionIterator(
        list(colls),
        lambda i: ListCollection(colls[i]),
        candidates,
        m,
    )
    while True:
        before = m.total
        t = it.next()
        if t is EOF:
            break
        assert m.total - before <= 6 * (len(candidates(t)) + 1)
