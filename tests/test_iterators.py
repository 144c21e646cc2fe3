import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BoundBucket, RefHopUnion, SeqIterator, Versioned, bucket_steps,
                      build_worked_hop_example, started_buckets)
from trimaint.iterators import (
    EOF,
    HopIterator,
    HopUnionIterator,
    KeyIterator,
    ListCollection,
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
    it = HopUnionIterator(["k"], *bucket_steps({"k": [3, 1, 2]}), lambda t: ("k",),
                          CostMeter())
    assert drain(it.next) == [3, 1, 2]


def test_hop_union_disjoint_buckets():
    colls = {"x": [1], "y": [2]}
    it = HopUnionIterator(
        ["x", "y"],
        *bucket_steps(colls),
        lambda t: ("x",) if t == 1 else ("y",),
        CostMeter(),
    )
    assert drain(it.next) == [1, 2]


def test_worked_example_emission_and_states():
    it = build_worked_hop_example()
    started = started_buckets(it)
    got = [it.next() for _ in range(3)]
    assert got == [1, 2, 3]

    # each bucket's (skipTo, skippedFrom) maps
    a2_to, a2_from = it.skips["a2"]
    a3_to, a3_from = it.skips["a3"]
    assert a2_to == {1: 5}
    assert a2_from == {5: 1}
    assert a3_to == {2: 5, 3: EOF}
    assert a3_from == {5: 2, EOF: 3}

    assert it.next() == 4
    a4_to, _ = it.skips["a4"]
    assert a4_to == {4: EOF}

    assert it.next() == 5
    # Excluding 5 merges a3's runs: its head now connects straight to EOF,
    # and the emptied bucket is skipped at the bucket level.
    assert a3_to[2] is EOF
    assert a3_from[EOF] == 2
    assert it.i_buckets.skip_to == {"a3": "a4"}

    assert it.next() == 6
    assert it.next() is EOF
    assert started == ["a1", "a2", "a4"]


def linked_slice_steps(rel):
    """Bucket steps over the B-values of V's linked slice at each A = a."""

    def first(a):
        k = rel.slice_head((0,), a)
        return k[1] if k is not None else None

    def successor(a, b):
        k = rel.slice_next((0,), (a, b))
        return k[1] if k is not None else None
    return first, successor


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
        *linked_slice_steps(v),
        candidates,
        m,
    )
    started = started_buckets(it)
    # Elements are the distinct B-values reachable from each A-keyed slice.
    assert drain(it.next) == [5, 6, 7]
    assert 3 not in started


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
        *bucket_steps(colls),
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
    # the excluded run that reaches EOF starts at the first element exactly
    # when every element is excluded
    order = data.draw(st.permutations(seq))
    it = HopIterator(ListCollection(seq), CostMeter())
    for i, x in enumerate(order):
        it.exclude(x)
        assert (it.skipped_from.get(EOF) == seq[0]) == (i == len(order) - 1), order[:i + 1]
    assert drain(it.next) == []
    # so a hop union drops a bucket not yet started, "held", exactly when
    # the bucket before it has emitted every one of its elements
    union = HopUnionIterator(["emit", "held"], *bucket_steps({"emit": order, "held": seq}),
                             lambda t: ("emit", "held"), CostMeter())
    started = started_buckets(union)
    for i, x in enumerate(order):
        assert union.next() == x
        dropped = union.i_buckets.skip_to == {"held": EOF}
        assert dropped == (i == len(order) - 1), order[:i + 1]
    assert union.next() is EOF
    assert started == ["emit"]


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
        *bucket_steps(colls),
        candidates,
        m,
    )
    while True:
        before = m.total
        t = it.next()
        if t is EOF:
            break
        assert m.total - before <= 6 * (len(candidates(t)) + 1)


@settings(max_examples=300)
@given(st.lists(st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=16),
                min_size=1, max_size=6), st.randoms())
def test_hop_union_matches_the_reference_union(sets, rng):
    # the same element and the same ticks at every next() as one
    # HopIterator per bucket, with exact candidate keys in shuffled order,
    # and at the end the same hop maps per bucket and at the bucket level
    orders = dict(enumerate(sets))
    candidates = {}
    for i, s in orders.items():
        for t in s:
            candidates.setdefault(t, []).append(i)
    for keys in candidates.values():
        rng.shuffle(keys)
    m, ref_m = CostMeter(), CostMeter()
    it = HopUnionIterator(list(orders), *bucket_steps(orders, m), candidates.__getitem__, m)
    steps = bucket_steps(orders, ref_m)
    ref = RefHopUnion(list(orders), lambda k: BoundBucket(steps, k), candidates.__getitem__,
                      ref_m)
    assert m.total == ref_m.total
    while True:
        before, ref_before = m.total, ref_m.total
        t = it.next()
        assert (t, m.total - before) == (ref.next(), ref_m.total - ref_before)
        if t is EOF:
            break
    hops = {k: (h.skip_to, h.skipped_from) for k, h in ref.bucket_iters.items() if h.skip_to}
    assert it.skips == hops
    assert (it.i_buckets.skip_to, it.i_buckets.skipped_from) == (
        ref.i_buckets.skip_to, ref.i_buckets.skipped_from)
