import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relation_layout
from trimaint import store
from trimaint.store import CostMeter, MissingIndex, RejectedDelete, Relation


def make_rel():
    return Relation("R", 2, ((0,), (1,)), CostMeter())


@pytest.mark.parametrize("cols,linked,why", [
    (((0,), (2,)), (), "outside arity"),
    (((0,),), ((1,),), "not declared"),
])
def test_relation_refuses_a_bad_index(cols, linked, why):
    with pytest.raises(ValueError, match=why):
        Relation("R", 2, cols, CostMeter(), linked)


def test_insert_into_empty():
    r = make_rel()
    assert r.apply_delta((1, 2), 1) == 1
    assert r.lookup((1, 2)) == 1
    assert len(r) == 1


def test_exact_cancellation_removes_entry():
    r = make_rel()
    r.apply_delta((1, 2), 2)
    assert r.apply_delta((1, 2), -2) == 0
    assert r.lookup((1, 2)) == 0
    assert len(r) == 0
    assert r.slice_count((0,), 1) == 0


def test_overdelete_rejected_without_mutation():
    r = make_rel()
    r.apply_delta((1, 2), 1)
    with pytest.raises(RejectedDelete):
        r.apply_delta((1, 2), -2)
    assert r.lookup((1, 2)) == 1
    assert len(r) == 1
    r.check_consistency()


def test_delete_of_absent_tuple_rejected():
    r = make_rel()
    with pytest.raises(RejectedDelete):
        r.apply_delta((3, 4), -1)
    assert len(r) == 0


def test_lookup_cases():
    r = make_rel()
    r.apply_delta((1, 2), 3)
    assert r.lookup((1, 2)) == 3
    assert r.lookup((2, 2)) == 0
    assert make_rel().lookup((1, 2)) == 0


def test_slice_contents():
    r = make_rel()
    for t in [(1, 1), (1, 2), (2, 1)]:
        r.apply_delta(t, 1)
    assert {t for t, _ in r.slice_items((0,), 1)} == {(1, 1), (1, 2)}
    assert {t for t, _ in r.slice_items((1,), 1)} == {(1, 1), (2, 1)}
    assert list(r.slice_items((0,), 9)) == []


def test_slice_preserves_insertion_order():
    r = make_rel()
    r.apply_delta((1, 5), 1)
    r.apply_delta((1, 3), 1)
    r.apply_delta((1, 4), 1)
    assert [t for t, _ in r.slice_items((0,), 1)] == [(1, 5), (1, 3), (1, 4)]


def test_slice_count_counts_tuples_not_multiplicities():
    r = make_rel()
    r.apply_delta((1, 1), 1)
    r.apply_delta((1, 2), 5)
    assert r.slice_count((0,), 1) == 2
    assert make_rel().slice_count((0,), 1) == 0
    r.apply_delta((1, 2), -5)
    assert r.slice_count((0,), 1) == 1


def test_membership_is_a_positive_slice_count():
    # a projection key is present exactly when its slice count is
    # positive, at one tick whether it is or not
    r = make_rel()
    r.apply_delta((1, 1), 1)
    before = r.meter.total
    assert r.slice_count((0,), 1) > 0
    assert not r.slice_count((0,), 2) > 0
    assert r.meter.total - before == 2
    assert not make_rel().slice_count((1,), 1) > 0


def test_missing_index_raises():
    r = Relation("V", 2, ((0,),), CostMeter())
    r.apply_delta((1, 2), 1)
    with pytest.raises(MissingIndex):
        r.slice_count((1,), 2)
    with pytest.raises(MissingIndex):
        list(r.slice_items((0, 1), (1, 2)))


def test_slice_head_and_next_walk_the_list():
    r = Relation("R", 2, ((0,), (1,)), CostMeter(), linked=((0,),))
    r.apply_delta((1, 5), 1)
    r.apply_delta((1, 3), 1)
    r.apply_delta((2, 9), 1)
    assert r.slice_head((0,), 1) == (1, 5)
    assert r.slice_next((0,), (1, 5)) == (1, 3)
    assert r.slice_next((0,), (1, 3)) is None
    assert r.slice_head((0,), 7) is None
    r.apply_delta((1, 5), -1)
    assert r.slice_head((0,), 1) == (1, 3)


def test_index_keys():
    r = make_rel()
    for t in [(1, 1), (1, 2), (3, 1)]:
        r.apply_delta(t, 1)
    # a value is a key of an index's slices map exactly while it is stored
    assert set(r.hash_slices((0,))) == {1, 3}
    assert set(r.hash_slices((1,))) == {1, 2}
    r.apply_delta((3, 1), -1)
    assert set(r.hash_slices((0,))) == {1}


def test_multi_column_index_uses_tuple_keys():
    v = Relation("V", 3, ((0, 2), (1,)), CostMeter())
    v.apply_delta((1, 2, 3), 1)
    v.apply_delta((1, 5, 3), 2)
    assert v.slice_count((0, 2), (1, 3)) == 2
    assert {t for t, _ in v.slice_items((0, 2), (1, 3))} == {(1, 2, 3), (1, 5, 3)}
    assert v.slice_count((1,), 5) == 1


deltas = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([1, 1, 2, -1, -2])),
    max_size=60,
)


@settings(max_examples=200)
@given(deltas)
def test_index_consistency_under_random_deltas(ops):
    r = make_rel()
    shadow = {}
    for a, b, m in ops:
        t = (a, b)
        if shadow.get(t, 0) + m < 0:
            with pytest.raises(RejectedDelete):
                r.apply_delta(t, m)
        else:
            r.apply_delta(t, m)
            shadow[t] = shadow.get(t, 0) + m
            if shadow[t] == 0:
                del shadow[t]
    assert {t: m for t, m in r.items()} == shadow
    assert len(r) == len(shadow)
    for a in range(6):
        assert r.slice_count((0,), a) == sum(1 for t in shadow if t[0] == a)
        got = {t: m for t, m in r.slice_items((0,), a)}
        assert got == {t: m for t, m in shadow.items() if t[0] == a}
    r.check_consistency()


def test_slice_head_on_hash_index_raises():
    r = make_rel()
    r.apply_delta((1, 2), 1)
    with pytest.raises(MissingIndex):
        r.slice_head((0,), 1)
    with pytest.raises(MissingIndex):
        r.slice_next((0,), (1, 2))


def test_shrunk_slice_is_rebuilt_with_metered_ticks():
    m = CostMeter()
    r = Relation("R", 2, index_cols=((0,),), meter=m)
    for a in (0, 1):
        for b in range(64):
            r.apply_delta((a, b), 1)
    extra = {}
    for b in range(63):
        before = m.total
        r.apply_delta((0, b), -1)
        # one tick for the entry and one for the index, plus one per
        # tuple moved when the slice drops below a quarter of its mark
        extra[63 - b] = m.total - before - 2
    assert {left: t for left, t in extra.items() if t} == {15: 15, 3: 3}
    assert [k for k, _ in r.slice_items((0,), 0)] == [(0, 63)]
    assert len(r) == 65  # the entries never fell below a quarter of 128
    r.check_consistency()


def test_slice_is_a_list_up_to_the_floor_and_a_marked_dict_above():
    # one hash slice through its life, checked after every write against
    # a list model and against the ticks the dict-only store charged (two
    # per write, plus one per tuple moved when compaction fires): a list
    # while it grows to the floor, a dict with a mark from floor + 1, a
    # dict rebuilt by compaction while that leaves it above the floor, a
    # list again once compaction leaves it at or below, gone when empty
    floor = store.COMPACT_FLOOR
    assert floor == 8  # the compaction sizes below follow from it
    m = CostMeter()
    r = Relation("R", 2, index_cols=((0,),), meter=m)
    # a second slice keeps the entries dict from being compacted
    for b in range(48):
        r.apply_delta((0, b), 1)
    slices, marks = r._by_cols[(0,)][1:3]
    model, log = [], []

    def write(key, mult):
        before = m.total
        r.apply_delta(key, mult)
        if mult > 0:
            model.append(key)
        else:
            model.remove(key)
        s = slices.get(1)
        kind = None if s is None else type(s)
        log.append((len(model), kind, marks.get(1), m.total - before - 2))
        assert [k for k, _ in r.slice_items((0,), 1)] == model
        r.check_consistency()

    for b in range(48):
        write((1, b), 1)
    assert log == [(n, list, None, 0) for n in range(1, floor + 1)] + [
        (n, dict, n, 0) for n in range(floor + 1, 49)]
    log.clear()
    # drain from the middle: compaction at 11 (44 < 48) keeps a dict,
    # at 2 (8 < 11) makes a list
    while len(model) > 1:
        write(model[len(model) // 2], -1)
    assert log == [(n, dict, 48, 0) for n in range(47, 11, -1)] + [
        (11, dict, 11, 11)] + [(n, dict, 11, 0) for n in range(10, 2, -1)] + [
        (2, list, None, 2), (1, list, None, 0)]
    log.clear()
    for b in range(100, 100 + floor - 1):
        write((1, b), 1)
    write(model[0], -1)
    write((1, 200), 1)
    write((1, 201), 1)
    assert log == [(n, list, None, 0) for n in range(2, floor + 1)] + [
        (floor - 1, list, None, 0), (floor, list, None, 0), (floor + 1, dict, floor + 1, 0)]
    log.clear()
    while model:
        write(model[-1], -1)
    assert log == [(n, dict, floor + 1, 0) for n in range(floor, 2, -1)] + [
        (2, list, None, 2), (1, list, None, 0), (0, None, None, 0)]
    assert 1 not in slices and 1 not in marks


def test_shrunk_entries_are_rebuilt_with_metered_ticks():
    m = CostMeter()
    r = Relation("V", 1, (), m)
    for a in range(4096):
        r.apply_delta((a,), 1)
    extra, rebuilt = {}, []
    for a in range(4095):
        before, mark = m.total, r._hwm
        r.apply_delta((a,), -1)
        extra[4095 - a] = m.total - before - 1
        # a rebuild keeps the dict object and lowers its mark to its length
        if r._hwm < mark:
            rebuilt.append(len(r))
    # marks 4096, 1023, 255, 63, 15; a mark of 3 is at the floor
    assert {left: t for left, t in extra.items() if t} == {
        1023: 1023, 255: 255, 63: 63, 15: 15, 3: 3}
    assert rebuilt == [1023, 255, 63, 15, 3]
    assert list(r.items()) == [((4095,), 1)]
    r.check_consistency()


# (a, b, m) deltas over a hash index on a and a linked index on b, then
# picks of stored tuples to delete whole (every third pick overdeletes):
# slices on a grow past the compaction floor and the drain shrinks them
# below a quarter of their mark
store_ops = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 24), st.sampled_from([1, 1, 1, 2, -1, -1, -3])),
    min_size=30, max_size=150,
)


@settings(max_examples=100)
@given(store_ops, st.lists(st.integers(0, 999), min_size=20, max_size=80))
def test_hash_and_linked_indexes_agree_with_list_model(ops, picks):
    r = Relation("R", 2, ((0,), (1,)), CostMeter(), linked=((1,),))
    model = []  # [key, mult] in insertion order

    def step(key, m):
        pos = next((i for i, (k, _) in enumerate(model) if k == key), None)
        old = model[pos][1] if pos is not None else 0
        if old + m < 0:
            with pytest.raises(RejectedDelete):
                r.apply_delta(key, m)
        else:
            assert r.apply_delta(key, m) == old + m
            if pos is None:
                model.append([key, m])
            elif old + m == 0:
                del model[pos]
            else:
                model[pos][1] = old + m
        a, b = key
        for col, v in ((0, a), (1, b)):
            want = [(k, mult) for k, mult in model if k[col] == v]
            assert r.slice_count((col,), v) == len(want)
        assert list(r.slice_items((0,), a)) == [(k, mult) for k, mult in model if k[0] == a]
        walk, k = [], r.slice_head((1,), b)
        while k is not None:
            walk.append(k)
            k = r.slice_next((1,), k)
        assert walk == [k for k, _ in model if k[1] == b]
        r.check_consistency()

    for a, b, m in ops:
        step((a, b), m)
    for p in picks:
        if not model:
            break
        key, mult = model[p % len(model)]
        step(key, -mult - (p % 3 == 0))
    assert list(r.items()) == [tuple(e) for e in model]


# (key, m) pairs with repeated keys; a few values on column 0 gather more
# tuples than the compaction floor
load_items = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 40)), st.integers(1, 3)),
    max_size=120,
)


@pytest.mark.parametrize("floor", [store.COMPACT_FLOOR, float("inf")])
@pytest.mark.parametrize("linked", [(), ((1,),), ((0,), (1,))])
@settings(max_examples=60)
@given(items=load_items)
def test_load_matches_per_item_apply_delta(floor, linked, items):
    saved = store.COMPACT_FLOOR
    store.COMPACT_FLOOR = floor
    try:
        loaded = Relation("R", 2, ((0,), (1,)), CostMeter(), linked)
        loaded.load(items)
        applied = Relation("R", 2, ((0,), (1,)), CostMeter(), linked)
        for key, m in items:
            applied.apply_delta(key, m)
        assert relation_layout(loaded) == relation_layout(applied)
        assert loaded.meter.total == applied.meter.total
        loaded.check_consistency()
    finally:
        store.COMPACT_FLOOR = saved


def test_load_into_a_drained_relation_keeps_its_mark():
    r = make_rel()
    for b in range(5):
        r.apply_delta((1, b), 1)
    for b in range(5):
        r.apply_delta((1, b), -1)
    r.load([((2, 3), 1)])
    assert r._hwm == 5
    r.check_consistency()


@pytest.mark.parametrize("items", [
    [((1, 2), 1), ((1, 3), 0)],
    [((1, 2), 2), ((1, 2), -1)],
    [((1, 2), -1)],
])
def test_load_refuses_a_nonpositive_multiplicity_untouched(items):
    def fresh():
        return Relation("R", 2, ((0,), (1,)), CostMeter(), linked=((1,),))

    r = fresh()
    with pytest.raises(ValueError):
        r.load(items)
    assert r.meter.total == 0
    assert relation_layout(r) == relation_layout(fresh())


def test_load_refuses_a_nonempty_relation_untouched():
    r = make_rel()
    r.apply_delta((1, 2), 1)
    before, ops = relation_layout(r), r.meter.total
    with pytest.raises(ValueError):
        r.load([((3, 4), 1)])
    assert relation_layout(r) == before
    assert r.meter.total == ops
