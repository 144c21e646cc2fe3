import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from trimaint.partition import (
    BASE_IDX,
    DoublePartition,
    SinglePartition,
    Threshold,
    strict_double,
    strict_single,
)
from trimaint.store import CostMeter, Relation, entry_list


def build_single(tuples, theta, mults=None):
    items = [(t, (mults or {}).get(t, 1)) for t in tuples]
    return strict_single(items, "K", CostMeter(), theta)


def build_double(tuples, theta):
    return strict_double([(t, 1) for t in tuples], "K", CostMeter(), theta)


def test_threshold_values():
    assert Threshold(16, 0.5).theta == 4.0
    assert Threshold(7, 0.0).theta == 1.0
    assert Threshold(7, 1.0).theta == 7.0
    t = Threshold(16, 0.5)
    t.rebase(64)
    assert t.theta == 8.0


def test_strict_single_splits_by_degree():
    p = build_single([(1, 1), (1, 2), (1, 3), (2, 1)], theta=2)
    assert {t for t, _ in p.parts["H"].items()} == {(1, 1), (1, 2), (1, 3)}
    assert {t for t, _ in p.parts["L"].items()} == {(2, 1)}


def test_strict_single_theta_one_all_heavy():
    p = build_single([(1, 1), (2, 1)], theta=1)
    assert len(p.parts["H"]) == 2
    assert len(p.parts["L"]) == 0


def test_strict_single_large_theta_all_light():
    p = build_single([(1, 1), (1, 2), (1, 3), (2, 1)], theta=5)
    assert len(p.parts["H"]) == 0
    assert len(p.parts["L"]) == 4


def test_strict_double_examples():
    p = build_double([(1, 1), (1, 2)], theta=2)
    assert {t for t, _ in p.parts["HL"].items()} == {(1, 1), (1, 2)}
    assert sum(len(p.parts[lab]) for lab in ("HH", "LH", "LL")) == 0

    p = build_double([(1, 1)], theta=1)
    assert {t for t, _ in p.parts["HH"].items()} == {(1, 1)}

    p = build_double([(1, 1), (2, 1)], theta=2)
    assert {t for t, _ in p.parts["LH"].items()} == {(1, 1), (2, 1)}


def test_light_value_over_threshold_reported():
    p = SinglePartition("K", CostMeter())
    for b in range(6):
        p.parts["L"].apply_delta((7, b), 1)
    assert p.violations(theta=4.0) == [("X", 7, "to_heavy")]
    assert p.violation("X", 7, 4.0) == "to_heavy"


def test_heavy_value_degree_boundary():
    p = SinglePartition("K", CostMeter())
    p.parts["H"].apply_delta((7, 0), 1)
    p.parts["H"].apply_delta((7, 1), 1)
    # degree 2 at theta=4 sits exactly on the loose bound: no violation
    assert p.violations(theta=4.0) == []
    p.parts["H"].apply_delta((7, 1), -1)
    assert p.violations(theta=4.0) == [("X", 7, "to_light")]


def test_fresh_strict_partition_has_no_violations():
    p = build_single([(1, 1), (1, 2), (1, 3), (2, 1)], theta=2)
    assert p.violations(theta=2.0) == []
    d = build_double([(1, 1), (1, 2), (2, 1), (3, 3)], theta=2)
    assert d.violations(theta=2.0) == []


def test_double_violations_use_total_degree():
    p = DoublePartition("K", CostMeter())
    # X-value 5 split across HH and HL: total degree 6 is fine at theta=4,
    # and neither part alone dips it under theta/2.
    for b, lab in [(1, "HH"), (2, "HH"), (3, "HH"), (4, "HL"), (5, "HL"), (6, "HL")]:
        p.parts[lab].apply_delta((5, b), 1)
    assert all(v[1] != 5 or v[0] != "X" for v in p.violations(4.0))
    # Y-value 9 light with total degree 6 across HL and LL must promote.
    q = DoublePartition("K", CostMeter())
    for a in range(6):
        q.parts["LL" if a % 2 else "HL"].apply_delta((a, 9), 1)
    assert ("Y", 9, "to_heavy") not in q.violations(5.0)
    assert ("Y", 9, "to_heavy") in q.violations(3.0)


def test_affected_label_single():
    p = build_single([(1, 1), (1, 2)], theta=2)
    assert p.affected_label((1, 9), 0.5) == "H"
    assert p.affected_label((8, 9), 0.5) == "L"
    assert p.affected_label((8, 9), 0.0) == "H"


def test_affected_label_double():
    p = build_double([(1, 1), (2, 1)], theta=2)  # both in LH
    assert p.affected_label((1, 1), 0.5) == "LH"
    assert p.affected_label((1, 7), 0.5) == "LL"
    assert p.affected_label((9, 1), 0.5) == "LH"
    assert p.affected_label((9, 7), 0.5) == "LL"
    assert p.affected_label((9, 7), 0.0) == "HH"


def test_moves():
    p = SinglePartition("K", CostMeter())
    assert p.moves("X", "to_light") == (("H", "L"),)
    assert p.moves("X", "to_heavy") == (("L", "H"),)
    assert p.column("X") == 0
    q = DoublePartition("K", CostMeter())
    # a side's parts, heavy ones first, each to the part that differs
    # from it only in that side's letter
    assert q.moves("X", "to_light") == (("HH", "LH"), ("HL", "LL"))
    assert q.moves("X", "to_heavy") == (("LH", "HH"), ("LL", "HL"))
    assert q.moves("Y", "to_light") == (("HH", "HL"), ("LH", "LL"))
    assert q.moves("Y", "to_heavy") == (("HL", "HH"), ("LL", "LH"))
    assert (q.column("X"), q.column("Y")) == (0, 1)


rel_items = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.integers(1, 3),
    max_size=40,
)


@settings(max_examples=120)
@given(rel_items, st.floats(1.0, 6.0))
def test_strict_single_reconstructs_and_is_loose(items, theta):
    p = strict_single(items.items(), "K", CostMeter(), theta)
    merged = Counter()
    for t, m in entry_list(p.parts.values(), p.meter):
        merged[t] += m
    assert dict(merged) == items
    assert p.violations(theta) == []
    p.check_disjoint()


@settings(max_examples=120)
@given(rel_items, st.floats(1.0, 6.0))
def test_strict_double_reconstructs_and_is_loose(items, theta):
    p = strict_double(items.items(), "K", CostMeter(), theta)
    merged = Counter()
    for t, m in entry_list(p.parts.values(), p.meter):
        merged[t] += m
    assert dict(merged) == items
    assert p.violations(theta) == []
    p.check_disjoint()
    # Part-function property: no X-value in both class groups.
    hx = set(p.parts["HH"].hash_slices((0,))) | set(p.parts["HL"].hash_slices((0,)))
    lx = set(p.parts["LH"].hash_slices((0,))) | set(p.parts["LL"].hash_slices((0,)))
    assert not (hx & lx)


def test_a_shrunk_column_map_is_rebuilt_and_scans_only_live_values():
    # 4096 values on column 0 drain to one: the column's slices map, like
    # the entries, is rebuilt in place at each quarter of its mark, so it
    # ends the size of a fresh one-value map and a major's scan of it
    # walks one slot, charged one tick
    meter = CostMeter()
    p = SinglePartition("K", meter)
    light = p.parts["L"]
    slices = light.hash_slices((0,))
    for v in range(4096):
        light.apply_delta((v, 0), 1)
    extra = {}
    for v in range(4095):
        before = meter.total
        light.apply_delta((v, 0), -1)
        extra[4095 - v] = meter.total - before - 3
    # marks 4096, 1023, 255, 63, 15: at each, the entries, the column 0
    # map and column 1's one slice each move every live key or tuple
    assert {left: t for left, t in extra.items() if t} == {
        n: 3 * n for n in (1023, 255, 63, 15, 3)}
    assert light.hash_slices((0,)) is slices and list(slices) == [4095]
    fresh = Relation("F", 2, BASE_IDX, CostMeter())
    fresh.apply_delta((4095, 0), 1)
    assert sys.getsizeof(slices) <= sys.getsizeof(fresh.hash_slices((0,)))
    before = meter.total
    assert p.strict_flips(2.0) == ([], 0)
    assert meter.total - before == 1
    light.check_consistency()
