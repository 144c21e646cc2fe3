import random

import pytest
from conftest import TRIANGLE, bound_rule, part_labels
from hypothesis import given, settings, strategies as st

from trimaint.binary import BinaryEngine
from trimaint.iterators import StaleIterator
from trimaint.oracle import oracle_triangle
from trimaint.store import RejectedDelete

EPS_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def apply(eng, rel, key, m):
    lab = eng.parts[rel].affected_label(key, eng.epsilon)
    eng.apply_update(rel, lab, key, m)


def collect(eng):
    out = {}
    for key, mult in eng.enumerate_result():
        assert key not in out, f"duplicate emission {key}"
        out[key] = mult
    return out


def hub_state(eps=0.5):
    # one heavy A-value fanning out to light B-values that all share one
    # C-value, so the rs view tree is the only populated fragment
    rd = {(1, b): 1 for b in range(2, 8)}
    sd = {(b, 9): 1 for b in range(2, 8)}
    td = {(9, 1): 1}
    return BinaryEngine.from_database(rd, sd, td, eps), rd, sd, td


def test_empty_init():
    eng = BinaryEngine.from_database({}, {}, {}, 0.5)
    assert collect(eng) == {}
    eng.verify_views()


def test_fresh_triangle_all_light():
    eng = BinaryEngine.from_database({}, {}, {}, 1.0)
    for rel, key in TRIANGLE:
        apply(eng, rel, key, 1)
    # the all-light fragment: every tuple in an L part, the pair in res
    assert part_labels(eng) == {"R": ["L"], "S": ["LL"], "T": ["LL"]}
    assert dict(eng.res.items()) == {(1, 2): 1}
    assert collect(eng) == {(1, 2): 1}
    eng.verify_views()


def test_build_up_and_delete():
    eng = BinaryEngine.from_database({}, {}, {}, 0.5)
    apply(eng, "R", (1, 2), 1)
    assert collect(eng) == {}
    apply(eng, "S", (2, 3), 1)
    assert collect(eng) == {}
    apply(eng, "T", (3, 1), 1)
    assert collect(eng) == {(1, 2): 1}
    apply(eng, "T", (3, 1), -1)
    assert collect(eng) == {}
    eng.verify_views()


def test_multiplicity_two_on_s():
    eng = BinaryEngine.from_database({(1, 2): 1}, {(2, 3): 2}, {(3, 1): 1}, 0.5)
    assert collect(eng) == {(1, 2): 2}


def test_overdelete_rejected():
    eng = BinaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    with pytest.raises(RejectedDelete):
        apply(eng, "R", (1, 2), -2)
    assert collect(eng) == {(1, 2): 1}
    eng.verify_views()


def test_update_invalidates_open_enumeration():
    eng = BinaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    it = eng.enumerate_result()
    apply(eng, "R", (5, 5), 1)
    with pytest.raises(StaleIterator):
        next(it)
    # after the first emitted tuple, by an update that closes a new
    # triangle: the emission must not resume its walks
    eng = BinaryEngine.from_database({(1, 2): 1}, {(2, 3): 1, (5, 6): 1},
                              {(3, 1): 1, (6, 4): 1}, 0.5)
    it = eng.enumerate_result()
    next(it)
    apply(eng, "R", (4, 5), 1)
    with pytest.raises(StaleIterator):
        next(it)


def test_hub_state_lives_in_rs_tree():
    eng, rd, sd, td = hub_state()
    # no direct fragment and no pair-less top holds a pair
    assert len(eng.res) == 0
    # one bucket, root 9, whose top slice holds the pair (1, 9) at 6
    assert list(eng.closed_rs.linked_slices((1,))) == [9]
    assert dict(eng.closed_rs.items()) == {(1, 9): 6}
    # root 9's bucket holds the six pairs (1, b)
    rs = eng.trees[1]
    first, successor = eng._bind_enumeration()[0][rs][2]
    walked, x = [], first((9,))
    while x is not None:
        walked.append(x)
        x = successor((9,), x)
    assert len(walked) == 6
    assert collect(eng) == oracle_triangle(rd, sd, td, 2)
    eng.verify_views()


def test_shrunk_roots_open_a_hop_union_over_the_live_buckets():
    # 40 heavy C-values, each closing triangles through heavy A-value 1,
    # make 40 buckets of the rs tree; deleting T's closing tuple of all but
    # the last empties 39 of them, and the top's root map is rebuilt
    roots = range(100, 140)
    rd = {(1, 10 * c + i): 1 for c in roots for i in range(8)}
    sd = {(10 * c + i, c): 1 for c in roots for i in range(8)}
    td = {(c, 1): 1 for c in roots}
    eng = BinaryEngine.from_database(rd, sd, td, 0.25)
    rs = eng.trees[1]
    root_map = eng.closed_rs.linked_slices(rs.root_idx)
    assert list(root_map) == list(roots)
    for c in roots[:-1]:
        apply(eng, "T", (c, 1), -1)
        del td[c, 1]
    # rebuilt at 9 live roots, then at 2
    closed = eng.closed_rs
    assert list(root_map) == [139] and closed._map_hwm[closed._by_cols[rs.root_idx][4]] == 2

    def live_buckets():
        hop = eng.open_union()[0]
        out, k = [], hop.buckets.first()
        while k is not None:
            out.append(k)
            k = hop.buckets.successor(k)
        return out

    assert live_buckets() == [(139,)]
    assert collect(eng) == oracle_triangle(rd, sd, td, 2)
    eng.closed_rs.check_consistency()
    eng.verify_views()


def test_candidate_buckets():
    eng, _, _, _ = hub_state()
    rs, tr = bound_rule(eng, eng.trees[1]), bound_rule(eng, eng.trees[2])
    assert rs((1, 2)) == [(9,)]
    assert rs((5, 5)) == []
    assert tr((1, 2)) == []


def skewed_db(rng, n):
    def value():
        return 1 if rng.random() < 0.4 else rng.randint(2, 6)

    out = {}
    while len(out) < n:
        out[(value(), value())] = rng.randint(1, 2)
    return out


@pytest.mark.parametrize("eps", EPS_GRID)
def test_mixed_stream_matches_oracle(eps):
    rng = random.Random(19)
    rd, sd, td = (skewed_db(rng, 30) for _ in range(3))
    eng = BinaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 2)
    for _ in range(120):
        rel = rng.choice("RST")
        key = (rng.randint(1, 6), rng.randint(1, 6))
        cur = db[rel].get(key, 0)
        if cur > 0 and rng.random() < 0.35:
            m = -rng.randint(1, cur)
        else:
            m = rng.randint(1, 2)
        apply(eng, rel, key, m)
        if cur + m == 0:
            del db[rel][key]
        else:
            db[rel][key] = cur + m
        assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 2)
    eng.verify_views()


rel_dict = st.dictionaries(
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.integers(1, 3),
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(
    rd=rel_dict,
    sd=rel_dict,
    td=rel_dict,
    eps=st.sampled_from(EPS_GRID),
    rel=st.sampled_from(["R", "S", "T"]),
    key=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    m=st.integers(-2, 2).filter(lambda x: x != 0),
)
def test_single_update_matches_oracle(rd, sd, td, eps, rel, key, m):
    eng = BinaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 2)
    cur = db[rel].get(key, 0)
    if cur + m < 0:
        with pytest.raises(RejectedDelete):
            apply(eng, rel, key, m)
    else:
        apply(eng, rel, key, m)
        if cur + m == 0:
            db[rel].pop(key, None)
        else:
            db[rel][key] = cur + m
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 2)
    eng.verify_views()
