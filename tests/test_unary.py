import random

import pytest
from conftest import TRIANGLE, bound_rule, part_labels
from hypothesis import given, settings, strategies as st

from trimaint.iterators import StaleIterator
from trimaint.oracle import oracle_triangle
from trimaint.store import RejectedDelete
from trimaint.driver import Driver
from trimaint.oracle import RefMaintainer
from trimaint.unary import UnaryEngine
from trimaint.workload import WorkloadSpec, stream

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
    # six light A-values sharing one heavy B in R and one heavy C in T,
    # so the whole result lives in the hop-union fragment
    rd = {(a, 7): 1 for a in range(1, 7)}
    sd = {(7, 9): 1}
    td = {(9, a): 1 for a in range(1, 7)}
    return UnaryEngine.from_database(rd, sd, td, eps), rd, sd, td


def test_values_past_32_bits_match_reference():
    # (b, c) bucket keys once packed both values into one 64-bit integer
    # and failed on values of 2**32 and above
    shift = 1 << 32
    drv = Driver(UnaryEngine.from_database({}, {}, {}, 0.25))
    ref = RefMaintainer(1)
    spec = WorkloadSpec(seed=3, domain=8, updates=300, delete_frac=0.3)
    for rel, (a, b), m in stream(spec):
        key = (a + shift, b + shift)
        drv.on_update(rel, key, m)
        ref.apply(rel, key, m)
        assert drv.engine.query_result() == ref.result()
    assert drv.minors > 0


def test_empty_init():
    eng = UnaryEngine.from_database({}, {}, {}, 0.5)
    assert collect(eng) == {}
    eng.verify_views()


def test_fresh_triangle_all_light():
    eng = UnaryEngine.from_database({}, {}, {}, 1.0)
    for rel, key in TRIANGLE:
        apply(eng, rel, key, 1)
    # the all-light fragment: every tuple in an L part, the value in res
    assert part_labels(eng) == {"R": ["LL"], "S": ["L"], "T": ["LL"]}
    assert dict(eng.res.items()) == {(1,): 1}
    assert collect(eng) == {(1,): 1}
    eng.verify_views()


def test_build_up_and_delete():
    eng = UnaryEngine.from_database({}, {}, {}, 0.5)
    apply(eng, "R", (1, 2), 1)
    apply(eng, "S", (2, 3), 1)
    assert collect(eng) == {}
    apply(eng, "T", (3, 1), 1)
    assert collect(eng) == {(1,): 1}
    apply(eng, "S", (2, 3), -1)
    assert collect(eng) == {}
    eng.verify_views()


def test_multiplicity_product():
    eng = UnaryEngine.from_database({(1, 2): 2}, {(2, 3): 3}, {(3, 1): 1}, 0.5)
    assert collect(eng) == {(1,): 6}


def test_overdelete_rejected():
    eng = UnaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    with pytest.raises(RejectedDelete):
        apply(eng, "T", (3, 1), -4)
    assert collect(eng) == {(1,): 1}
    eng.verify_views()


def test_update_invalidates_open_enumeration():
    eng = UnaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    it = eng.enumerate_result()
    apply(eng, "S", (5, 5), 1)
    with pytest.raises(StaleIterator):
        next(it)
    # after the first emitted tuple, by an update that closes a new
    # triangle: the emission must not resume its walks
    eng = UnaryEngine.from_database({(1, 2): 1}, {(2, 3): 1, (5, 6): 1},
                              {(3, 1): 1, (6, 4): 1}, 0.5)
    it = eng.enumerate_result()
    next(it)
    apply(eng, "R", (4, 5), 1)
    with pytest.raises(StaleIterator):
        next(it)


def test_hub_state_lives_in_hop_fragment():
    eng, rd, sd, td = hub_state()
    # no direct fragment and no pair-less top holds a value
    assert len(eng.res) == 0
    assert dict(eng.root_tr.items()) == {(7, 9): 6}
    assert collect(eng) == oracle_triangle(rd, sd, td, 1)
    eng.verify_views()


def test_candidate_buckets():
    eng, _, _, _ = hub_state()
    rule = bound_rule(eng, eng.trees[2])
    assert rule((1,)) == [(7, 9)]
    assert rule((42,)) == []


def skewed_db(rng, n):
    def value():
        return 1 if rng.random() < 0.4 else rng.randint(2, 6)

    out = {}
    while len(out) < n:
        out[(value(), value())] = rng.randint(1, 2)
    return out


@pytest.mark.parametrize("eps", EPS_GRID)
def test_mixed_stream_matches_oracle(eps):
    rng = random.Random(23)
    rd, sd, td = (skewed_db(rng, 30) for _ in range(3))
    eng = UnaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 1)
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
        assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 1)
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
    eng = UnaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 1)
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
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 1)
    eng.verify_views()
