import random

import pytest
from conftest import TRIANGLE, part_labels
from hypothesis import given, settings, strategies as st

from trimaint.driver import Driver, make_engine
from trimaint.fragments import KeyedEngine
from trimaint.iterators import StaleIterator
from trimaint.oracle import RefMaintainer, oracle_triangle
from trimaint.store import RejectedDelete
from trimaint.ternary import TernaryEngine
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


def test_empty_init():
    eng = TernaryEngine.from_database({}, {}, {}, 0.5)
    assert len(eng.res) == 0
    assert all(len(getattr(eng, t.pair)) == 0 for t in eng.trees)
    assert all(len(getattr(eng, t.top)) == 0 for t in eng.trees)
    assert collect(eng) == {}


def test_one_light_triangle_lands_in_lll():
    eng = TernaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    # the all-light fragment: every tuple in an L part, the triple in res
    assert part_labels(eng) == {"R": ["L"], "S": ["L"], "T": ["L"]}
    assert dict(eng.res.items()) == {(1, 2, 3): 1}
    assert all(len(getattr(eng, t.top)) == 0 for t in eng.trees)
    assert collect(eng) == {(1, 2, 3): 1}


def test_multiplicity_product_enumerated():
    eng = TernaryEngine.from_database({(1, 2): 2}, {(2, 3): 3}, {(3, 1): 1}, 0.5)
    assert collect(eng) == {(1, 2, 3): 6}


def test_fresh_triangle_fragment_by_epsilon():
    # a direct fragment either way: all light or all heavy, and no tree top
    light = TernaryEngine.from_database({}, {}, {}, 1.0)
    for rel, key in TRIANGLE:
        apply(light, rel, key, 1)
    assert part_labels(light) == {"R": ["L"], "S": ["L"], "T": ["L"]}
    assert dict(light.res.items()) == {(1, 2, 3): 1}
    assert all(len(getattr(light, t.top)) == 0 for t in light.trees)

    heavy = TernaryEngine.from_database({}, {}, {}, 0.0)
    for rel, key in TRIANGLE:
        apply(heavy, rel, key, 1)
    assert part_labels(heavy) == {"R": ["H"], "S": ["H"], "T": ["H"]}
    assert dict(heavy.res.items()) == {(1, 2, 3): 1}
    assert all(len(getattr(heavy, t.top)) == 0 for t in heavy.trees)


def test_overdelete_rejected_before_mutation():
    eng = TernaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    with pytest.raises(RejectedDelete):
        apply(eng, "S", (2, 3), -2)
    assert collect(eng) == {(1, 2, 3): 1}
    eng.verify_views()


def test_update_invalidates_open_enumeration():
    eng = TernaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    it = eng.enumerate_result()
    apply(eng, "R", (4, 4), 1)
    with pytest.raises(StaleIterator):
        next(it)
    # after the first emitted tuple, by an update that closes a new
    # triangle: the emission must not resume its walks
    eng = TernaryEngine.from_database({(1, 2): 1}, {(2, 3): 1, (5, 6): 1},
                              {(3, 1): 1, (6, 4): 1}, 0.5)
    it = eng.enumerate_result()
    next(it)
    apply(eng, "R", (4, 5), 1)
    with pytest.raises(StaleIterator):
        next(it)


def test_union_and_multiplicity_are_refused():
    # neither would see the view-tree fragments, which d3 enumerates
    # itself, so d3 has no hop-union read path at all
    eng = TernaryEngine.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.0)
    assert not isinstance(eng, KeyedEngine)
    assert not hasattr(eng, "open_union")
    assert not hasattr(eng, "multiplicity")


def reference_pass(eng):
    """The enumeration loop the bound one replaced, through
    `Relation.items`, `Partition.total` and `Relation.slice_items`: the
    bound loop must emit what it does and charge what it charges between
    any two tuples."""
    meter = eng.meter
    yield from eng.res.items()
    for t in eng.trees:
        third, pair = eng.parts[t.third], getattr(eng, t.pair)
        for rk, _ in getattr(eng, t.top).items():
            x, z = t.hat_of(rk)
            tm = third.total((z, x))
            for pk, pv in pair.slice_items((0, 2), (x, z)):
                meter.total += 1
                yield t.abc_of(pk), pv * tm


def gaps(meter, items):
    """Each item with the ops charged since the one before it, and the ops
    charged after the last."""
    out, before = [], meter.total
    for item in items:
        out.append((item, meter.total - before))
        before = meter.total
    return out, meter.total - before


def test_tree_half_matches_the_reference_loop():
    # the hubs of a zipf stream at eps 0.25 fill all three view trees,
    # which no benchmark workload does
    drv, ref = Driver(make_engine("d3", 0.25)), RefMaintainer(3)
    spec = WorkloadSpec(seed=3, domain=200, updates=1500, delete_frac=0.2, skew="zipf:1.2")
    for upd in stream(spec):
        drv.on_update(*upd)
        ref.apply(*upd)
    eng = drv.engine
    assert all(len(getattr(eng, t.top)) for t in eng.trees)

    emitted, tail = gaps(eng.meter, eng.enumerate_result())
    assert dict(item for item, _ in emitted) == ref.result()
    assert len(emitted) == len(ref.result())
    assert (emitted, tail) == gaps(eng.meter, reference_pass(eng))
    # the bound loop is d3's own: it has no union and no multiplicity
    assert not hasattr(eng, "open_union") and not hasattr(eng, "multiplicity")

    # the first tree tuple comes from the R tree's top; deleting its T
    # tuple removes that top entry from the dict being walked
    it = eng.enumerate_result()
    for _ in range(len(eng.res)):
        next(it)
    (a, b, c), _ = next(it)
    assert (a, c) in eng.root_rs.entries
    apply(eng, "T", (c, a), -ref.rels["T"][c, a])
    assert (a, c) not in eng.root_rs.entries
    with pytest.raises(StaleIterator):
        next(it)


def dense_db(n):
    rd = {(a, b): 1 + (a + b) % 2 for a in range(1, n + 1) for b in range(1, n + 1)}
    sd = {(b, c): 1 for b in range(1, n + 1) for c in range(1, n + 1)}
    td = {(c, a): 1 for c in range(1, n + 1) for a in range(1, n + 1)}
    return rd, sd, td


@pytest.mark.parametrize("eps", EPS_GRID)
def test_init_union_matches_oracle(eps):
    rd, sd, td = dense_db(4)
    eng = TernaryEngine.from_database(rd, sd, td, eps)
    assert collect(eng) == oracle_triangle(rd, sd, td, 3)
    eng.verify_views()


@pytest.mark.parametrize("eps", EPS_GRID)
def test_mixed_stream_matches_oracle(eps):
    rd, sd, td = dense_db(4)
    eng = TernaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    rng = random.Random(11)
    for _ in range(100):
        rel = rng.choice("RST")
        key = (rng.randint(1, 5), rng.randint(1, 5))
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
        assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 3)
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
    eng = TernaryEngine.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 3)
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
    assert collect(eng) == oracle_triangle(db["R"], db["S"], db["T"], 3)
    eng.verify_views()
