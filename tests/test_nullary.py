import random

import pytest
from hypothesis import given, settings, strategies as st

from trimaint.driver import Driver, make_engine
from trimaint.nullary import NullaryDoubleEngine, NullaryEngine
from trimaint.oracle import oracle_triangle
from trimaint.store import RejectedDelete

EPS_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
ENGINES = [NullaryEngine, NullaryDoubleEngine]


def apply(eng, rel, key, m):
    lab = eng.parts[rel].affected_label(key, eng.epsilon)
    eng.apply_update(rel, lab, key, m)


@pytest.mark.parametrize("cls", ENGINES)
def test_empty_init(cls):
    eng = cls.from_database({}, {}, {}, 0.5)
    assert eng.threshold.N == 1
    assert eng.count == 0
    assert all(len(getattr(eng, t.hat)) == 0 for t in eng.trees)
    assert eng.db_size() == 0


@pytest.mark.parametrize("cls", ENGINES)
def test_one_triangle_init(cls):
    eng = cls.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    assert eng.threshold.N == 7
    assert eng.count == 1
    assert eng.query_result() == 1


@pytest.mark.parametrize("cls", ENGINES)
def test_multiplicity_product(cls):
    eng = cls.from_database({(1, 2): 2}, {(2, 3): 3}, {(3, 1): 1}, 0.5)
    assert eng.count == 6


@pytest.mark.parametrize("cls", ENGINES)
def test_insert_then_delete_closes_triangle(cls):
    eng = cls.from_database({}, {}, {}, 0.5)
    apply(eng, "R", (1, 2), 1)
    assert eng.count == 0
    apply(eng, "S", (2, 3), 1)
    assert eng.count == 0
    apply(eng, "T", (3, 1), 1)
    assert eng.count == 1
    apply(eng, "T", (3, 1), -1)
    assert eng.count == 0
    eng.verify_views()


@pytest.mark.parametrize("cls", ENGINES)
def test_overdelete_rejected_before_mutation(cls):
    eng = cls.from_database({(1, 2): 1}, {(2, 3): 1}, {(3, 1): 1}, 0.5)
    with pytest.raises(RejectedDelete):
        apply(eng, "T", (3, 1), -2)
    assert eng.count == 1
    assert eng.parts["T"].total((3, 1)) == 1
    eng.verify_views()


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_mixed_stream_matches_oracle(cls, eps):
    rng = random.Random(7)
    db = {"R": {}, "S": {}, "T": {}}
    eng = cls.from_database({}, {}, {}, eps)
    for _ in range(120):
        rel = rng.choice("RST")
        key = (rng.randint(1, 5), rng.randint(1, 5))
        cur = db[rel].get(key, 0)
        if cur > 0 and rng.random() < 0.3:
            m = -rng.randint(1, cur)
        else:
            m = rng.randint(1, 2)
        apply(eng, rel, key, m)
        if cur + m == 0:
            del db[rel][key]
        else:
            db[rel][key] = cur + m
        assert eng.count == oracle_triangle(db["R"], db["S"], db["T"], 0)
    eng.verify_views()


def test_extreme_epsilon_pins_one_part():
    for cls in ENGINES:
        heavy_all = cls.from_database({}, {}, {}, 0.0)
        light_all = cls.from_database({}, {}, {}, 1.0)
        rng = random.Random(3)
        for _ in range(60):
            rel = rng.choice("RST")
            key = (rng.randint(1, 4), rng.randint(1, 4))
            apply(heavy_all, rel, key, 1)
            apply(light_all, rel, key, 1)
        hlab = "H" if cls is NullaryEngine else "HH"
        llab = "L" if cls is NullaryEngine else "LL"
        for p in heavy_all.parts.values():
            assert p.size() == len(p.parts[hlab].entries)
        for p in light_all.parts.values():
            assert p.size() == len(p.parts[llab].entries)
        assert heavy_all.count == light_all.count


rel_dict = st.dictionaries(
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.integers(1, 3),
    max_size=20,
)


@settings(max_examples=120, deadline=None)
@given(
    rd=rel_dict,
    sd=rel_dict,
    td=rel_dict,
    double=st.booleans(),
    eps=st.sampled_from(EPS_GRID),
    rel=st.sampled_from(["R", "S", "T"]),
    key=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    m=st.integers(-2, 2).filter(lambda x: x != 0),
)
def test_single_update_matches_oracle(rd, sd, td, double, eps, rel, key, m):
    cls = NullaryDoubleEngine if double else NullaryEngine
    eng = cls.from_database(rd, sd, td, eps)
    db = {"R": dict(rd), "S": dict(sd), "T": dict(td)}
    assert eng.count == oracle_triangle(db["R"], db["S"], db["T"], 0)
    cur = db[rel].get(key, 0)
    if cur + m < 0:
        with pytest.raises(RejectedDelete):
            apply(eng, rel, key, m)
        assert eng.count == oracle_triangle(db["R"], db["S"], db["T"], 0)
    else:
        apply(eng, rel, key, m)
        if cur + m == 0:
            db[rel].pop(key, None)
        else:
            db[rel][key] = cur + m
        assert eng.count == oracle_triangle(db["R"], db["S"], db["T"], 0)
    eng.verify_views()


@pytest.mark.parametrize("cls", ENGINES)
def test_all_heavy_step_skips_a_hub_when_its_probe_is_empty(cls):
    # at eps 0.25, R's value 0 is heavy in R and T holds a hub of heavy
    # C-values at A = 0, while S's value 50 is light: an R update (0, 50)
    # finds S^H empty at 50 and must walk none of T^H's slice at 0
    def update_ops(hub):
        rd = {(0, 100 + j): 1 for j in range(8)}
        sd = {(50, 0): 1}
        td = {(c, a): 1 for c in range(hub) for a in [0] + [1000 + j for j in range(7)]}
        eng = cls.from_database(rd, sd, td, 0.25)
        heavy = [p for lab, p in eng.parts["T"].parts.items() if lab[0] == "H"]
        assert sum(p.slice_count((1,), 0) for p in heavy) == hub
        assert eng.parts["R"].affected_label((0, 50), eng.epsilon)[0] == "H"
        assert eng.parts["S"].affected_label((50, 0), eng.epsilon)[0] == "L"
        t0 = eng.meter.total
        apply(eng, "R", (0, 50), 1)
        assert eng.count == oracle_triangle({**rd, (0, 50): 1}, sd, td, 0)
        return eng.meter.total - t0

    assert update_ops(16) == update_ops(64)


def test_star_hub_cost_is_capped_at_half_epsilon():
    # a star R(0, i), S(i, 0) grown in bands: at epsilon 0.5 the hub value
    # goes heavy, so toggling the closing edge T(0, 0) costs what toggling
    # an unconnected T tuple costs, at every band (at epsilon 1 the excess
    # doubles with the spokes; see test_star_per_update_cost_doubles)
    drv = Driver(make_engine("d0", 0.5))
    spokes = 0
    for band, n in enumerate((32, 64, 128, 256, 512, 1024, 2048)):
        while spokes < n:
            spokes += 1
            drv.on_update("R", (0, spokes), 1)
            drv.on_update("S", (spokes, 0), 1)
        off = (9000 + band, 9500 + band)
        base = drv.on_update("T", off, 1)
        drv.on_update("T", off, -1)
        cost = drv.on_update("T", (0, 0), 1)
        drv.on_update("T", (0, 0), -1)
        assert cost == base, (n, cost, base)
    assert drv.engine.count == 0
