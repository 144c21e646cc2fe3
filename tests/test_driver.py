import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import bound_rule

import trimaint
from trimaint import fragments, store
from trimaint.driver import Driver, make_engine
from trimaint.fragments import FragmentEngine, projector
from trimaint.iterators import HopUnionIterator
from trimaint.oracle import RefMaintainer, oracle_triangle
from trimaint.partition import DoublePartition
from trimaint.store import CostMeter, Relation, RejectedDelete
from trimaint.workload import WorkloadSpec, stream

GRID = [
    ("d0", False, 0.5),
    ("d0", True, 0.5),
    ("d1", False, 0.25),
    ("d2", False, 0.5),
    ("d3", False, 0.5),
]


def make_driver(query, eps, double=False, rd=None, sd=None, td=None):
    return Driver(make_engine(query, eps, double=double, rd=rd, sd=sd, td=td))


def mirror_update(rels, rel, key, m):
    d = rels[rel]
    new = d.get(key, 0) + m
    assert new >= 0
    if new == 0:
        d.pop(key, None)
    else:
        d[key] = new


def random_update(rng, rels, domain, delete_frac):
    live = [(rel, key) for rel, d in rels.items() for key in d]
    if live and rng.random() < delete_frac:
        rel, key = rng.choice(live)
        return rel, key, -rng.randint(1, rels[rel][key])
    rel = rng.choice(("R", "S", "T"))
    key = (rng.randrange(domain), rng.randrange(domain))
    return rel, key, rng.randint(1, 2)


def test_first_insert_on_empty_state():
    drv = make_driver("d0", 0.5)
    assert drv.engine.threshold.N == 1
    drv.on_update("R", (1, 2), 1)
    assert drv.majors == 1
    assert drv.engine.threshold.N == 2
    assert drv.engine.db_size() == 1
    drv.check_invariants(deep=True)


def test_growth_keeps_size_invariant():
    drv = make_driver("d0", 0.5)
    for i in range(40):
        drv.on_update("R", (i, i + 1), 1)
        drv.check_invariants()
    assert drv.engine.threshold.N == 64
    assert drv.majors == 6


def test_delete_run_halves_n():
    rd = {(i, i): 1 for i in range(8)}
    drv = make_driver("d0", 0.5, rd=rd)
    n0 = drv.engine.threshold.N
    assert n0 == 17
    for i in range(5):
        drv.on_update("R", (i, i), -1)
        drv.check_invariants()
    # sizes 7..3; the drop below floor(17/4) = 4 halves N to 7
    assert drv.majors == 1
    assert drv.engine.threshold.N == 7


def test_delete_to_empty_clamps_n():
    drv = make_driver("d0", 0.5)
    drv.on_update("R", (1, 1), 1)
    drv.on_update("R", (1, 1), -1)
    assert drv.engine.db_size() == 0
    assert drv.engine.threshold.N >= 1
    drv.check_invariants(deep=True)


def sixteen_state(query="d0", double=False, eps=0.5):
    # N pinned at 16 so theta = 4; six filler tuples keep the size
    # invariant clear of both rebuild triggers during the test
    drv = make_driver(query, eps, double=double)
    items = {
        "R": [((50 + i, 60 + i), 1) for i in range(4)],
        "S": [((70, 71), 1)],
        "T": [((72, 73), 1)],
    }
    drv.engine.rebuild(items, 16)
    assert drv.engine.threshold.theta == 4.0
    drv.check_invariants()
    return drv


def test_minor_promotion_at_degree_six():
    drv = sixteen_state()
    part = drv.engine.parts["R"]
    for b in range(5):
        drv.on_update("R", (1, b), 1)
        assert part.parts["L"].slice_count((0,), 1) == b + 1
        assert drv.minors == 0
    # degree 6 trips the loose condition 2d >= 3 * theta
    drv.on_update("R", (1, 5), 1)
    assert drv.minors == 1
    assert part.parts["L"].slice_count((0,), 1) == 0
    assert part.parts["H"].slice_count((0,), 1) == 6
    drv.check_invariants(deep=True)


def test_minor_demotion_below_half_theta():
    drv = make_driver("d0", 0.5)
    items = {
        "R": [((1, b), 1) for b in range(4)] + [((50 + i, 60 + i), 1) for i in range(4)],
        "S": [((70, 71), 1)],
        "T": [((72, 73), 1)],
    }
    drv.engine.rebuild(items, 16)
    part = drv.engine.parts["R"]
    assert part.parts["H"].slice_count((0,), 1) == 4
    drv.on_update("R", (1, 3), -1)
    drv.on_update("R", (1, 2), -1)
    assert drv.minors == 0
    # degree 1 trips 2d < theta
    drv.on_update("R", (1, 1), -1)
    assert drv.minors == 1
    assert part.parts["H"].slice_count((0,), 1) == 0
    assert part.parts["L"].slice_count((0,), 1) == 1
    drv.check_invariants(deep=True)


def test_double_partition_y_side_promotion():
    drv = sixteen_state(double=True)
    part = drv.engine.parts["S"]
    for b in range(6):
        drv.on_update("S", (80 + b, 9), 1)
    assert drv.minors == 1
    assert part.affected_label((0, 9), 0.5)[1] == "H"
    assert part.parts["LH"].slice_count((1,), 9) == 6
    drv.check_invariants(deep=True)


def test_check_invariants_catches_drifted_size():
    drv = sixteen_state()
    drv.engine.size += 1
    with pytest.raises(AssertionError, match="drifted"):
        drv.check_invariants()


def test_move_tuples_two_applies_per_tuple():
    drv = sixteen_state()
    for b in range(3):
        drv.on_update("R", (1, b), 1)
    eng = drv.engine
    before = eng.query_result()
    calls = []
    real = eng.apply_update
    eng.apply_update = lambda *a, **kw: (calls.append(kw), real(*a, **kw))[1]
    moved = drv.move_tuples("R", "X", 1, "L", "H")
    eng.apply_update = real
    assert moved == 3
    # each apply is one half of a move, which keeps every tuple's total
    assert calls == [{"move": True}] * 6
    assert eng.parts["R"].parts["H"].slice_count((0,), 1) == 3
    assert eng.query_result() == before
    eng.verify_views()


def test_rejected_delete_leaves_state_unchanged():
    drv = make_driver("d3", 0.5, rd={(1, 2): 1}, sd={(2, 3): 1}, td={(3, 1): 1})
    n0 = drv.engine.threshold.N
    before = drv.engine.query_result()
    with pytest.raises(RejectedDelete):
        drv.on_update("S", (2, 3), -2)
    assert drv.engine.threshold.N == n0
    assert drv.updates == 0
    assert drv.engine.query_result() == before
    drv.check_invariants(deep=True)


@pytest.mark.parametrize("query,double,eps", GRID)
def test_rebalance_transparency(query, double, eps):
    drv = make_driver(query, eps, double=double)
    stack = []

    def obs(event, d):
        if event.endswith(":before"):
            stack.append(d.engine.query_result())
        else:
            assert d.engine.query_result() == stack.pop()

    drv.observers.append(obs)
    rng = random.Random(9000 + len(query))
    rels = {"R": {}, "S": {}, "T": {}}
    for _ in range(250):
        rel, key, m = random_update(rng, rels, 6, 0.3)
        drv.on_update(rel, key, m)
        mirror_update(rels, rel, key, m)
    assert not stack
    assert drv.majors > 0


@pytest.mark.parametrize("query,double,eps", GRID)
def test_random_stream_invariants_and_result(query, double, eps):
    k = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}[query]
    drv = make_driver(query, eps, double=double)
    rng = random.Random(41 + k)
    rels = {"R": {}, "S": {}, "T": {}}
    for step in range(300):
        rel, key, m = random_update(rng, rels, 8, 0.3)
        drv.on_update(rel, key, m)
        mirror_update(rels, rel, key, m)
        drv.check_invariants()
        if step % 25 == 24:
            want = oracle_triangle(rels["R"], rels["S"], rels["T"], k)
            assert drv.engine.query_result() == want
    drv.check_invariants(deep=True)


def test_long_stream_invariants_every_step():
    drv = make_driver("d0", 0.5)
    rng = random.Random(7)
    rels = {"R": {}, "S": {}, "T": {}}
    for step in range(2000):
        rel, key, m = random_update(rng, rels, 12, 0.3)
        drv.on_update(rel, key, m)
        mirror_update(rels, rel, key, m)
        drv.check_invariants()
        if step % 250 == 249:
            drv.check_invariants(deep=True)
    assert drv.engine.query_result() == oracle_triangle(
        rels["R"], rels["S"], rels["T"], 0
    )


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_extreme_epsilon_never_minor_rebalances(eps):
    drv = make_driver("d3", eps)
    rng = random.Random(17)
    rels = {"R": {}, "S": {}, "T": {}}
    for _ in range(200):
        rel, key, m = random_update(rng, rels, 5, 0.25)
        drv.on_update(rel, key, m)
        mirror_update(rels, rel, key, m)
    assert drv.minors == 0
    drv.check_invariants(deep=True)


# Ops by phase of one stream: zipf growth with deletes, then every live
# tuple deleted again, at eps 0.25 so that minors run too. "base" leaves
# dict compaction out (store.COMPACT_FLOOR set past any size), so a change
# to any other metered work shows there; "counts" add the compaction
# ticks. The ops of a full enumeration at the stream's turning point are
# pinned apart, as "enum", and left out of both; the majors and minors
# ride along.
OP_PINS = {
    ("d0", False): dict(
        base={"total": 25696, "apply": 22532, "major": 1278, "minor": 1886},
        counts={"total": 25855, "apply": 22656, "major": 1311, "minor": 1888},
        enum=1, majors=14, minors=18),
    ("d0", True): dict(
        base={"total": 51879, "apply": 44678, "major": 3293, "minor": 3908},
        counts={"total": 52034, "apply": 44787, "major": 3318, "minor": 3929},
        enum=1, majors=14, minors=31),
    ("d1", False): dict(
        base={"total": 49732, "apply": 42915, "major": 3025, "minor": 3792},
        counts={"total": 49894, "apply": 43049, "major": 3038, "minor": 3807},
        enum=190, majors=14, minors=27),
    ("d2", False): dict(
        base={"total": 51923, "apply": 44323, "major": 3030, "minor": 4570},
        counts={"total": 52116, "apply": 44471, "major": 3056, "minor": 4589},
        enum=476, majors=14, minors=29),
    ("d3", False): dict(
        base={"total": 28900, "apply": 25260, "major": 1406, "minor": 2234},
        counts={"total": 29145, "apply": 25461, "major": 1444, "minor": 2240},
        enum=307, majors=14, minors=18),
}


def pinned_stream():
    spec = WorkloadSpec(seed=7, domain=40, updates=1200, delete_frac=0.3, skew="zipf:1.2")
    ups = list(stream(spec))
    live = {}
    for rel, key, m in ups:
        live[rel, key] = live.get((rel, key), 0) + m
        if not live[rel, key]:
            del live[rel, key]
    return ups, [(rel, key, -m) for (rel, key), m in live.items()]


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("query,double", list(OP_PINS))
def test_op_counts_pinned(query, double, compact, monkeypatch):
    if not compact:
        monkeypatch.setattr(store, "COMPACT_FLOOR", float("inf"))
    pin = OP_PINS[(query, double)]
    grow, shrink = pinned_stream()
    drv = make_driver(query, 0.25, double=double)
    for upd in grow:
        drv.on_update(*upd)
    before = drv.meter.total
    drv.engine.query_result()
    enum = drv.meter.total - before
    # the read is pinned as enum alone: base and counts are the updates'
    drv.meter.total = before
    for upd in shrink:
        drv.on_update(*upd)
    assert drv.meter.snapshot() == (pin["counts"] if compact else pin["base"])
    assert (enum, drv.majors, drv.minors) == (pin["enum"], pin["majors"], pin["minors"])
    assert drv.engine.db_size() == 0


@pytest.mark.parametrize("query,double", list(OP_PINS))
def test_view_writes_reach_apply_delta_only_to_insert_or_delete(query, double, monkeypatch):
    # an update step overwrites a view value that stays stored in place;
    # only a view key that appears or vanishes goes through apply_delta
    # (a part write may overwrite)
    seen = []
    apply_delta = Relation.apply_delta

    def spied(self, key, m):
        old = self.entries.get(key, 0)
        new = apply_delta(self, key, m)
        seen.append((self.name, old, new))
        return new

    monkeypatch.setattr(Relation, "apply_delta", spied)
    grow, shrink = pinned_stream()
    drv = make_driver(query, 0.25, double=double)
    for upd in grow + shrink:
        drv.on_update(*upd)
    views = set(drv.engine.view_names)
    writes = [(old, new) for name, old, new in seen if name in views]
    assert writes, "no view was written"
    assert [w for w in writes if w[0] and w[1]] == []


# The pinned stream's domain of 40 barely grows a hub, so walking the
# shorter side shows little there. This zipf stream over a domain of 1000
# at eps 0.5 does grow hubs (totals when the kernels walked the side the
# `sides` letter names, before double partitions kept a totals map: d0
# 122758, d0 double 255958, d1 231174, d2 240968, d3 131274).
ZIPF_PINS = {
    ("d0", False): dict(ops={"total": 86574, "apply": 80446, "major": 980, "minor": 5148},
                        majors=11, minors=3),
    ("d0", True): dict(ops={"total": 175014, "apply": 161815, "major": 3055, "minor": 10144},
                       majors=11, minors=5),
    ("d1", False): dict(ops={"total": 159343, "apply": 147967, "major": 2751, "minor": 8625},
                        majors=11, minors=4),
    ("d2", False): dict(ops={"total": 169389, "apply": 156008, "major": 1634, "minor": 11747},
                        majors=11, minors=5),
    ("d3", False): dict(ops={"total": 95090, "apply": 87746, "major": 980, "minor": 6364},
                        majors=11, minors=3),
}


@pytest.mark.parametrize("query,double", list(ZIPF_PINS))
def test_op_counts_pinned_on_a_zipf_stream(query, double):
    spec = WorkloadSpec(seed=11, domain=1000, updates=4000, delete_frac=0.3, skew="zipf:1.2")
    drv = make_driver(query, 0.5, double=double)
    for upd in stream(spec):
        drv.on_update(*upd)
    pin = ZIPF_PINS[(query, double)]
    assert (drv.meter.snapshot(), drv.majors, drv.minors) == (
        pin["ops"], pin["majors"], pin["minors"])


def ladder_stream():
    """Stars of degrees 3 to 96 on R's first column, then S and T tuples
    closing triangles through them and random fill up to 1100 distinct
    tuples; then every insert undone, the stars last. As N doubles and
    halves, theta passes the stars' degrees at every epsilon strictly
    between 0 and 1, so majors move tuples."""
    stars = [(5000 + i, d) for i, d in enumerate((3, 6, 12, 24, 48, 96))]
    ins = [("R", (s, j)) for s, d in stars for j in range(d)]
    ins += [("S", (j, c)) for j in range(96) for c in range(2)]
    ins += [("T", (c, s)) for c in range(2) for s, _ in stars]
    rng, seen = random.Random(5), set(ins)
    while len(ins) < 1100:
        t = (rng.choice("RST"), (rng.randrange(64), rng.randrange(64)))
        if t not in seen:
            seen.add(t)
            ins.append(t)
    return [(rel, key, 1) for rel, key in ins] + [(rel, key, -1) for rel, key in reversed(ins)]


STREAMS = {"pinned": lambda: sum(pinned_stream(), []), "ladder": ladder_stream}


def parts_as_dicts(part):
    return {lab: dict(r.entries) for lab, r in part.parts.items()}


@pytest.mark.parametrize("name", list(STREAMS))
@pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("query,double", list(OP_PINS))
def test_major_by_difference_equals_a_strict_rebuild(query, double, eps, name):
    # after every major: each part holds what a strict build of the
    # database at the new theta puts there, the deep audit holds, the
    # result is the reference's, and the major ran no minor
    drv = make_driver(query, eps, double=double)
    eng, ref = drv.engine, RefMaintainer(int(query[1]))
    minors, moved, in_major = [], [0], [False]
    move_tuples = drv.move_tuples

    def counted(*args):
        n = move_tuples(*args)
        if in_major[0]:
            moved[0] += n
        return n

    drv.move_tuples = counted

    def check(event, d):
        in_major[0] = event == "major:before"
        if event == "major:before":
            minors.append(d.minors)
        if event != "major:after":
            return
        theta = eng.threshold.theta
        for rel, items in eng.rel_items().items():
            want = eng.shapes[rel].strict_build(items, rel, CostMeter(), theta)
            assert parts_as_dicts(eng.parts[rel]) == parts_as_dicts(want), (rel, eng.threshold.N)
        d.check_invariants(deep=True)
        assert eng.query_result() == ref.result()
        assert d.minors == minors[-1]

    drv.observers.append(check)
    for upd in STREAMS[name]():
        ref.apply(*upd)
        drv.on_update(*upd)
    assert len(minors) == drv.majors > 0
    # at eps 0 every value is heavy, at eps 1 every value light, at every N
    if eps in (0.0, 1.0):
        assert moved[0] == 0
    elif name == "ladder":
        assert moved[0] > 0


def fallback_stream():
    """32 values of R's first column grow to degree 6, heavy by then, and
    are cut back to degree 4 while N is 256 (theta 4 at eps 0.25), which
    keeps them heavy; triangle-closing S and T tuples fill the database to
    256, so the doubling to N = 512 (theta 4.76) flips every one to light:
    k = 128 tuples to move, past the fallback bound 512^(1.5-0.75) = 107.6.
    Then the T tuples go again."""
    hubs = range(1000, 1032)
    ups = [("R", (h, j), 1) for h in hubs for j in range(6)]
    ups += [("R", (h, j), -1) for h in hubs for j in (4, 5)]
    ups += [("S", (j, 100 + c), 1) for c in range(16) for j in range(4)]
    closing = [("T", (100 + c, h), 1) for c in range(16) for h in hubs[:4]]
    return ups + closing + [(rel, key, -m) for rel, key, m in closing]


# the fallback stream's ops at eps 0.25: of all its majors, and of the
# ninth, which scans and then rebuilds
FALLBACK_PINS = {
    ("d0", False): dict(major=2454, rebuild=2276, majors=9, minors=33),
    ("d0", True): dict(major=3990, rebuild=3564, majors=9, minors=45),
    ("d1", False): dict(major=4402, rebuild=4012, majors=9, minors=45),
    ("d2", False): dict(major=4266, rebuild=3976, majors=9, minors=41),
    ("d3", False): dict(major=2982, rebuild=2804, majors=9, minors=33),
}


@pytest.mark.parametrize("query,double", list(FALLBACK_PINS))
def test_a_major_moving_too_much_rebuilds(query, double, monkeypatch):
    drv = make_driver(query, 0.25, double=double)
    ref = RefMaintainer(int(query[1]))
    rebuilds = []
    rebuild = FragmentEngine.rebuild

    def counted(self, rel_items, n):
        rebuilds.append((drv.majors, n))
        return rebuild(self, rel_items, n)

    monkeypatch.setattr(FragmentEngine, "rebuild", counted)
    rebuilt = None
    for upd in fallback_stream():
        ref.apply(*upd)
        major = drv.meter.major
        drv.on_update(*upd)
        if rebuilds and rebuilt is None:
            rebuilt = drv.meter.major - major
            assert drv.engine.query_result() == ref.result()
    assert rebuilds == [(9, 512)]
    assert drv.engine.query_result() == ref.result()
    drv.check_invariants(deep=True)
    pin = FALLBACK_PINS[(query, double)]
    assert (drv.meter.major, rebuilt, drv.majors, drv.minors) == (
        pin["major"], pin["rebuild"], pin["majors"], pin["minors"])

@pytest.mark.parametrize("query,double", [("d0", True), ("d1", False), ("d2", False)])
def test_totals_follow_every_rebalance(query, double, monkeypatch):
    # every double partition's totals map is the sum of its parts after
    # each minor and each major (by difference on the ladder stream, a
    # fallback rebuild on the other), every 50 updates, and after a
    # rebuild onto another database, which must not keep the old maps
    rebuilds = []
    rebuild = FragmentEngine.rebuild

    def counted(self, rel_items, n):
        rebuilds.append(n)
        return rebuild(self, rel_items, n)

    monkeypatch.setattr(FragmentEngine, "rebuild", counted)
    seen = {"minor:after": 0, "major:after": 0}
    for updates in (ladder_stream(), fallback_stream()):
        drv = make_driver(query, 0.25, double=double)
        eng = drv.engine
        doubles = [p for p in eng.parts.values() if isinstance(p, DoublePartition)]
        assert doubles

        def check(event, d):
            if event.endswith(":after"):
                seen[event] += 1
                for p in eng.parts.values():
                    p.check_totals()

        drv.observers.append(check)
        for i, upd in enumerate(updates):
            drv.on_update(*upd)
            if i % 50 == 0:
                for p in doubles:
                    p.check_totals()
    assert seen["minor:after"] > 0 and seen["major:after"] > 0 and rebuilds
    drv.check_invariants(deep=True)
    # every other tuple of the fallback stream's final database
    half = {rel: kvs[::2] for rel, kvs in eng.rel_items().items()}
    old = [p.totals for p in eng.parts.values() if p.totals is not None]
    eng.rebuild(half, 2 * sum(map(len, half.values())) + 1)
    assert not any(p.totals is t for p in eng.parts.values() for t in old)
    drv.check_invariants(deep=True)
    for rel, kvs in half.items():
        for key, m in kvs:
            drv.on_update(rel, key, -m)
    drv.check_invariants(deep=True)
    assert all(not p.totals for p in eng.parts.values() if p.totals is not None)


@pytest.mark.parametrize("query,double", list(OP_PINS))
def test_a_doubling_major_costs_less_than_a_rebuild(query, double, monkeypatch):
    # the first count-churn benchmark database at seed 3, 7000 tuples at
    # eps 0.5: the major at 2N moves 665-803 tuples for d0 double, d1 and
    # d2, far inside the fallback's bound (k <= N), so only the cost of
    # each move's steps keeps it below a rebuild
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under bench/
    from workloads import WORKLOADS, generate_database

    w = WORKLOADS["count-churn"]
    db = generate_database(w, 3, 0).preload
    eng = make_engine(query, w.epsilon, double=double, rd=db["R"], sd=db["S"], td=db["T"])
    meter, n = eng.meter, eng.threshold.N
    t0 = meter.total
    eng.rebuild(eng.rel_items(), n)
    rebuild = meter.total - t0
    drv = Driver(eng)
    drv._major(2 * n)
    assert meter.major < rebuild
    assert drv.minors == 0
    drv.check_invariants(deep=True)


@pytest.mark.parametrize("query,double", list(OP_PINS))
def test_meter_ledger_matches_the_returned_costs(query, double):
    # the driver alone adds to major and minor, each rebalance's ops once;
    # apply is what is left of the total
    grow, shrink = pinned_stream()
    drv = make_driver(query, 0.25, double=double)
    build = drv.meter.snapshot()
    assert build["major"] == build["minor"] == 0
    summed = sum(drv.on_update(*upd) for upd in grow + shrink)
    m = drv.meter
    assert m.major > 0 and m.minor > 0
    assert m.total - build["total"] == summed
    snap = m.snapshot()
    assert snap == {"total": m.total, "apply": m.total - m.major - m.minor,
                    "major": m.major, "minor": m.minor}


def test_deep_audit_checks_view_indexes():
    grow, _ = pinned_stream()
    drv = make_driver("d2", 0.25)
    for upd in grow[:400]:
        drv.on_update(*upd)
    drv.check_invariants(deep=True)
    # a key repeated in a list slice of a pair view's hash index: the
    # view's entries, and so its recomputation, stay the same
    (_, slices, *_), = [ix for ix in drv.engine.pair_rs._indexes if ix[3] is None]
    s = next(s for s in slices.values() if type(s) is list)
    s.append(s[0])
    drv.check_invariants()
    with pytest.raises(AssertionError):
        drv.check_invariants(deep=True)


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_hop_union_buckets_are_never_empty(query):
    # HopUnionIterator requires every bucket to be non-empty; the engines
    # hand it the keys of a root or top view
    grow, shrink = pinned_stream()
    drv = make_driver(query, 0.25)
    checked = 0
    for i, upd in enumerate(grow + shrink):
        drv.on_update(*upd)
        if i % 100 and i != len(grow) - 1:
            continue
        hops = drv.engine.open_union()
        assert hops and all(isinstance(h, HopUnionIterator) for h in hops)
        for h in hops:
            for k in h.buckets._seq:
                assert h._first(k) is not None, (i, k)
                checked += 1
    assert checked


def grown_with_reference(query):
    """Driver and reference after the growth half of the pinned stream."""
    grow, _ = pinned_stream()
    drv, ref = make_driver(query, 0.25), RefMaintainer(int(query[1]))
    for upd in grow:
        drv.on_update(*upd)
        ref.apply(*upd)
    return drv, ref


@pytest.mark.parametrize("query", ["d1", "d2"])
@pytest.mark.parametrize("walk", ["enumerate", "candidates"])
def test_kept_walk_never_goes_stale(query, walk):
    # enumeration and a tree's rule keep what the rule read of the pair
    # slice at x; an update that moves x's multiplicity must not be read
    # from it
    drv, ref = grown_with_reference(query)
    eng = drv.engine
    # a pair entry whose triangle closes, so one more copy of its left
    # tuple adds to the multiplicity of its output tuple x
    t, pk = next((t, pk) for t in eng.trees if t.pair
                 for pk in getattr(eng, t.pair).entries
                 if ref.rels[t.third].get((pk[2], pk[0])))
    x = projector(t.xyz, eng.out)(pk)
    if walk == "enumerate":
        for y, _ in eng.enumerate_result():
            if y == x:
                break
    else:
        assert bound_rule(eng, t)(x)
    before = ref.result()[x]
    drv.on_update(t.left, pk[:2], 1)
    ref.apply(t.left, pk[:2], 1)
    assert ref.result()[x] > before
    assert eng.multiplicity(x) == ref.result()[x]
    assert eng.query_result() == ref.result()


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_one_pair_slice_walk_per_emitted_tuple(query, monkeypatch):
    # a pair tree's slice at an emitted tuple is walked by the tree's
    # rule and reused by a repeated probe and by multiplicity (d2 can walk
    # it twice where the rule stepped past it, which this stream never does);
    # the walks are counted as calls of the slices getter each rule binds
    walks = []
    pair_rule = fragments._pair_rule

    def counting(eng, get, entries, *args):
        name = next(t.pair for t in eng.trees if t.pair and getattr(eng, t.pair).entries is entries)

        def counted(sub):
            walks.append((name, sub))
            return get(sub)
        return pair_rule(eng, counted, entries, *args)

    monkeypatch.setattr(fragments, "_pair_rule", counting)
    drv, ref = grown_with_reference(query)
    eng = drv.engine
    pairs = {t.pair for t in eng.trees if t.pair}
    walks.clear()
    at_emitted = 0
    for x, _ in eng.enumerate_result():
        sub = x[0] if len(x) == 1 else x
        here = [name for name, s in walks if name in pairs and s == sub]
        assert all(here.count(name) <= 1 for name in pairs), (x, here)
        at_emitted += len(here)
        walks.clear()
    assert at_emitted >= len(ref.result())


BOUNDARY_SCRIPT = """
from trimaint.driver import Driver, make_engine
from trimaint.oracle import oracle_triangle
from trimaint.workload import WorkloadSpec, stream

K = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}
VARIANTS = (("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False))
spec = WorkloadSpec(seed=5, domain=8, updates=200, delete_frac=0.3)
for query, double in VARIANTS:
    drv = Driver(make_engine(query, 0.5, double=double))
    rels = {"R": {}, "S": {}, "T": {}}
    for rel, key, m in stream(spec):
        drv.on_update(rel, key, m)
        d = rels[rel]
        d[key] = d.get(key, 0) + m
        if not d[key]:
            del d[key]
    state = (drv.meter.snapshot(), drv.updates)
    for bad in (("R", (1, 2), 0), ("Q", (1, 2), 1), ("S", (1, 2, 3), 1), (["R"], (1, 2), 1)):
        try:
            drv.on_update(*bad)
        except ValueError:
            pass
        else:
            raise SystemExit(f"{query} accepted {bad}")
    if (drv.meter.snapshot(), drv.updates) != state:
        raise SystemExit(f"{query}: a refused update changed the state")
    if drv.engine.query_result() != oracle_triangle(rels["R"], rels["S"], rels["T"], K[query]):
        raise SystemExit(f"{query}: result differs from the oracle")
    print("ok", query, double)
for bad in ({(1, 2): 0}, {(1, 2): -1}, {(1, 2): 1.5}, {(1, 2, 3): 1}, {(1,): 1}, {7: 1}):
    for query, double in VARIANTS:
        try:
            # a well-formed R, then a malformed T
            make_engine(query, 0.5, double=double, rd={(0, 1): 1}, td=bad)
        except ValueError as e:
            if len(str(e).splitlines()) != 1:
                raise SystemExit(f"{query}: {bad} refused with {e!r}")
        else:
            raise SystemExit(f"{query} built from {bad}")
try:
    WorkloadSpec(skew="zipf:nan")
except ValueError:
    pass
else:
    raise SystemExit("accepted zipf:nan")
"""


def run_optimized(script):
    """Run `script` under `python -O`, with this checkout's trimaint."""
    src = Path(trimaint.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_input_boundary_holds_under_optimize():
    # asserts are compiled out under -O; the input checks of on_update and
    # of a database given to make_engine must not be
    proc = run_optimized(BOUNDARY_SCRIPT)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert len(proc.stdout.splitlines()) == 5


AUDIT_SCRIPT = """
from trimaint.driver import Driver, make_engine
from trimaint.workload import WorkloadSpec, stream

if __debug__:
    raise SystemExit("asserts are not compiled out")


def raises(audit):
    try:
        audit()
    except AssertionError:
        return True
    return False


drv = Driver(make_engine("d2", 0.25))
for upd in stream(WorkloadSpec(seed=7, domain=40, updates=400, skew="zipf:1.2")):
    drv.on_update(*upd)
eng = drv.engine
drv.check_invariants(deep=True)
eng.size += 1
if not raises(drv.check_invariants):
    raise SystemExit("a drifted size passed the audit")
eng.size -= 1
# a key repeated in a list slice of a pair view's hash index
(_, slices, *_), = [ix for ix in eng.pair_rs._indexes if ix[3] is None]
s = next(s for s in slices.values() if type(s) is list)
s.append(s[0])
if not raises(lambda: drv.check_invariants(deep=True)):
    raise SystemExit("a repeated key passed the deep audit")
s.pop()
# a value on both sides of a split
R = eng.parts["R"]
(x, _), _ = next(iter(R.parts["L"].items()))
R.parts["H"].apply_delta((x, -1), 1)
if not raises(R.check_disjoint):
    raise SystemExit("a split value passed check_disjoint")
"""


def test_audits_hold_under_optimize():
    proc = run_optimized(AUDIT_SCRIPT)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_audit_takes_values_of_mixed_types():
    # on_update takes any hashable values; the audit must not order them
    drv = make_driver("d2", 0.5)
    drv.on_update("S", (1, 2), 1)
    drv.on_update("S", ("a", 3), 1)
    drv.check_invariants(deep=True)
