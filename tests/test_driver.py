import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import trimaint
from trimaint import store
from trimaint.driver import Driver, make_engine
from trimaint.fragments import projector
from trimaint.iterators import HopUnionIterator
from trimaint.oracle import RefMaintainer, oracle_triangle
from trimaint.store import Relation, RejectedDelete
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
        assert part.part("L").slice_count((0,), 1) == b + 1
        assert drv.minors == 0
    # degree 6 trips the loose condition 2d >= 3 * theta
    drv.on_update("R", (1, 5), 1)
    assert drv.minors == 1
    assert part.part("L").slice_count((0,), 1) == 0
    assert part.part("H").slice_count((0,), 1) == 6
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
    assert part.part("H").slice_count((0,), 1) == 4
    drv.on_update("R", (1, 3), -1)
    drv.on_update("R", (1, 2), -1)
    assert drv.minors == 0
    # degree 1 trips 2d < theta
    drv.on_update("R", (1, 1), -1)
    assert drv.minors == 1
    assert part.part("H").slice_count((0,), 1) == 0
    assert part.part("L").slice_count((0,), 1) == 1
    drv.check_invariants(deep=True)


def test_double_partition_y_side_promotion():
    drv = sixteen_state(double=True)
    part = drv.engine.parts["S"]
    for b in range(6):
        drv.on_update("S", (80 + b, 9), 1)
    assert drv.minors == 1
    assert part.side_class("Y", 9) == "H"
    assert part.part("LH").slice_count((1,), 9) == 6
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
    eng.apply_update = lambda *a: (calls.append(a), real(*a))[1]
    moved = drv.move_tuples("R", "X", 1, "L", "H")
    eng.apply_update = real
    assert moved == 3
    assert len(calls) == 6
    assert eng.parts["R"].part("H").slice_count((0,), 1) == 3
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
# ticks. The ops of a full enumeration at the stream's turning point, and
# the majors and minors, ride along.
OP_PINS = {
    ("d0", False): dict(
        base={"total": 27438, "apply": 23073, "major": 2495, "minor": 1870},
        counts={"total": 27521, "apply": 23154, "major": 2495, "minor": 1872},
        enum=1, majors=14, minors=18),
    ("d0", True): dict(
        base={"total": 54472, "apply": 46218, "major": 4097, "minor": 4157},
        counts={"total": 54554, "apply": 46279, "major": 4097, "minor": 4178},
        enum=1, majors=14, minors=31),
    ("d1", False): dict(
        base={"total": 50823, "apply": 42653, "major": 4310, "minor": 3860},
        counts={"total": 50907, "apply": 42722, "major": 4310, "minor": 3875},
        enum=207, majors=14, minors=27),
    ("d2", False): dict(
        base={"total": 53449, "apply": 43986, "major": 5149, "minor": 4314},
        counts={"total": 53551, "apply": 44069, "major": 5149, "minor": 4333},
        enum=618, majors=14, minors=29),
    ("d3", False): dict(
        base={"total": 30985, "apply": 26107, "major": 2660, "minor": 2218},
        counts={"total": 31126, "apply": 26244, "major": 2660, "minor": 2222},
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
    for upd in shrink:
        drv.on_update(*upd)
    assert drv.meter.snapshot() == (pin["counts"] if compact else pin["base"])
    assert (enum, drv.majors, drv.minors) == (pin["enum"], pin["majors"], pin["minors"])
    assert drv.engine.db_size() == 0


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_hop_union_buckets_are_never_empty(query):
    # HopUnionIterator requires a nonzero size for every bucket key; the
    # engines hand it the keys of a root or top view
    grow, shrink = pinned_stream()
    drv = make_driver(query, 0.25)
    checked = 0
    for i, upd in enumerate(grow + shrink):
        drv.on_update(*upd)
        if i % 100 and i != len(grow) - 1:
            continue
        hops = [it for it in drv.engine.open_union()._iters
                if isinstance(it, HopUnionIterator)]
        assert hops
        for h in hops:
            for k in h._keys:
                assert h._bucket_size(k) > 0, (i, k)
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
    # enumeration and candidate_buckets keep the pair slice they walked
    # at x; an update that moves x's multiplicity must not be read from it
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
        assert eng.candidate_buckets(t, x)
    before = ref.result()[x]
    drv.on_update(t.left, pk[:2], 1)
    ref.apply(t.left, pk[:2], 1)
    assert ref.result()[x] > before
    assert eng.multiplicity(x) == ref.result()[x]
    assert eng.query_result() == ref.result()


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_one_pair_slice_walk_per_emitted_tuple(query, monkeypatch):
    # a pair tree's slice at an emitted tuple is walked by the candidate
    # rule and reused by a repeated probe and by multiplicity (d2 can walk
    # it twice where the rule stepped past it, which this stream never does)
    walks = []
    slice_items = Relation.slice_items

    def counted(self, cols, sub):
        walks.append((self.name, sub))
        return slice_items(self, cols, sub)

    monkeypatch.setattr(Relation, "slice_items", counted)
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
spec = WorkloadSpec(seed=5, domain=8, updates=200, delete_frac=0.3)
for query, double in (("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)):
    drv = Driver(make_engine(query, 0.5, double=double))
    rels = {"R": {}, "S": {}, "T": {}}
    for rel, key, m in stream(spec):
        drv.on_update(rel, key, m)
        d = rels[rel]
        d[key] = d.get(key, 0) + m
        if not d[key]:
            del d[key]
    state = (drv.meter.snapshot(), drv.updates)
    for bad in (("R", (1, 2), 0), ("Q", (1, 2), 1), ("S", (1, 2, 3), 1)):
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
try:
    WorkloadSpec(skew="zipf:nan")
except ValueError:
    pass
else:
    raise SystemExit("accepted zipf:nan")
"""


def test_input_boundary_holds_under_optimize():
    # asserts are compiled out under -O; the input checks of on_update must not be
    src = Path(trimaint.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", BOUNDARY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert len(proc.stdout.splitlines()) == 5
