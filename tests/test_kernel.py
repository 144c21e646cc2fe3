"""The update path's bulk-metered reads against the method-based reads they
replace: `walk_probe` and `walk_sum` against `slice_items` + `lookup`
loops, and partition routing against definitions through `slice_count`,
`contains` and `lookup`. Results and metered ops must both agree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimaint.driver import Driver, make_engine
from trimaint.oracle import RefMaintainer
from trimaint.partition import strict_double, strict_single
from trimaint.store import CostMeter, Relation, walk_probe, walk_sum

IDX = ((0,), (1,))


def ref_walk_probe(walked, col, probed, sub, other, meter):
    """The loop the kernel replaces, charging per item as it goes."""
    out = []
    for rel in walked:
        for k, mw in rel.slice_items((col,), sub):
            w = k[1 - col]
            if not probed:
                out.append((w, mw))
                continue
            key = (w, other) if col == 0 else (other, w)
            mp = 0
            for p in probed:
                mp += p.lookup(key)
            if mp:
                meter.total += 1
                out.append((w, mw * mp))
    return out


def ref_walk_sum(walked, col, probed, sub, other, meter):
    """The loop `walk_sum` replaces: every walked tuple with `other` in
    place of `sub`, and the sum of the hits."""
    out, total = [], 0
    for rel in walked:
        for k, mw in rel.slice_items((col,), sub):
            w = k[1 - col]
            out.append(((other, w) if col == 0 else (w, other), mw))
            mp = 0
            for p in probed:
                mp += p.lookup((w, other) if col == 0 else (other, w))
            if mp:
                meter.total += 1
                total += mw * mp
    return out, total


def metered(meter, f, *args):
    t0 = meter.total
    res = f(*args)
    return res, meter.total - t0


def check_kernel(rels, meter, kernel, summed, walked, col, probed, subs):
    for sub in subs:
        for other in subs:
            got = metered(meter, kernel, sub, other)
            assert got == metered(meter, ref_walk_probe, walked, col, probed, sub, other, meter)
            if summed is not None:
                got = metered(meter, summed, sub, other)
                assert got == metered(meter, ref_walk_sum, walked, col, probed, sub, other, meter)


# a slice grows past COMPACT_FLOOR under sub 0 and then mostly drains, so
# slices are promoted from lists to dicts, compacted and demoted to lists
# again, and entries dicts rebuilt, all after the kernel was bound: a
# kernel must read the new slice object on every call
@settings(max_examples=60, deadline=None)
@given(nwalk=st.integers(1, 2), nprobe=st.sampled_from([0, 1, 2, 4]), col=st.sampled_from([0, 1]),
       ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 40),
                              st.integers(1, 3)), max_size=120),
       seed=st.integers(0, 2**16), keep=st.floats(0.0, 0.2))
def test_kernel_matches_slice_and_lookup_loop(nwalk, nprobe, col, ops, seed, keep):
    meter = CostMeter()
    rels = [Relation(f"P{i}", 2, IDX, meter) for i in range(6)]
    walked, probed = rels[:nwalk], rels[2:2 + nprobe]
    kernel = walk_probe(walked, col, probed, meter)
    # walk_sum probes a whole partition: two or four parts
    summed = walk_sum(walked, col, probed, meter) if nprobe >= 2 else None
    subs = range(3)

    def put(i, key, m):
        rels[i].apply_delta(key, m)

    # a hub under sub 0 in every part, on the walked column and as probe key
    for i in range(6):
        for w in range(30):
            put(i, (0, w) if col == 0 else (w, 0), 1)
            put(i, (w, 0) if col == 0 else (0, w), 1)
    for i, sub, w, m in ops:
        put(i, (sub, w) if col == 0 else (w, sub), m)
        put(i, (w, sub) if col == 0 else (sub, w), m)
    before = [r.entries for r in rels]
    check_kernel(rels, meter, kernel, summed, walked, col, probed, subs)

    # keeping at most a fifth of a dict's entries takes it below a quarter
    # of its high-water mark, so every entries dict is rebuilt
    rng = random.Random(seed)
    for r in rels:
        entries = list(r.entries.items())
        kept = set(rng.sample(range(len(entries)), int(keep * len(entries))))
        for i, (key, m) in enumerate(entries):
            if i not in kept:
                r.apply_delta(key, -m)
    assert all(r.entries is not b for r, b in zip(rels, before)), "entries were not rebuilt"
    check_kernel(rels, meter, kernel, summed, walked, col, probed, subs)
    for i, sub, w, m in ops[:20]:
        put(i, (sub, w) if col == 0 else (w, sub), m)
    check_kernel(rels, meter, kernel, summed, walked, col, probed, subs)
    for r in rels:
        r.check_consistency()


def test_kernel_refuses_what_it_cannot_walk():
    meter = CostMeter()
    a = Relation("A", 2, IDX, meter)
    with pytest.raises(ValueError):
        walk_probe([a, a, a], 0, [a], meter)
    with pytest.raises(ValueError):
        walk_probe([a], 0, [a, a, a], meter)
    linked = Relation("L", 2, IDX, meter, linked=((0,),))
    with pytest.raises(Exception, match="hash index"):
        walk_probe([linked], 0, [a], meter)


# -- partition routing: the method-based definitions ----------------------


def ref_single_degree(p, value):
    cols = (p.column("X"),)
    return p.parts["H"].slice_count(cols, value) + p.parts["L"].slice_count(cols, value)


def ref_single_affected(p, key, epsilon):
    if epsilon == 0:
        return "H"
    col = p.column("X")
    return "H" if p.parts["H"].contains((col,), key[col]) else "L"


def ref_single_violation(p, value, theta):
    cols = (p.column("X"),)
    deg = ref_single_degree(p, value)
    if p.parts["H"].contains(cols, value):
        if 2 * deg < theta:
            return "to_light"
    elif p.parts["L"].contains(cols, value):
        if 2 * deg >= 3 * theta:
            return "to_heavy"
    return None


def ref_total(p, key):
    return sum(p.parts[lab].lookup(key) for lab in p.labels)


def ref_size(p):
    return sum(len(p.parts[lab].entries) for lab in p.labels)


def double_sides(p, side):
    P, cols = p.parts, (p.column(side),)
    if side == "X":
        return cols, (P["HH"], P["HL"]), (P["LH"], P["LL"])
    return cols, (P["HH"], P["LH"]), (P["HL"], P["LL"])


def ref_double_degree(p, side, value):
    cols, heavy, light = double_sides(p, side)
    return sum(r.slice_count(cols, value) for r in heavy + light)


def ref_side_class(p, side, value):
    cols, (h1, h2), _ = double_sides(p, side)
    return "H" if h1.contains(cols, value) or h2.contains(cols, value) else "L"


def ref_double_affected(p, key, epsilon):
    if epsilon == 0:
        return "HH"
    return (ref_side_class(p, "X", key[p.column("X")])
            + ref_side_class(p, "Y", key[p.column("Y")]))


def ref_double_violation(p, side, value, theta):
    cols, (h1, h2), (l1, l2) = double_sides(p, side)
    deg = ref_double_degree(p, side, value)
    if h1.contains(cols, value) or h2.contains(cols, value):
        if 2 * deg < theta:
            return "to_light"
    elif l1.contains(cols, value) or l2.contains(cols, value):
        if 2 * deg >= 3 * theta:
            return "to_heavy"
    return None


ITEMS = st.lists(st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(1, 3)),
                 max_size=50)


# strict builds, then stray deltas into any part, so values may also sit
# on both sides of a split, as they never do between driver steps
@settings(max_examples=80, deadline=None)
@given(items=ITEMS, theta=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]),
       stray=st.lists(st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 6), st.integers(0, 6))),
                      max_size=15),
       double=st.booleans())
def test_routing_matches_method_based_reads(items, theta, stray, double):
    meter = CostMeter()
    build = strict_double if double else strict_single
    p = build(dict(items).items(), "X", meter, theta)
    for i, key in stray:
        p.parts[p.labels[i % len(p.labels)]].apply_delta(key, 1)
    assert p.size() == ref_size(p)
    for v in range(8):
        for key in ((v, 0), (0, v), (v, v), (v, 3)):
            assert metered(meter, p.total, key) == metered(meter, ref_total, p, key)
            for eps in (0, 0.5):
                ref = ref_double_affected if double else ref_single_affected
                assert metered(meter, p.affected_label, key, eps) == metered(meter, ref, p, key, eps)
        for side in (("X", "Y") if double else ("X",)):
            for th in (theta, 2 * theta, 0.5):
                got = metered(meter, p.violation, side, v, th)
                if double:
                    assert got == metered(meter, ref_double_violation, p, side, v, th)
                else:
                    assert got == metered(meter, ref_single_violation, p, v, th)


# deltas routed as the driver routes them keep each value on one side of
# every split; there an update's minor check must give the moves the
# audit's violation gives for the updated values, with the same ticks
@settings(max_examples=80, deadline=None)
@given(items=ITEMS, theta=st.sampled_from([1.5, 2.0, 3.0, 5.0]),
       deltas=st.lists(st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                 st.sampled_from([1, 2, -1])), max_size=15),
       double=st.booleans(), eps=st.sampled_from([0, 0.5]))
def test_minor_moves_match_violation(items, theta, deltas, double, eps):
    meter = CostMeter()
    build = strict_double if double else strict_single
    # at epsilon 0 theta is 1 and every value is heavy
    p = build(dict(items).items(), "X", meter, theta if eps else 1.0)
    sides = [(side, p.column(side)) for side in ("XY" if double else "X")]
    for key, m in deltas:
        label = p.affected_label(key, eps)
        if p.parts[label].entries.get(key, 0) + m < 0:
            continue
        p.parts[label].apply_delta(key, m)
        for th in (theta, 2 * theta, 0.5):
            got, ticks = metered(meter, p.minor_moves, key, label, th)
            want, want_ticks = [], 0
            for side, var in sides:
                d, t = metered(meter, p.violation, side, key[var], th)
                want_ticks += t
                if d is not None:
                    want.append((side, key[var], d))
            assert (got or ()) == tuple(want) and ticks == want_ticks
            assert got is None or got
    p.check_disjoint()


# -- compaction under bound kernels ---------------------------------------

VARIANTS = [("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)]
K = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}


@pytest.mark.parametrize("query,double", VARIANTS)
def test_compaction_under_bound_kernels(query, double):
    """R's light part drains below a quarter of its high-water mark while S
    and T keep |D| >= N/4, so no major rebuilds the parts the kernels were
    bound to; S and T updates that walk or probe R run in between. Then new
    triangles close through new R tuples, which only R's rebuilt dicts hold."""
    # every R value has degree 1 on both columns: R's tuples stay light
    rd = {(a, 1000 + a): 1 for a in range(40)}
    sd = {(b, c): 1 for b in range(40) for c in (0, 1)}
    td = {(c, a): 1 for c in (0, 1) for a in (0, 1, 2)}
    drv = Driver(make_engine(query, 0.5, double=double, rd=rd, sd=sd, td=td))
    ref = RefMaintainer(K[query])
    for rel, d in (("R", rd), ("S", sd), ("T", td)):
        for key, m in d.items():
            ref.apply(rel, key, m)
    R = drv.engine.parts["R"]
    light = R.part(R.labels[-1])
    before = light.entries

    def apply(rel, key, m):
        drv.on_update(rel, key, m)
        ref.apply(rel, key, m)
        assert drv.engine.query_result() == ref.result(), (rel, key, m)

    for a in range(35):
        apply("R", (a, 1000 + a), -1)
        apply("S", (1000 + a % 5, a % 2), 1)
        apply("T", (a % 2, a % 3), 1)
    assert drv.majors == 0 and drv.engine.parts["R"] is R
    assert light.entries is not before, "R's light part was not rebuilt"
    for j in range(6):
        apply("R", (200 + j, 300 + j), 1)
        apply("S", (300 + j, j % 2), 1)
        apply("T", (j % 2, 200 + j), 1)
        apply("T", (j % 2, 38), 1)
    assert drv.majors == 0 and all(light.contains((0,), 200 + j) for j in range(6))
    drv.check_invariants(deep=True)
