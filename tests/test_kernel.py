"""Bulk-metered and bound reads and writes against the method-based ones
they replace: the update steps `walk_probe`, `walk_close` and
`lookup_close` against `slice_items` + `lookup` loops whose hits are
written through `Relation.apply_delta`, partition routing against
definitions through `slice_count` (a positive count is membership) and
`lookup`, and enumeration's read kernels, `walk_slice` and a hop union's
`Bucket`, against a drained `slice_items` and a bucket built on
`slice_head`, `slice_next` and `lookup`. Results, views and metered ops
must all agree. A `walk_probe` step walks the shorter side, so its
reference walks the same side. A probed group or a tree's third is read
through getters: one per part of one or two, or, for four parts, as a
double partition's totals map is read, one of a `Relation` holding the
parts' sum."""

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimaint.driver import Driver, make_engine
from trimaint.fragments import Bucket, projector
from trimaint.oracle import RefMaintainer
from trimaint.partition import strict_double, strict_single
from trimaint.store import (COMPACT_FLOOR, CostMeter, Relation, lookup_close, walk_close,
                            walk_probe, walk_slice)
from trimaint.workload import WorkloadSpec, stream

IDX = ((0,), (1,))
RES_KEY = itemgetter(0, 2)  # (u0, u1, w) -> a direct step's result key
TOP_KEY = itemgetter(1, 0)  # hat key -> top key


def ref_hits(walked, col, sub, probed, other):
    """[(w, mw * mp)] for each tuple of the walked parts under sub on col
    whose multiplicity mp summed over the probed parts at the rotated pair
    is nonzero; read unmetered."""
    out = []
    for rel in walked:
        for k, mw in rel.entries.items():
            if k[col] == sub:
                w = k[1 - col]
                mp = sum(p.entries.get((w, other) if col == 0 else (other, w), 0) for p in probed)
                if mp:
                    out.append((w, mw * mp))
    return out


def ref_walk_probe(walked, col, probed, reads, sub, other, meter):
    """The hits of the shorter walk, in its order, and its charge: one tick
    per slice length read, then, if neither side is empty, the cheaper
    side's walk (ties to the walked side) and one per hit of that walk.
    A walk of the walked side probes the Relations `reads`, a tick each."""
    nw = sum(rel.slice_count((col,), sub) for rel in walked)
    np = sum(p.slice_count((1 - col,), other) for p in probed)
    if not (nw and np):
        return []
    if nw * (1 + len(reads)) <= np * (1 + len(walked)):
        hits = ref_hits(walked, col, sub, reads, other)
        meter.total += nw * (1 + len(reads)) + len(hits)
    else:
        hits = ref_hits(probed, 1 - col, other, walked, sub)
        meter.total += np * (1 + len(walked)) + len(hits)
    return hits


def summed(hits):
    """Hits summed per w: where parts overlap, which they never do within
    a partition, the walk on the probed side yields a w once per part."""
    out = {}
    for w, d in hits:
        out[w] = out.get(w, 0) + d
    return out


def ref_walk_close(walked, col, third, sub, other, meter):
    """The loop `walk_close` replaces: every walked tuple with `other` in
    place of `sub`, its multiplicity and the total of the third's Relations
    at the rotated pair, a `lookup` each, one combine charged per nonzero
    total."""
    out = []
    for rel in walked:
        for k, mw in rel.slice_items((col,), sub):
            w = k[1 - col]
            tm = 0
            for p in third:
                tm += p.lookup((w, other) if col == 0 else (other, w))
            if tm:
                meter.total += 1
            out.append(((other, w) if col == 0 else (w, other), mw, tm))
    return out


def ref_step(kind, walked, col, probed, reads, meter, views):
    """The update step of `kind` as the reference loops' hits written one
    by one through `apply_delta` (see `bind_step`)."""
    def step(u0, u1, m):
        sub, other = (u1, u0) if col == 0 else (u0, u1)
        if kind in ("direct", "sum"):
            hits = ref_walk_probe(walked, col, probed, reads, sub, other, meter)
            if kind == "sum":
                return m * sum(d for _, d in hits)
            for w, d in hits:
                views["res"].apply_delta(RES_KEY((u0, u1, w)), m * d)
            return 0
        s = 0
        for hk, mw, tm in ref_walk_close(walked, col, reads, sub, other, meter):
            d = m * mw
            if kind == "pair":
                views["pair"].apply_delta((hk[0], sub, hk[1]), d)
            views["hat"].apply_delta(hk, d)
            if tm:
                if kind == "count":
                    s += d * tm
                else:
                    views["top"].apply_delta(TOP_KEY(hk), d * tm)
        return s
    return step


def ref_close(kind, views):
    """A close step as a `lookup` of the hat and an `apply_delta`."""
    def close(u0, u1, m):
        v = views["hat"].lookup((u1, u0))
        if kind == "count":
            return m * v
        if v:
            views["top"].apply_delta(TOP_KEY((u1, u0)), m * v)
        return 0
    return close


def getters(rels):
    """The Relations' `entries.get`, what a kernel reads them through."""
    return tuple(r.entries.get for r in rels)


def bind_step(kind, walked, col, probed, reads, meter, views):
    """The bound step of `kind`: a direct fragment into `res` ("direct") or
    summed ("sum"), or a view tree with a pair view ("pair"), without one
    ("top") or into a count ("count"). A probe or a close reads the
    Relations `reads` through their getters."""
    gets = getters(reads)
    if kind in ("direct", "sum"):
        res = (views["res"], RES_KEY) if kind == "direct" else (None, None)
        return walk_probe(walked, col, probed, gets, meter, *res)
    hat = views["hat"]
    if kind == "count":
        return walk_close(walked, col, gets, meter, hat)
    return walk_close(walked, col, gets, meter, hat, views["pair"] if kind == "pair" else None,
                      views["top"], TOP_KEY)


class Spy(Relation):
    """A view that counts its `apply_delta` calls that only overwrite a
    value, which a bound step makes in place."""

    overwrites = 0

    def apply_delta(self, key, m):
        old = self.entries.get(key, 0)
        new = super().apply_delta(key, m)
        if old and new:
            self.overwrites += 1
        return new


def fresh_views(meter):
    """Views of every write shape: hash and linked indexes, on one column
    and on two, and an unindexed hat, as the engines declare them."""
    return {"res": Spy("res", 2, IDX, meter, linked=((1,),)),
            "pair": Spy("pair", 3, ((0, 2), (1,)), meter, linked=((0, 2),)),
            "hat": Spy("hat", 2, (), meter),
            "top": Spy("top", 2, ((0,),), meter, linked=((0,),))}


def layout(rel):
    """Everything a write can move: the entries in order, the high-water
    marks, and each index's slices in order with their kind and mark."""
    out = [list(rel.entries.items()), rel._hwm, list(rel._map_hwm)]
    for _, slices, marks, nodes, _ in rel._indexes:
        for sub, s in slices.items():
            if nodes is None:
                out.append((sub, s.__class__, list(s), marks.get(sub)))
                continue
            keys, node = [], s.head
            while node is not None:
                keys.append(node.key)
                node = node.nxt
            out.append((sub, keys))
    return out


def metered(meter, f, *args):
    t0 = meter.total
    res = f(*args)
    return res, meter.total - t0


def on(col, sub, other):
    """The update key (u0, u1) whose step slices column `col` at sub."""
    return (other, sub) if col == 0 else (sub, other)


def check_step(meter, step, ref, got, want, u0, u1, m):
    """One call of the bound step and of its reference, each on its own
    views: equal returns, charges and view layouts."""
    assert metered(meter, step, u0, u1, m) == metered(meter, ref, u0, u1, m), (u0, u1, m)
    for name in got:
        assert layout(got[name]) == layout(want[name]), (name, u0, u1, m)


def hub_parts(meter, col, rng):
    """Parts sharing a hub: 30 tuples under 0 on the walked column and as
    probe keys in every part, and random tuples beside it."""
    parts = [Relation(f"P{i}", 2, IDX, meter) for i in range(6)]
    for p in parts:
        for w in range(30):
            p.apply_delta((0, w) if col == 0 else (w, 0), 1)
            p.apply_delta((w, 0) if col == 0 else (0, w), 1)
        for _ in range(rng.randrange(12)):
            p.apply_delta((rng.randrange(4), rng.randrange(4)), rng.randint(1, 3))
    return parts


def sum_of(parts, meter):
    """One Relation holding the parts' sum: a double partition's totals."""
    total = Relation("T", 2, IDX, meter)
    for p in parts:
        for key, m in p.entries.items():
            total.apply_delta(key, m)
    return total


def probe_shape(nprobe, parts, total):
    """(probed parts, the Relations a probe or a close reads): one or two
    parts read one by one, or four, a double partition's, read through
    `total`, their sum."""
    if nprobe == 4:
        return parts[2:6], [total]
    probed = parts[2:2 + nprobe]
    return probed, probed


# a direct step probes one, two or four parts; a tree's third is a single
# partition's two parts or a double partition's four
KINDS = [("direct", (1, 2, 4)), ("sum", (1, 2, 4)), ("pair", (2, 4)), ("top", (2, 4)),
         ("count", (2, 4))]
SHAPES = [(kind, nwalk, nprobe) for kind, probes in KINDS for nwalk in (1, 2) for nprobe in probes]


@pytest.mark.parametrize("col", [0, 1])
@pytest.mark.parametrize("kind,nwalk,nprobe", SHAPES)
def test_bound_steps_write_as_the_reference_loop(kind, nwalk, nprobe, col):
    # each update call is made again, so values stored before and after a
    # write are overwritten in place; then every call is undone in a random
    # order, so keys vanish and the hub's views fall below a quarter of
    # their marks and are compacted; a close step runs between, on the
    # filled hat
    for seed in range(6):
        rng = random.Random(seed)
        meter = CostMeter()
        parts = hub_parts(meter, col, rng)
        walked = parts[:nwalk]
        probed, reads = probe_shape(nprobe, parts, sum_of(parts[2:6], meter))
        got, want = fresh_views(meter), fresh_views(meter)
        step, ref = (bind_step(kind, walked, col, probed, reads, meter, got),
                     ref_step(kind, walked, col, probed, reads, meter, want))
        calls = [(0, 0, 1)] + [(rng.randrange(5), rng.randrange(5), rng.randint(1, 3))
                               for _ in range(8)]
        calls += [(u0, u1, m + 1) for u0, u1, m in calls]
        for call in calls:
            check_step(meter, step, ref, got, want, *call)
        peak = {name: len(v) for name, v in got.items()}
        if kind in ("pair", "top", "count"):
            close = (lookup_close(got["hat"], meter) if kind == "count" else
                     lookup_close(got["hat"], meter, got["top"], TOP_KEY))
            hks = list(got["hat"].entries) + [(-1, -1)]
            closes = [(hk[1], hk[0], rng.randint(1, 3)) for hk in rng.sample(hks, min(6, len(hks)))]
            closes += [(u0, u1, m + 1) for u0, u1, m in closes]
            for call in closes + [(u0, u1, -m) for u0, u1, m in rng.sample(closes, len(closes))]:
                check_step(meter, close, ref_close(kind, want), got, want, *call)
        for u0, u1, m in rng.sample(calls, len(calls)):
            check_step(meter, step, ref, got, want, u0, u1, -m)
        for name, view in got.items():
            assert len(view) == 0, name
            view.check_consistency()
            want[name].check_consistency()
            # nothing but a key that appears or vanishes reaches apply_delta
            assert view.overwrites == 0, name
        if kind != "sum":
            # the reference overwrote values, and the hub's views were compacted
            assert sum(v.overwrites for v in want.values()) > 0
            assert any(view._hwm < peak[name] for name, view in got.items()
                       if peak[name] > COMPACT_FLOOR)


def bound_kinds(meter, walked, col, nprobe, parts, total):
    """Every kind of step over these parts, each with its reference, bound
    with their own views before the parts are filled."""
    out = []
    probed, reads = probe_shape(nprobe, parts, total)
    for kind, probes in KINDS:
        if nprobe in probes:
            got, want = fresh_views(meter), fresh_views(meter)
            out.append((bind_step(kind, walked, col, probed, reads, meter, got),
                        ref_step(kind, walked, col, probed, reads, meter, want), got, want))
    return out


def check_kernel(meter, kinds, col, subs):
    """Each bound step against its reference at every (sub, other), each
    call undone at once so the views end empty and serve the next check."""
    for step, ref, got, want in kinds:
        for sub in subs:
            for other in subs:
                for m in (2, -2):
                    check_step(meter, step, ref, got, want, *on(col, sub, other), m)
        assert all(len(v) == 0 for v in got.values())


# a slice grows past COMPACT_FLOOR under sub 0 and then mostly drains, so
# slices are promoted from lists to dicts, compacted and demoted to lists
# again, and entries dicts rebuilt in place, all after the steps were
# bound: a step must read the new slice object on every call
@settings(max_examples=60, deadline=None)
@given(nwalk=st.integers(1, 2), nprobe=st.sampled_from([1, 2, 4]), col=st.sampled_from([0, 1]),
       ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 40),
                              st.integers(1, 3)), max_size=120),
       seed=st.integers(0, 2**16), keep=st.floats(0.0, 0.2))
def test_kernel_matches_slice_and_lookup_loop(nwalk, nprobe, col, ops, seed, keep):
    meter = CostMeter()
    rels = [Relation(f"P{i}", 2, IDX, meter) for i in range(6)]
    # the sum of parts 2 to 5, kept as every write to them lands
    total = Relation("T", 2, IDX, meter)
    walked = rels[:nwalk]
    kinds = bound_kinds(meter, walked, col, nprobe, rels, total)
    subs = range(3)

    def put(i, key, m):
        rels[i].apply_delta(key, m)
        if 2 <= i < 6:
            total.apply_delta(key, m)

    # a hub under sub 0 in every part, on the walked column and as probe key
    for i in range(6):
        for w in range(30):
            put(i, (0, w) if col == 0 else (w, 0), 1)
            put(i, (w, 0) if col == 0 else (0, w), 1)
    for i, sub, w, m in ops:
        put(i, (sub, w) if col == 0 else (w, sub), m)
        put(i, (w, sub) if col == 0 else (sub, w), m)
    before = [r._hwm for r in rels]
    check_kernel(meter, kinds, col, subs)

    # keeping at most a fifth of a dict's entries takes it below a quarter
    # of its high-water mark, so every entries dict is rebuilt
    rng = random.Random(seed)
    for j, r in enumerate(rels):
        entries = list(r.entries.items())
        kept = set(rng.sample(range(len(entries)), int(keep * len(entries))))
        for i, (key, m) in enumerate(entries):
            if i not in kept:
                put(j, key, -m)
    # a rebuild keeps the dict object and lowers its mark to its length
    assert all(r._hwm < b for r, b in zip(rels, before)), "entries were not rebuilt"
    check_kernel(meter, kinds, col, subs)
    for i, sub, w, m in ops[:20]:
        put(i, (sub, w) if col == 0 else (w, sub), m)
    check_kernel(meter, kinds, col, subs)
    for r in rels + [total]:
        r.check_consistency()


W_KEY = itemgetter(slice(2, 3))  # (u0, u1, w) -> (w,)


@pytest.mark.parametrize("nprobe", [1, 2, 4])
@pytest.mark.parametrize("nwalk", [1, 2])
@pytest.mark.parametrize("col", [0, 1])
def test_kernel_walks_the_shorter_side(col, nwalk, nprobe):
    # a hub of 20 tuples under sub 0 in the first walked part, a dict
    # slice, and 3 more in the second; the probed side at other 0 holds
    # one hit and one miss per probed part, and nothing at other 7
    meter = CostMeter()
    walked = [Relation(f"W{i}", 2, IDX, meter) for i in range(nwalk)]
    probed = [Relation(f"P{i}", 2, IDX, meter) for i in range(nprobe)]

    def put(rel, c, v, w):
        # the tuple with v in column c and w in the other
        rel.apply_delta((v, w) if c == 0 else (w, v), 1)

    for w in range(20):
        put(walked[0], col, 0, w)
    for w in range(20, 20 + 3 * (nwalk - 1)):
        put(walked[1], col, 0, w)
    want = {}
    for i, p in enumerate(probed):
        put(p, 1 - col, 0, i)  # w = i: a hit in the hub
        put(p, 1 - col, 0, 100 + i)  # no walked tuple binds 100 + i
        want[(i,)] = 1
    if nwalk == 2:
        put(probed[0], 1 - col, 0, 21)
        want[(21,)] = 1
    assert walked[0].hash_slices((col,))[0].__class__ is dict
    # the hits keyed by w, in an unindexed view: one tick per insert
    view = Relation("V", 1, (), meter)
    # four probed parts are read through their sum, as a double partition's
    reads = [sum_of(probed, meter)] if nprobe == 4 else probed
    step = walk_probe(walked, col, probed, getters(reads), meter, view, W_KEY)
    fixed = nwalk + nprobe
    nw, np = 20 + 3 * (nwalk - 1), 2 * nprobe + (nwalk == 2)
    # the probed side is the cheaper walk: one tick per slice length, its
    # tuples at 1 + #walked each, one per hit, and the writes
    assert np * (1 + nwalk) < nw * (1 + len(reads))
    assert metered(meter, step, *on(col, 0, 0), 1) == (0, fixed + np * (1 + nwalk) + 2 * len(want))
    assert view.entries == want
    assert summed(ref_walk_probe(walked, col, probed, reads, 0, 0, meter)) == {
        w: d for (w,), d in want.items()}
    # an empty probed side: the lengths alone, whatever the hub holds
    assert metered(meter, step, *on(col, 0, 7), 1) == (0, fixed)
    # and an empty walked side
    assert metered(meter, step, *on(col, 5, 0), 1) == (0, fixed)
    assert view.entries == want


@pytest.mark.parametrize("nparts", [1, 2])
@pytest.mark.parametrize("col", [0, 1])
def test_kernel_ties_walk_the_walked_side(col, nparts):
    # three tuples a side, in a different order on each: at equal cost the
    # hits are written in the walked side's order
    meter = CostMeter()
    walked = [Relation(f"W{i}", 2, IDX, meter) for i in range(nparts)]
    probed = [Relation(f"P{i}", 2, IDX, meter) for i in range(nparts)]
    for i, w in enumerate((3, 1, 2)):
        walked[i // 2 if nparts == 2 else 0].apply_delta((0, w) if col == 0 else (w, 0), 1)
    for i, w in enumerate((2, 3, 1)):
        probed[i // 2 if nparts == 2 else 0].apply_delta((w, 0) if col == 0 else (0, w), 1)
    view = Relation("V", 1, (), meter)
    step = walk_probe(walked, col, probed, getters(probed), meter, view, W_KEY)
    _, ops = metered(meter, step, *on(col, 0, 0), 1)
    assert list(view.entries.items()) == [((3,), 1), ((1,), 1), ((2,), 1)]
    assert ops == 2 * nparts + 3 * (1 + nparts) + 3 + 3


def test_kernel_refuses_what_it_cannot_walk():
    meter = CostMeter()
    a = Relation("A", 2, IDX, meter)
    for walked, probed in (([a, a, a], [a]), ([a], [a, a, a]), ([a], [])):
        with pytest.raises(ValueError):
            walk_probe(walked, 0, probed, getters(probed), meter)
    # four probed parts are read through one getter of their sum, two
    # through theirs or their sum's
    for nprobe, ngets in ((4, 0), (4, 2), (4, 4), (2, 3), (1, 2)):
        with pytest.raises(ValueError):
            walk_probe([a], 0, [a] * nprobe, (a.entries.get,) * ngets, meter)
    # a third is one getter (a double partition's totals) or two (a single
    # partition's parts), never its four parts
    for nthird in (0, 3, 4):
        with pytest.raises(ValueError):
            walk_close([a], 0, (a.entries.get,) * nthird, meter, a)
    linked = Relation("L", 2, IDX, meter, linked=((0,),))
    with pytest.raises(Exception, match="hash index"):
        walk_probe([linked], 0, [a], getters([a]), meter)


# -- partition routing: the method-based definitions ----------------------


def ref_single_degree(p, value):
    cols = (p.column("X"),)
    return p.parts["H"].slice_count(cols, value) + p.parts["L"].slice_count(cols, value)


def ref_single_affected(p, key, epsilon):
    if epsilon == 0:
        return "H"
    col = p.column("X")
    return "H" if p.parts["H"].slice_count((col,), key[col]) > 0 else "L"


def ref_single_violation(p, value, theta):
    cols = (p.column("X"),)
    deg = ref_single_degree(p, value)
    if p.parts["H"].slice_count(cols, value) > 0:
        if 2 * deg < theta:
            return "to_light"
    elif p.parts["L"].slice_count(cols, value) > 0:
        if 2 * deg >= 3 * theta:
            return "to_heavy"
    return None


def ref_total(p, key):
    """The parts' sum at key, charged a `lookup` per part of a single
    partition and one, of its totals, for a double one."""
    p.meter.total += 1 if len(p.labels) == 4 else 2
    return sum(p.parts[lab].entries.get(key, 0) for lab in p.labels)


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
    return "H" if h1.slice_count(cols, value) > 0 or h2.slice_count(cols, value) > 0 else "L"


def ref_double_affected(p, key, epsilon):
    if epsilon == 0:
        return "HH"
    return (ref_side_class(p, "X", key[p.column("X")])
            + ref_side_class(p, "Y", key[p.column("Y")]))


def ref_double_violation(p, side, value, theta):
    cols, (h1, h2), (l1, l2) = double_sides(p, side)
    deg = ref_double_degree(p, side, value)
    if h1.slice_count(cols, value) > 0 or h2.slice_count(cols, value) > 0:
        if 2 * deg < theta:
            return "to_light"
    elif l1.slice_count(cols, value) > 0 or l2.slice_count(cols, value) > 0:
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
        if double:
            # a stray key can sit in two parts: its total is their sum
            p.totals[key] = p.totals.get(key, 0) + 1
    p.check_totals()
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
    before = light._hwm

    def apply(rel, key, m):
        drv.on_update(rel, key, m)
        ref.apply(rel, key, m)
        assert drv.engine.query_result() == ref.result(), (rel, key, m)

    for a in range(35):
        apply("R", (a, 1000 + a), -1)
        apply("S", (1000 + a % 5, a % 2), 1)
        apply("T", (a % 2, a % 3), 1)
    assert drv.majors == 0 and drv.engine.parts["R"] is R
    assert light._hwm < before, "R's light part was not rebuilt"
    for j in range(6):
        apply("R", (200 + j, 300 + j), 1)
        apply("S", (300 + j, j % 2), 1)
        apply("T", (j % 2, 200 + j), 1)
        apply("T", (j % 2, 38), 1)
    assert drv.majors == 0 and all(light.slice_count((0,), 200 + j) > 0 for j in range(6))
    drv.check_invariants(deep=True)


# -- enumeration's read kernels -------------------------------------------


def drained(rel, cols, sub):
    """What `walk_slice` replaces: `slice_items` drained into a list."""
    return list(rel.slice_items(cols, sub))


# a hub under 0 grows past COMPACT_FLOOR and drains, promoting, compacting
# and demoting its slice, and the entries dict is rebuilt, all after the
# kernels were bound: each must read the current slice on every call
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 3),
                              st.integers(-2, 3).filter(bool)), max_size=150),
       keep=st.floats(0.0, 0.3), seed=st.integers(0, 2**16))
def test_walk_slice_matches_drained_slice_items(ops, keep, seed):
    meter = CostMeter()
    cols_list = ((0,), (0, 2), (1,))
    rel = Relation("V", 3, cols_list, meter, linked=((1,),))
    walks = {cols: walk_slice(rel, cols, meter) for cols in cols_list[:2]}
    subs = {(0,): range(5), (0, 2): [(a, c) for a in range(5) for c in range(5)]}

    def check():
        for cols, walk in walks.items():
            for sub in subs[cols]:
                got, ops = metered(meter, walk, sub)
                assert (list(got), ops) == metered(meter, drained, rel, cols, sub)

    for w in range(30):
        rel.apply_delta((0, w, w % 3), 1)
    check()
    for a, w, c, m in ops:
        if rel.entries.get((a, w, c), 0) + m >= 0:
            rel.apply_delta((a, w, c), m)
    check()
    rng = random.Random(seed)
    for key, m in list(rel.entries.items()):
        if rng.random() >= keep:
            rel.apply_delta(key, -m)
    check()
    for a, w, c, m in ops[:30]:
        if m > 0:
            rel.apply_delta((a, w, c), m)
    check()
    rel.check_consistency()
    with pytest.raises(Exception, match="hash index"):
        walk_slice(rel, (1,), meter)


class RefBucket:
    """A hop union's bucket read through `slice_head`, `slice_next` and
    `lookup`, one tick each: what a bound `Bucket` replaces."""

    def __init__(self, pair, top, key, idx, keys):
        self._pair, self._top, self._key, self._idx = pair, top, key, idx
        self._hat, self._pk, self._ck, self._elem = keys

    def _head(self, ck):
        if ck is None:
            return None
        return self._elem(self._pair.slice_head((0, 2), self._hat(ck)))

    def first(self):
        if self._idx is None:
            return self._head(self._key)
        return self._head(self._top.slice_head(self._idx, self._key[0]))

    def successor(self, x):
        full = x + self._key
        nk = self._pair.slice_next((0, 2), self._pk(full))
        if nk is not None:
            return self._elem(nk)
        if self._idx is None:
            return None
        return self._head(self._top.slice_next(self._idx, self._ck(full)))

    def contains(self, x):
        full = x + self._key
        if self._idx is not None and not self._top.lookup(self._ck(full)):
            return False
        return self._pair.lookup(self._pk(full)) != 0


def ref_candidates(eng, t, x):
    """Bucket keys of pair tree t at x, and the walk's entries, through
    `slice_items`: a tick per entry walked and one per bucket tested."""
    cols = eng._hops[t][0]
    top = getattr(eng, t.top)
    entries = drained(getattr(eng, t.pair), cols, x[0] if len(x) == 1 else x)
    eng.meter.total += len(entries)
    if t.root_idx is None:
        keys = [projector(t.xyz, t.key)(pk) for pk, _ in entries]
        return [k for k in keys if k in top.entries]
    keys = [projector(t.xyz, t.root_key)(pk) for pk, _ in entries]
    return [k for k in keys if k[0] in top.linked_slices(t.root_idx)]


def ref_multiplicity(eng, x):
    """x's value in `res` through `lookup`, plus each pair entry at x
    walked through `slice_items` and closed through `Partition.total`."""
    v = eng.res.lookup(x)
    for t in eng._hops:
        cols = eng._hops[t][0]
        for pk, pv in drained(getattr(eng, t.pair), cols, x[0] if len(x) == 1 else x):
            tm = eng.parts[t.third].total(t.third_of(pk))
            if tm:
                eng.meter.total += 1
                v += pv * tm
    return v


def skewed_states(query):
    """A driver after each hundredth update of a skewed stream with deletes,
    which fills every pair tree of d1 and d2 and empties some buckets."""
    drv = Driver(make_engine(query, 0.25))
    spec = WorkloadSpec(seed=11, domain=20, updates=1600, delete_frac=0.3, skew="zipf:1.1")
    for i, upd in enumerate(stream(spec)):
        drv.on_update(*upd)
        if i % 100 == 99:
            yield drv


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_bound_buckets_match_method_based_reads(query):
    seen = 0
    for drv in skewed_states(query):
        eng, meter = drv.engine, drv.meter
        # the layouts may have been bound many updates ago
        hops = (eng._enum or eng._bind_enumeration())[0]
        for t, (_, rooted, layout, _) in hops.items():
            pair, top, keys = getattr(eng, t.pair), getattr(eng, t.top), eng._hops[t][2]
            buckets = [(r,) for r in top.linked_slices(t.root_idx)] if rooted else list(top.entries)
            elems = {keys[3](pk) for pk in pair.entries} | {(-1,) * len(eng.out)}
            # a root with no top slice is an empty bucket
            for k in buckets + [(-1,)] * rooted:
                got, ref = Bucket(layout, k), RefBucket(pair, top, k, t.root_idx, keys)
                x, ops = metered(meter, got.first)
                assert (x, ops) == metered(meter, ref.first), (t.pair, k)
                while x is not None:
                    seen += 1
                    y, ops = metered(meter, got.successor, x)
                    assert (y, ops) == metered(meter, ref.successor, x), (t.pair, k, x)
                    x = y
                for x in elems:
                    assert metered(meter, got.contains, x) == metered(meter, ref.contains, x)
    assert seen > 100


@pytest.mark.parametrize("query", ["d1", "d2"])
def test_bound_candidates_and_multiplicity_match_method_based_reads(query):
    seen = 0
    for drv in skewed_states(query):
        eng, meter = drv.engine, drv.meter
        outs = {projector(t.xyz, eng.out)(pk) for t in eng._hops
                for pk in getattr(eng, t.pair).entries}
        for x in outs | set(eng.res.entries) | {(-1,) * len(eng.out)}:
            sub = x[0] if len(x) == 1 else x
            # a new version: no tree's kept walk serves x
            eng.version += 1
            assert metered(meter, eng.multiplicity, x) == metered(meter, ref_multiplicity, eng, x)
            eng.version += 1
            walked = 0
            for t in eng._hops:
                keys, ops = metered(meter, eng.candidate_buckets, t, x)
                assert (keys, ops) == metered(meter, ref_candidates, eng, t, x)
                # a repeated probe at x reads the kept walk, at no tick
                assert metered(meter, eng.candidate_buckets, t, x) == (keys, 0)
                walked += 1 + getattr(eng, t.pair).slice_count(eng._hops[t][0], sub)
                seen += len(keys)
            # so does multiplicity: the same value, less the walks' ticks
            v, ops = metered(meter, eng.multiplicity, x)
            assert (v, ops + walked) == metered(meter, ref_multiplicity, eng, x)
    assert seen > 100
