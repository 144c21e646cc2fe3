"""Acceptance gate for the whole package.

Every test here is seeded and deterministic. Cost assertions compare
CostMeter ratios across size doublings, never wall-clock time; the
tolerance bands are pinned in the asserts. The oracle-equivalence grid
checks the result after every single update, so it dominates the
module's runtime and keeps stream lengths moderate on purpose.
"""

import random
from math import isqrt

from conftest import Versioned, bucket_steps, build_worked_hop_example, started_buckets
from trimaint.cli import measure_delay, run_stream, solve_oumv, static_ternary
from trimaint.driver import Driver, make_engine
from trimaint.iterators import EOF, HopUnionIterator, SeqIterator, UnionIterator
from trimaint.oracle import RefMaintainer, oracle_oumv, oracle_triangle
from trimaint.store import CostMeter
from trimaint.workload import WorkloadSpec, make_sampler, stream

VARIANTS = [
    ("d0", False),
    ("d0", True),
    ("d1", False),
    ("d2", False),
    ("d3", False),
]
EPS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
K_OF = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}


def test_oracle_equivalence_after_every_update():
    # 25 grid cells x 8 streams = 200 seeded streams; exact equality is
    # checked after every update, invariants checked alongside
    lengths = (150, 175, 200, 225, 150, 175, 200, 600)
    domains = (8, 12, 16, 32)
    skews = ("uniform", "zipf:1.2", "uniform", "zipf:1.5")
    streams_run = 0
    cells = [(q, dbl, eps) for q, dbl in VARIANTS for eps in EPS_GRID]
    assert len(cells) == 25
    for ci, (query, double, eps) in enumerate(cells):
        for si in range(8):
            spec = WorkloadSpec(
                seed=1000 * ci + si,
                domain=domains[si % 4],
                updates=lengths[si],
                delete_frac=0.3,
                skew=skews[si % 4],
            )
            drv = Driver(make_engine(query, eps, double=double))
            ref = RefMaintainer(K_OF[query])
            for step, (rel, key, m) in enumerate(stream(spec)):
                drv.on_update(rel, key, m)
                ref.apply(rel, key, m)
                assert drv.engine.query_result() == ref.result(), (
                    query,
                    double,
                    eps,
                    spec.seed,
                    step,
                )
                drv.check_invariants(deep=(step % 100 == 99))
            streams_run += 1
    assert streams_run == 200


def test_amortized_insert_total_scaling():
    # epsilon 1/2, pure inserts, domain sqrt(n) so degrees grow with
    # size; total cost over n inserts must scale super-linearly but
    # no worse than the n^(3/2) band: ratio per 4x inside [4, 12]
    totals = {}
    for n in (2**10, 2**12, 2**14):
        spec = WorkloadSpec(
            seed=77,
            domain=max(8, isqrt(n)),
            updates=n,
            delete_frac=0.0,
            mult_lo=1,
            mult_hi=1,
        )
        drv = run_stream("d0", 0.5, stream(spec))
        assert drv.rejected == 0
        totals[n] = drv.meter.total
    r1 = totals[2**12] / totals[2**10]
    r2 = totals[2**14] / totals[2**12]
    assert 4.0 <= r1 <= 12.0, (totals, r1)
    assert 4.0 <= r2 <= 12.0, (totals, r2)


def test_star_per_update_cost_doubles():
    # epsilon 1: everything light, so updating the hub edge touches all
    # spokes. Probe cost minus the measured fixed overhead of an
    # unconnected probe must at least double per spoke doubling.
    drv = Driver(make_engine("d0", 1.0))
    spokes = 0
    residuals = []
    for band, n in enumerate((32, 64, 128, 256, 512, 1024)):
        while spokes < n:
            spokes += 1
            drv.on_update("R", (0, spokes), 1)
            drv.on_update("S", (spokes, 0), 1)
        majors = drv.majors
        off = (9000 + band, 9500 + band)
        base = drv.on_update("T", off, 1)
        drv.on_update("T", off, -1)
        cost = drv.on_update("T", (0, 0), 1)
        drv.on_update("T", (0, 0), -1)
        assert drv.majors == majors, "probe crossed a size threshold"
        residuals.append(cost - base)
    assert drv.minors == 0
    assert all(r > 0 for r in residuals), residuals
    for prev, cur in zip(residuals, residuals[1:]):
        assert cur >= 2 * prev, residuals


def zipf_db(seed, n, domain, skew):
    spec = WorkloadSpec(seed=seed, domain=domain, updates=1, skew=skew)
    sample = make_sampler(spec)
    sizes = {"R": n // 3, "S": n // 3, "T": n - 2 * (n // 3)}
    out = {}
    for rel, target in sizes.items():
        rng = random.Random(f"{seed}:{rel}")
        d = {}
        while len(d) < target:
            d[(sample(rng), sample(rng))] = 1
        out[rel] = d
    return out["R"], out["S"], out["T"]


def test_enumeration_delay_scaling():
    # max metered gap between emissions, ends included; d0/d3 stay flat,
    # d2 and d1 may grow like sqrt per 4x size (band 2 * 1.5 = 3)
    sizes = (2**10, 2**12, 2**14)
    delays = {q: [] for q in ("d0", "d1", "d2", "d3")}
    for n in sizes:
        rd, sd, td = zipf_db(5, n, n, "zipf:1.1")
        for query, eps in (("d0", 0.5), ("d2", 0.5), ("d3", 0.5), ("d1", 0.25)):
            eng = make_engine(query, eps, rd=rd, sd=sd, td=td)
            delays[query].append(measure_delay(eng))
    for q in ("d0", "d3"):
        a, b, c = delays[q]
        assert b <= 1.2 * a and c <= 1.2 * b, (q, delays[q])
    for q in ("d2", "d1"):
        a, b, c = delays[q]
        assert b <= 3.0 * a and c <= 3.0 * b, (q, delays[q])


def test_rebalance_transparency_hundred_runs():
    events = [0]
    for run in range(100):
        query, double = VARIANTS[run % 5]
        eps = EPS_GRID[(run // 5) % 5]
        drv = Driver(make_engine(query, eps, double=double))
        stack = []

        def obs(event, d):
            if event.endswith(":before"):
                stack.append(d.engine.query_result())
            else:
                assert d.engine.query_result() == stack.pop()
                events[0] += 1

        drv.observers.append(obs)
        spec = WorkloadSpec(seed=3000 + run, domain=6, updates=120, delete_frac=0.3)
        for rel, key, m in stream(spec):
            drv.on_update(rel, key, m)
        assert not stack
        drv.check_invariants()
    assert events[0] >= 100


def test_oumv_round_outputs_match_oracle():
    rng = random.Random(4242)
    sizes = (2, 3, 4, 4, 6, 8, 8, 12, 16, 16, 24, 32)
    for idx in range(50):
        n = sizes[idx % len(sizes)]
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        matrix = [
            [1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)
        ]
        rounds = [
            (
                tuple(rng.randint(0, 1) for _ in range(n)),
                tuple(rng.randint(0, 1) for _ in range(n)),
            )
            for _ in range(n)
        ]
        bits, _ = solve_oumv(matrix, rounds)
        assert bits == [oracle_oumv(matrix, u, v) for u, v in rounds], (idx, n)


def test_oumv_counter_budget_advisory():
    # sanity snapshot at n=64: subcubic in counter units at this scale;
    # reported, not asserted as a bound
    rng = random.Random(64)
    n = 64
    matrix = [[1 if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
    rounds = [
        (
            tuple(rng.randint(0, 1) for _ in range(n)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        for _ in range(n)
    ]
    bits, drv = solve_oumv(matrix, rounds)
    assert bits == [oracle_oumv(matrix, u, v) for u, v in rounds]
    total = drv.meter.total
    print(f"oumv n=64 total={total} cubic budget={n**3} within={total < n**3}")


def test_static_ternary_scaling_and_preclassified():
    totals = {}
    for n in (2**10, 2**12):
        rd, sd, td = zipf_db(9, n, 2 * isqrt(n), "uniform")
        want = oracle_triangle(rd, sd, td, 3)
        plain = static_ternary(rd, sd, td, False)
        assert plain.engine.query_result() == want
        totals[n] = plain.meter.total
        pre = static_ternary(rd, sd, td, True)
        assert pre.engine.query_result() == want
        assert pre.meter.phases["major"] == 0
        assert pre.meter.phases["minor"] == 0
    ratio = totals[2**12] / totals[2**10]
    assert ratio <= 12.0, (totals, ratio)


def drain(next_fn, limit=100_000):
    out = []
    for _ in range(limit):
        t = next_fn()
        if t is EOF:
            return out
        out.append(t)
    raise AssertionError("iterator did not terminate")


def test_union_primitives_random_families():
    rng = random.Random(99)
    for _ in range(500):
        sets = [
            rng.sample(range(30), rng.randint(0, 6))
            for _ in range(rng.randint(1, 6))
        ]
        union = UnionIterator([SeqIterator(s) for s in sets], CostMeter(), Versioned())
        got = drain(union.next)
        want = set().union(*map(set, sets))
        assert set(got) == want and len(got) == len(want), sets
    for _ in range(500):
        orders = {}
        for b in range(rng.randint(1, 5)):
            orders[f"b{b}"] = rng.sample(range(25), rng.randint(1, 7))
        members = {}
        for key, vals in orders.items():
            for v in vals:
                members.setdefault(v, []).append(key)
        it = HopUnionIterator(
            sorted(orders),
            *bucket_steps(orders),
            lambda t: members[t],
            CostMeter(),
            )
        got = drain(it.next)
        want = set(members)
        assert set(got) == want and len(got) == len(want), orders


def test_worked_hop_example_skips_exhausted_bucket():
    it = build_worked_hop_example()
    started = started_buckets(it)
    assert drain(it.next) == [1, 2, 3, 4, 5, 6]
    assert "a3" not in started
