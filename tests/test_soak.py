"""Soak: every variant grows to 2**14 distinct tuples and shrinks to empty.

Zipf values on a domain of 2048 give heavy values whose degrees cross the
loose bounds between majors, so minors run; the growth passes every
doubling major, the deletes every halving one (the empty state needs
N < 4) and the dict compaction of the shrinking parts and views. After
every major the kept |D| must match the parts and sit inside the size
invariant; at the end every part and view is empty.
"""

import random
from functools import lru_cache

import pytest

from trimaint.driver import Driver, make_engine
from trimaint.store import Relation
from trimaint.workload import RELS, WorkloadSpec, make_sampler

SIZE = 2**14
VARIANTS = [("d0", False, 0.5), ("d0", True, 0.5), ("d1", False, 0.25),
            ("d2", False, 0.5), ("d3", False, 0.5)]


@lru_cache(maxsize=None)
def distinct_tuples():
    """SIZE distinct (rel, key) with multiplicities 1 or 2, in insert order."""
    rng = random.Random(14)
    sample = make_sampler(WorkloadSpec(domain=2048, skew="zipf:0.9"))
    out = {}
    while len(out) < SIZE:
        rel = RELS[rng.randrange(3)]
        out.setdefault((rel, (sample(rng), sample(rng))), rng.randint(1, 2))
    return tuple(out.items())


def empty(view):
    if isinstance(view, Relation):
        return not view.entries
    return not view  # a bucket-size dict or d0's count


@pytest.mark.parametrize("query,double,eps", VARIANTS)
def test_grow_to_2_14_then_delete_everything(query, double, eps):
    drv = Driver(make_engine(query, eps, double=double))
    eng = drv.engine

    def after_major(event, drv):
        if event != "major:after":
            return
        n, size = eng.threshold.N, eng.db_size()
        assert n // 4 <= size < n, (size, n)
        assert size == sum(p.size() for p in eng.parts.values())

    drv.observers.append(after_major)
    items = list(distinct_tuples())
    for (rel, key), m in items:
        drv.on_update(rel, key, m)
    assert eng.db_size() == SIZE
    drv.check_invariants()
    assert drv.majors == 15 and drv.minors > 0
    random.Random(41).shuffle(items)
    for (rel, key), m in items:
        drv.on_update(rel, key, -m)

    assert eng.db_size() == 0
    for part in eng.parts.values():
        assert all(not part.part(lab).entries for lab in part.labels)
    assert [name for name in eng.view_names if not empty(getattr(eng, name))] == []
    if hasattr(eng, "enumerate_result"):
        assert list(eng.enumerate_result()) == []
    else:
        assert eng.query_result() == 0
    drv.check_invariants(deep=True)
