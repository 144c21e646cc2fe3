"""Hypothesis state machine over Driver, for every engine variant.

Inserts, deletes and overdeletes of values from 0 to past 2**63 at eps
0, 0.37 and 1; the result is checked against RefMaintainer after every
step (an enumeration must emit no key twice), a refused overdelete must
leave the state as it was, and every run ends with the deep invariant
check.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from trimaint.driver import Driver, make_engine
from trimaint.oracle import RefMaintainer
from trimaint.store import Relation, RejectedDelete
from trimaint.workload import WorkloadSpec, stream

VARIANTS = [("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)]
K = {"d0": 0, "d1": 1, "d2": 2, "d3": 3}
VALUES_LIST = [0, 1, 2, 3, 2**32, 2**32 + 1, 2**63 + 5]
VALUES = st.sampled_from(VALUES_LIST)
RELS = st.sampled_from("RST")


def dump(view):
    if isinstance(view, Relation):
        return dict(view.entries)
    if isinstance(view, dict):
        return {k: dump(v) for k, v in view.items()}
    return view


def state(drv):
    eng = drv.engine
    parts = {(rel, lab): dict(p.part(lab).entries) for rel, p in eng.parts.items()
             for lab in p.labels}
    views = {name: dump(getattr(eng, name)) for name in eng.view_names}
    return (parts, views, eng.version, eng.threshold.N, eng.db_size(), drv.updates,
            drv.majors, drv.minors)


class DriverMachine(RuleBasedStateMachine):
    @initialize(variant=st.sampled_from(VARIANTS), eps=st.sampled_from([0.0, 0.37, 1.0]))
    def start(self, variant, eps):
        query, double = variant
        self.drv = Driver(make_engine(query, eps, double=double))
        self.ref = RefMaintainer(K[query])
        self.live = {}

    def apply(self, rel, key, m):
        self.drv.on_update(rel, key, m)
        self.ref.apply(rel, key, m)
        new = self.live.get((rel, key), 0) + m
        if new:
            self.live[rel, key] = new
        else:
            del self.live[rel, key]

    @rule(rel=RELS, a=VALUES, b=VALUES, m=st.integers(1, 3))
    def insert(self, rel, a, b, m):
        self.apply(rel, (a, b), m)

    @rule(rel=RELS, hub=VALUES, side=st.sampled_from((0, 1)))
    def star(self, rel, hub, side):
        # one value paired with every value: it turns heavy at the next
        # rebuild or minor, next to light ones
        for v in VALUES_LIST:
            self.apply(rel, (hub, v) if side == 0 else (v, hub), 1)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        rel, key = data.draw(st.sampled_from(sorted(self.live)))
        self.apply(rel, key, -data.draw(st.integers(1, self.live[rel, key])))

    @rule(rel=RELS, a=VALUES, b=VALUES, extra=st.integers(1, 2))
    def overdelete(self, rel, a, b, extra):
        key = (a, b)
        meter = self.drv.meter
        before, ops = state(self.drv), meter.snapshot()
        try:
            self.drv.on_update(rel, key, -(self.live.get((rel, key), 0) + extra))
        except RejectedDelete:
            pass
        else:
            raise AssertionError(f"overdelete of {rel}{key} accepted")
        assert state(self.drv) == before
        # routing the update and the overdelete check are charged to apply:
        # a handful of lookups, and no rebalancing
        after = meter.snapshot()
        spent = after["total"] - ops["total"]
        assert after == {**ops, "total": ops["total"] + spent, "apply": ops["apply"] + spent}
        assert 0 <= spent <= 5

    @invariant()
    def matches_reference(self):
        eng = self.drv.engine
        if not hasattr(eng, "enumerate_result"):
            assert eng.query_result() == self.ref.result()
            return
        # query_result() is a dict, which would hide a key emitted twice
        emitted = list(eng.enumerate_result())
        keys = [key for key, _ in emitted]
        assert len(set(keys)) == len(keys), f"repeated emission in {keys}"
        assert dict(emitted) == self.ref.result()

    def teardown(self):
        if hasattr(self, "drv"):
            self.drv.check_invariants(deep=True)


DriverMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestDriverMachine = DriverMachine.TestCase


# none is a tuple of two hashable values; unrefused, a list key such as
# S[1, 2] got through the delta steps' view writes and failed only at the
# part write
BAD_KEYS = [[1, 2], ([1], 2), (1, [2]), ({1: 2}, 3), [1, 2, 3], (1, 2, 3), (1,), 7, None]


@pytest.mark.parametrize("query,double", VARIANTS)
def test_bad_key_refused_before_any_write(query, double):
    drv = Driver(make_engine(query, 0.5, double=double))
    for upd in stream(WorkloadSpec(seed=3, domain=4, updates=120, delete_frac=0.2)):
        drv.on_update(*upd)
    before, ops = state(drv), drv.meter.snapshot()
    for rel in "RST":
        for key in BAD_KEYS:
            for m in (1, -1):
                with pytest.raises(ValueError) as err:
                    drv.on_update(rel, key, m)
                assert "\n" not in str(err.value)
                assert state(drv) == before, (rel, key, m)
    assert drv.meter.snapshot() == ops
    drv.check_invariants(deep=True)
