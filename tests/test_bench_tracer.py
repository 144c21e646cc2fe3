"""The bench tracer patches library methods by name; renaming one of them
must fail here rather than in a benchmark run."""

import sys
from pathlib import Path

from trimaint.driver import Driver, make_engine
from trimaint.store import CostMeter, Relation
from trimaint.workload import WorkloadSpec, stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_spans_reach_the_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under bench/
    from tracer import CALLS, Tracer, merge

    apply_delta = Relation.apply_delta
    tracer = Tracer()
    tracer.install()
    try:
        for query in ("d1", "d2", "d3"):
            tracer.meter = CostMeter()
            drv = Driver(make_engine(query, 0.5, meter=tracer.meter))
            for upd in stream(WorkloadSpec(seed=2, domain=8, updates=150, delete_frac=0.2)):
                drv.on_update(*upd)
            drv.engine.query_result()
    finally:
        tracer.uninstall()
    assert Relation.apply_delta is apply_delta
    rows = merge(tracer.rows.items(), by_name=True)
    spans = ["store.apply_delta"] + [f"{mod}.{fn}" for mod in ("unary", "binary", "ternary")
                                     for fn in ("apply_update", "rebuild", "enum.open")]
    # enumeration inherited from FragmentEngine is patched on the engine
    # class, so each emitted tuple's multiplicity must still pass through it
    spans += ["unary.multiplicity", "binary.multiplicity", "iterators.hop_union.next"]
    for name in spans:
        assert rows.get(name, [0])[CALLS] > 0, name
