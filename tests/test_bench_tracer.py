"""The bench tracer patches library methods by name; renaming one of them
must fail here rather than in a benchmark run."""

import sys
from pathlib import Path

from trimaint.driver import Driver, make_engine
from trimaint.store import CostMeter, Relation
from trimaint.workload import WorkloadSpec, stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


# spans each query variant must reach; the double-partitioned d0 engine is
# patched through the single one it subclasses. Enumeration inherited from
# the keyed fragment engine is patched on the engine class, so each emitted
# tuple's multiplicity must still pass through it.
SPANS = {
    ("d0", False): ["nullary.apply_update", "nullary.rebuild"],
    ("d0", True): ["nullary.apply_update", "nullary.rebuild"],
    ("d1", False): ["unary.apply_update", "unary.rebuild", "unary.enum.open",
                    "unary.multiplicity", "iterators.hop_union.next"],
    ("d2", False): ["binary.apply_update", "binary.rebuild", "binary.enum.open",
                    "binary.multiplicity", "iterators.hop_union.next"],
    ("d3", False): ["ternary.apply_update", "ternary.rebuild", "ternary.enum.open"],
}


def test_tracer_spans_reach_the_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written under bench/
    from tracer import CALLS, Tracer, merge

    apply_delta = Relation.apply_delta
    tracer = Tracer()
    tracer.install()
    rows = {}
    try:
        for query, double in SPANS:
            tracer.meter, tracer.rows = CostMeter(), {}
            drv = Driver(make_engine(query, 0.5, double=double, meter=tracer.meter))
            for upd in stream(WorkloadSpec(seed=2, domain=8, updates=150, delete_frac=0.2)):
                drv.on_update(*upd)
            drv.engine.query_result()
            rows[query, double] = merge(tracer.rows.items(), by_name=True)
    finally:
        tracer.uninstall()
    assert Relation.apply_delta is apply_delta
    for variant, spans in SPANS.items():
        for name in ["store.apply_delta"] + spans:
            assert rows[variant].get(name, [0])[CALLS] > 0, (variant, name)
