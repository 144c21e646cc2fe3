"""Fragment tables and the view audit that reruns the init path."""

from itertools import product

import pytest

from conftest import relation_layout
from trimaint import store
from trimaint.binary import BinaryEngine
from trimaint.driver import Driver, make_engine
from trimaint.nullary import NullaryDoubleEngine, NullaryEngine
from trimaint.oracle import RefMaintainer
from trimaint.store import Relation
from trimaint.ternary import TernaryEngine
from trimaint.unary import UnaryEngine
from trimaint.workload import WorkloadSpec, stream

VARIANTS = [("d0", False), ("d0", True), ("d1", False), ("d2", False), ("d3", False)]
# each table with the number of label combinations its fragments cover
COMBOS = {NullaryEngine: 8, NullaryDoubleEngine: 64, UnaryEngine: 32, BinaryEngine: 32,
          TernaryEngine: 8}
TABLES = list(COMBOS)


@pytest.mark.parametrize("cls", TABLES)
def test_fragments_cover_every_label_combination_once(cls):
    from trimaint.fragments import group_labels

    rows = [[group_labels(cls.labels[rel], row.groups[rel]) for rel in "RST"]
            for row in cls.direct + cls.trees]
    combos = list(product(*(cls.labels[rel] for rel in "RST")))
    for combo in combos:
        owners = [row for row in rows if all(lab in labs for lab, labs in zip(combo, row))]
        assert len(owners) == 1, (combo, owners)
    assert len(combos) == COMBOS[cls]


def rich_driver(query, double=False, eps=0.5):
    drv = Driver(make_engine(query, eps, double=double))
    spec = WorkloadSpec(seed=11, domain=10, updates=500, delete_frac=0.2, skew="zipf:1.2")
    for upd in stream(spec):
        drv.on_update(*upd)
    return drv


def view_dicts(eng):
    """Every dict of view entries the engine holds, by attribute name."""
    out = []
    for name, v in vars(eng).items():
        if name == "parts":
            continue
        if isinstance(v, Relation):
            out.append((name, v.entries))
        elif isinstance(v, dict):
            for k, x in v.items():
                if isinstance(x, Relation):
                    out.append((f"{name}[{k}]", x.entries))
    return out


# views the corruption loop cannot reach, per query
UNREACHED = {"d0": 1, "d1": 0, "d2": 0, "d3": 0}


@pytest.mark.parametrize("query,double", VARIANTS)
def test_audit_catches_one_corrupted_entry(query, double):
    corrupted = set()
    # theta is about 3.4 at eps 0.25 and 11 at eps 0.5: between them
    # nearly every view holds entries
    for eps in (0.25, 0.5):
        eng = rich_driver(query, double, eps).engine
        eng.verify_views()
        for name, entries in view_dicts(eng):
            if not entries:
                continue
            k = next(iter(entries))
            entries[k] += 1
            with pytest.raises(AssertionError):
                eng.verify_views()
            entries[k] -= 1
            eng.verify_views()
            corrupted.add(name)
        if query == "d0":
            eng.count += 1
            with pytest.raises(AssertionError):
                eng.verify_views()
    # d0's count is an integer, corrupted on its own above; every other view
    # of every variant holds entries at one of the two epsilons
    assert len(corrupted) >= len(eng.view_names) - UNREACHED[query], corrupted


def skipping(monkeypatch, rel, label, i):
    """Bind plans with step i of (rel, label) left out."""
    from trimaint.fragments import FragmentEngine

    bind = FragmentEngine._bind

    def bind_without(self):
        steps = bind(self)
        part, plan, totals = steps[rel, label]
        steps[rel, label] = part, plan[:i] + plan[i + 1:], totals
        return steps

    monkeypatch.setattr(FragmentEngine, "_bind", bind_without)


def hub_db(hubs):
    """Hub values have degree 8 on both columns, the others degree 3; at
    eps 0.25 theta is about 3.7, so every part label is held."""
    return {(x, y): 1 for x in range(8) for y in (range(8) if x in hubs else {x, *hubs})}


# 0 is a hub in every relation, 1, 2 and 3 in one each: some steps act only
# where a value is heavy in one relation and light in the next
HUB_DBS = [hub_db({0, 1}), hub_db({0, 2}), hub_db({0, 3})]


@pytest.mark.parametrize("cls", TABLES)
def test_audit_catches_every_skipped_step(cls, monkeypatch):
    def fresh():
        return cls.from_database(*HUB_DBS, 0.25)

    eng = fresh()
    for rel in "RST":
        part = eng.parts[rel]
        assert all(len(part.part(lab)) for lab in part.labels)
        keys = {}
        for key in product(range(8), repeat=2):
            keys.setdefault(part.affected_label(key, 0.25), []).append(key)
        plans = eng._bind()
        for label in part.labels:
            _, plan, _ = plans[rel, label]
            for i in range(len(plan)):
                with monkeypatch.context() as mp:
                    skipping(mp, rel, label, i)
                    for key in keys[label]:
                        e = fresh()
                        e.apply_update(rel, label, key, 1)
                        try:
                            e.verify_views()
                        except AssertionError:
                            break
                    else:
                        pytest.fail(f"no {rel}^{label} insert shows step {i} skipped")
                # the same update with every step passes the audit
                e = fresh()
                e.apply_update(rel, label, key, 1)
                e.verify_views()


def built_state(eng):
    """The layout of every part and view, and the meter's snapshot."""
    out = {f"{rel}^{lab}": relation_layout(r)
           for rel, p in eng.parts.items() for lab, r in p.parts.items()}
    for name in eng.view_names:
        v = getattr(eng, name)
        out[name] = (relation_layout(v) if isinstance(v, Relation)
                     else list(v.items()) if isinstance(v, dict) else v)
    return out, eng.meter.snapshot()


@pytest.mark.parametrize("query,double", VARIANTS)
def test_init_path_loads_as_per_item_writes(query, double, monkeypatch):
    # a grown database with heavy and light values in every relation
    grown = rich_driver(query, double, 0.25).engine.rel_items()
    db = {rel: dict(kvs) for rel, kvs in grown.items()}
    # and a hub on each relation's first column with more tuples than the
    # compaction floor, so that some slices are dicts
    for d in db.values():
        d.update({(0, 100 + i): 1 for i in range(store.COMPACT_FLOOR + 4)})

    def build_and_rebuild():
        eng = make_engine(query, 0.25, double=double, rd=db["R"], sd=db["S"], td=db["T"])
        # every part and every view relation is loaded with entries
        rels = [r for p in eng.parts.values() for r in p.parts.values()]
        rels += [v for v in map(eng.__getattribute__, eng.view_names) if isinstance(v, Relation)]
        assert all(len(r) for r in rels)
        # hash slices of both kinds: lists up to COMPACT_FLOOR, dicts above
        kinds = {type(s) for r in rels for _, slices, _, nodes, _ in r._indexes
                 if nodes is None for s in slices.values()}
        assert kinds == {list, dict}
        built = built_state(eng)
        eng.rebuild(eng.rel_items(), eng.threshold.N)
        return built, built_state(eng)

    got = build_and_rebuild()

    def per_item(self, items):
        for key, m in items:
            self.apply_delta(key, m)

    monkeypatch.setattr(Relation, "load", per_item)
    want = build_and_rebuild()
    assert got == want


@pytest.mark.parametrize("query", ["d1", "d2", "d3"])
def test_a_rebuild_rebinds_the_read_path(query):
    # the read path binds on first use after a build; a rebuild makes fresh
    # views, and a binding kept from before would read views that no longer
    # take updates
    ups = list(stream(WorkloadSpec(seed=3, domain=12, updates=300, delete_frac=0.2)))
    drv, ref = Driver(make_engine(query, 0.5)), RefMaintainer(int(query[1]))
    for upd in ups[:200]:
        drv.on_update(*upd)
        ref.apply(*upd)
    eng = drv.engine
    assert eng.query_result() == ref.result()
    eng.rebuild(eng.rel_items(), 2 * eng.db_size() + 1)
    for rel, key, m in ups[200:]:
        eng.apply_update(rel, eng.parts[rel].affected_label(key, eng.epsilon), key, m)
        ref.apply(rel, key, m)
    assert eng.query_result() == ref.result()
