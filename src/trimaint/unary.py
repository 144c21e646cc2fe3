"""Maintenance of the one-variable triangle aggregate Q(a) = sum_bc R*S*T.

R is partitioned on (A,B), S on B alone, T on (C,A). Seven fragments by
label pattern: four are materialized unary relations, two more live as
closed unary views over binary aggregates, and the last (R in LH, T in
HL) sits in a view tree whose root keys (b,c) drive one hop-union
iterator with flat buckets of A-values. Result elements are 1-tuples
(a,) to match the other engines' keyed output.
"""

from __future__ import annotations

from trimaint.base import EngineBase
from trimaint.iterators import (
    EOF,
    HopUnionIterator,
    KeyIterator,
    MappedSliceCollection,
    UnionIterator,
)
from trimaint.joins import triangle_products
from trimaint.partition import strict_double, strict_single
from trimaint.store import Relation

BASE_IDX = ((0,), (1,))

HEAVY2 = ("HH", "HL")
LIGHT2 = ("LH", "LL")


class UnaryEngine(EngineBase):
    query = "d1"

    def __init__(self, epsilon, meter=None):
        super().__init__(epsilon, meter)
        self._fresh_views()
        self._build_partitions({"R": [], "S": [], "T": []})

    def _fresh_views(self):
        m = self.meter
        self.hhh = Relation("res1_HHH", 1, (), m)
        self.lll = Relation("res1_LLL", 1, (), m)
        self.ll_h = Relation("res1_LL_H", 1, (), m)
        self.lh_hh = Relation("res1_LH_HH", 1, (), m)
        self.rs_agg = Relation("agg1_rs", 2, (), m)
        self.rs_closed = Relation("closed1_rs", 1, (), m)
        self.st_agg = Relation("agg1_st", 2, (), m)
        self.st_closed = Relation("closed1_st", 1, (), m)
        self.pair_tr = Relation("pair1_tr", 3, ((0, 2), (1,)), m, linked=((0, 2),))
        self.hat_tr = Relation("hat1_tr", 2, (), m)
        self.root_tr = Relation("root1_tr", 2, (), m)

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        m = self.meter
        self.parts = {
            "R": strict_double(rel_items["R"], "R", 2, BASE_IDX, m, th),
            "S": strict_single(rel_items["S"], "S", 2, BASE_IDX, m, th),
            "T": strict_double(rel_items["T"], "T", 2, BASE_IDX, m, th),
        }

    # -- initialization ---------------------------------------------------

    def _recompute_views(self):
        self._fresh_views()
        R, S, T = self.parts["R"], self.parts["S"], self.parts["T"]
        sh, sl = S.part("H"), S.part("L")
        r_h = self.merged_group("R", HEAVY2, "ah")
        r_l = self.merged_group("R", LIGHT2, "al")
        t_h = self.merged_group("T", HEAVY2, "ch")
        t_l = self.merged_group("T", LIGHT2, "cl")
        s_all = self.merged_group("S", ("H", "L"))

        for a, _b, _c, prod in triangle_products(r_h, sh, t_h):
            self.hhh.apply_delta((a,), prod)
        for a, _b, _c, prod in triangle_products(r_l, sl, t_l):
            self.lll.apply_delta((a,), prod)
        for a, _b, _c, prod in triangle_products(R.part("LL"), s_all, t_h):
            self.ll_h.apply_delta((a,), prod)
        for a, _b, _c, prod in triangle_products(R.part("LH"), s_all, T.part("HH")):
            self.lh_hh.apply_delta((a,), prod)

        for (a, b), mr in r_h.items():
            for (_, c), ms in sl.slice_items((0,), b):
                self.rs_agg.apply_delta((a, c), mr * ms)
        for (a, c), v in self.rs_agg.items():
            tt = T.total((c, a))
            if tt:
                self.rs_closed.apply_delta((a,), v * tt)

        for (b, c), ms in sh.items():
            for (_, a), mt in t_l.slice_items((0,), c):
                self.st_agg.apply_delta((b, a), ms * mt)
        for (b, a), v in self.st_agg.items():
            rt = R.total((a, b))
            if rt:
                self.st_closed.apply_delta((a,), rt * v)

        r_lh = R.part("LH")
        for (c, a), mt in T.part("HL").items():
            for (_, b), mr in r_lh.slice_items((0,), a):
                self.pair_tr.apply_delta((c, a, b), mt * mr)
                self.hat_tr.apply_delta((c, b), mt * mr)
        for (c, b), v in self.hat_tr.items():
            ss = S.total((b, c))
            if ss:
                self.root_tr.apply_delta((b, c), v * ss)

    # -- update processing ------------------------------------------------

    def apply_update(self, rel, label, key, m):
        assert m != 0
        self.precheck_delete(rel, label, key, m)
        if rel == "R":
            self._update_r(label, key, m)
        elif rel == "S":
            self._update_s(label, key, m)
        else:
            self._update_t(label, key, m)
        self.parts[rel].part(label).apply_delta(key, m)
        self.version += 1

    def _update_r(self, label, key, m):
        al, be = key
        S, T = self.parts["S"], self.parts["T"]
        sh, sl = S.part("H"), S.part("L")
        meter = self.meter
        if label[0] == "H":
            for (c, _), mt in self._slice_group(T, HEAVY2, (1,), al):
                ms = sh.lookup((be, c))
                if ms:
                    meter.tick()
                    self.hhh.apply_delta((al,), m * ms * mt)
            for (_, c), ms in sl.slice_items((0,), be):
                d = m * ms
                self.rs_agg.apply_delta((al, c), d)
                tt = T.total((c, al))
                if tt:
                    meter.tick()
                    self.rs_closed.apply_delta((al,), d * tt)
        else:
            for (_, c), ms in sl.slice_items((0,), be):
                mt = self._lookup_group(T, LIGHT2, (c, al))
                if mt:
                    meter.tick()
                    self.lll.apply_delta((al,), m * ms * mt)
            if label == "LL":
                for (c, _), mt in self._slice_group(T, HEAVY2, (1,), al):
                    st = S.total((be, c))
                    if st:
                        meter.tick()
                        self.ll_h.apply_delta((al,), m * st * mt)
            else:
                for (c, _), mt in T.part("HH").slice_items((1,), al):
                    st = S.total((be, c))
                    if st:
                        meter.tick()
                        self.lh_hh.apply_delta((al,), m * st * mt)
                for (c, _), mt in T.part("HL").slice_items((1,), al):
                    d = mt * m
                    self.pair_tr.apply_delta((c, al, be), d)
                    self.hat_tr.apply_delta((c, be), d)
                    ss = S.total((be, c))
                    if ss:
                        meter.tick()
                        self.root_tr.apply_delta((be, c), d * ss)
        v = self.st_agg.lookup((be, al))
        if v:
            self.st_closed.apply_delta((al,), m * v)

    def _update_s(self, label, key, m):
        be, ga = key
        R, T = self.parts["R"], self.parts["T"]
        meter = self.meter
        if label == "H":
            for (a, _), mr in self._slice_group(R, HEAVY2, (1,), be):
                mt = self._lookup_group(T, HEAVY2, (ga, a))
                if mt:
                    meter.tick()
                    self.hhh.apply_delta((a,), mr * m * mt)
            for (_, a), mt in self._slice_group(T, LIGHT2, (0,), ga):
                dv = m * mt
                self.st_agg.apply_delta((be, a), dv)
                rt = R.total((a, be))
                if rt:
                    meter.tick()
                    self.st_closed.apply_delta((a,), rt * dv)
        else:
            for (_, a), mt in self._slice_group(T, LIGHT2, (0,), ga):
                mr = self._lookup_group(R, LIGHT2, (a, be))
                if mr:
                    meter.tick()
                    self.lll.apply_delta((a,), mr * m * mt)
            for (a, _), mr in self._slice_group(R, HEAVY2, (1,), be):
                d = mr * m
                self.rs_agg.apply_delta((a, ga), d)
                tt = T.total((ga, a))
                if tt:
                    meter.tick()
                    self.rs_closed.apply_delta((a,), d * tt)
        for (a, _), mr in R.part("LL").slice_items((1,), be):
            mt = self._lookup_group(T, HEAVY2, (ga, a))
            if mt:
                meter.tick()
                self.ll_h.apply_delta((a,), mr * m * mt)
        for (_, a), mt in T.part("HH").slice_items((0,), ga):
            mr = R.part("LH").lookup((a, be))
            if mr:
                meter.tick()
                self.lh_hh.apply_delta((a,), mr * m * mt)
        vh = self.hat_tr.lookup((ga, be))
        if vh:
            self.root_tr.apply_delta((be, ga), m * vh)

    def _update_t(self, label, key, m):
        ga, al = key
        R, S = self.parts["R"], self.parts["S"]
        sh, sl = S.part("H"), S.part("L")
        meter = self.meter
        if label[0] == "H":
            for (b, _), ms in sh.slice_items((1,), ga):
                mr = self._lookup_group(R, HEAVY2, (al, b))
                if mr:
                    meter.tick()
                    self.hhh.apply_delta((al,), mr * ms * m)
            for (_, b), mr in R.part("LL").slice_items((0,), al):
                st = S.total((b, ga))
                if st:
                    meter.tick()
                    self.ll_h.apply_delta((al,), mr * st * m)
            if label == "HH":
                for (_, b), mr in R.part("LH").slice_items((0,), al):
                    st = S.total((b, ga))
                    if st:
                        meter.tick()
                        self.lh_hh.apply_delta((al,), mr * st * m)
            else:
                for (_, b), mr in R.part("LH").slice_items((0,), al):
                    d = m * mr
                    self.pair_tr.apply_delta((ga, al, b), d)
                    self.hat_tr.apply_delta((ga, b), d)
                    ss = S.total((b, ga))
                    if ss:
                        meter.tick()
                        self.root_tr.apply_delta((b, ga), d * ss)
        else:
            for (_, b), mr in self._slice_group(R, LIGHT2, (0,), al):
                ms = sl.lookup((b, ga))
                if ms:
                    meter.tick()
                    self.lll.apply_delta((al,), mr * ms * m)
            for (b, _), ms in sh.slice_items((1,), ga):
                dv = ms * m
                self.st_agg.apply_delta((b, al), dv)
                rt = R.total((al, b))
                if rt:
                    meter.tick()
                    self.st_closed.apply_delta((al,), rt * dv)
        v = self.rs_agg.lookup((al, ga))
        if v:
            self.rs_closed.apply_delta((al,), m * v)

    # -- enumeration ------------------------------------------------------

    def candidate_buckets(self, t):
        (a,) = t
        out = []
        for (c, _, b), _v in self.pair_tr.slice_items((1,), a):
            if self.root_tr.lookup((b, c)):
                out.append((b, c))
        return out

    def _open_bucket(self, key):
        b, c = key
        return MappedSliceCollection(
            self.pair_tr, (0, 2), (c, b),
            lambda k: (k[1],),
            lambda e: (c, e[0], b),
        )

    def _bucket_size(self, key):
        b, c = key
        return self.pair_tr.slice_count((0, 2), (c, b))

    def open_union(self):
        check = self.guard()
        meter = self.meter
        iters = [
            KeyIterator(rel, check)
            for rel in (self.hhh, self.lll, self.ll_h, self.lh_hh,
                        self.rs_closed, self.st_closed)
        ]
        iters.append(HopUnionIterator(
            list(self.root_tr.entries),
            self._open_bucket,
            self._bucket_size,
            self.candidate_buckets,
            meter, check,
        ))
        return UnionIterator(iters, meter, check)

    def multiplicity(self, t):
        """Full aggregate value at one A-value, O(slice at A) work."""
        (a,) = t
        S = self.parts["S"]
        meter = self.meter
        v = (
            self.hhh.lookup(t)
            + self.lll.lookup(t)
            + self.ll_h.lookup(t)
            + self.lh_hh.lookup(t)
            + self.rs_closed.lookup(t)
            + self.st_closed.lookup(t)
        )
        for (c, _, b), pv in self.pair_tr.slice_items((1,), a):
            ss = S.total((b, c))
            if ss:
                meter.tick()
                v += pv * ss
        return v

    def enumerate_result(self):
        """Iterator of ((a,), multiplicity), each A-value exactly once."""
        u = self.open_union()

        def gen():
            while True:
                t = u.next()
                if t is EOF:
                    return
                yield t, self.multiplicity(t)

        return gen()

    def query_result(self):
        return {key: mult for key, mult in self.enumerate_result()}

    # -- auditing ---------------------------------------------------------

    def expected_state(self):
        R, S, T = self.parts["R"], self.parts["S"], self.parts["T"]
        r = {lab: dict(R.part(lab).items()) for lab in HEAVY2 + LIGHT2}
        sh = dict(S.part("H").items())
        sl = dict(S.part("L").items())
        t = {lab: dict(T.part(lab).items()) for lab in HEAVY2 + LIGHT2}

        def merge(parts):
            out = {}
            for d in parts:
                for k, v in d.items():
                    out[k] = out.get(k, 0) + v
            return out

        r_h = merge([r["HH"], r["HL"]])
        r_l = merge([r["LH"], r["LL"]])
        t_h = merge([t["HH"], t["HL"]])
        t_l = merge([t["LH"], t["LL"]])
        r_all = merge([r_h, r_l])
        s_all = merge([sh, sl])
        t_all = merge([t_h, t_l])

        def agg1(rd, sd, td):
            out = {}
            for (a, b), mr in rd.items():
                for (b2, c), ms in sd.items():
                    if b2 != b:
                        continue
                    mt = td.get((c, a), 0)
                    if mt:
                        out[(a,)] = out.get((a,), 0) + mr * ms * mt
            return {k: v for k, v in out.items() if v != 0}

        exp = {
            "hhh": agg1(r_h, sh, t_h),
            "lll": agg1(r_l, sl, t_l),
            "ll_h": agg1(r["LL"], s_all, t_h),
            "lh_hh": agg1(r["LH"], s_all, t["HH"]),
        }
        rs_agg = {}
        for (a, b), mr in r_h.items():
            for (b2, c), ms in sl.items():
                if b2 == b:
                    rs_agg[(a, c)] = rs_agg.get((a, c), 0) + mr * ms
        rs_agg = {k: v for k, v in rs_agg.items() if v != 0}
        rs_closed = {}
        for (a, c), v in rs_agg.items():
            tt = t_all.get((c, a), 0)
            if tt:
                rs_closed[(a,)] = rs_closed.get((a,), 0) + v * tt
        exp["rs_agg"] = rs_agg
        exp["rs_closed"] = {k: v for k, v in rs_closed.items() if v != 0}

        st_agg = {}
        for (b, c), ms in sh.items():
            for (c2, a), mt in t_l.items():
                if c2 == c:
                    st_agg[(b, a)] = st_agg.get((b, a), 0) + ms * mt
        st_agg = {k: v for k, v in st_agg.items() if v != 0}
        st_closed = {}
        for (b, a), v in st_agg.items():
            rt = r_all.get((a, b), 0)
            if rt:
                st_closed[(a,)] = st_closed.get((a,), 0) + rt * v
        exp["st_agg"] = st_agg
        exp["st_closed"] = {k: v for k, v in st_closed.items() if v != 0}

        pair_tr = {}
        for (c, a), mt in t["HL"].items():
            for (a2, b), mr in r["LH"].items():
                if a2 == a:
                    pair_tr[(c, a, b)] = pair_tr.get((c, a, b), 0) + mt * mr
        pair_tr = {k: v for k, v in pair_tr.items() if v != 0}
        hat_tr = {}
        for (c, _a, b), v in pair_tr.items():
            hat_tr[(c, b)] = hat_tr.get((c, b), 0) + v
        hat_tr = {k: v for k, v in hat_tr.items() if v != 0}
        root_tr = {}
        for (c, b), v in hat_tr.items():
            ss = s_all.get((b, c), 0)
            if ss:
                root_tr[(b, c)] = v * ss
        exp["pair_tr"], exp["hat_tr"] = pair_tr, hat_tr
        exp["root_tr"] = {k: v for k, v in root_tr.items() if v != 0}
        return exp

    def verify_views(self):
        exp = self.expected_state()
        got = {
            "hhh": dict(self.hhh.items()),
            "lll": dict(self.lll.items()),
            "ll_h": dict(self.ll_h.items()),
            "lh_hh": dict(self.lh_hh.items()),
            "rs_agg": dict(self.rs_agg.items()),
            "rs_closed": dict(self.rs_closed.items()),
            "st_agg": dict(self.st_agg.items()),
            "st_closed": dict(self.st_closed.items()),
            "pair_tr": dict(self.pair_tr.items()),
            "hat_tr": dict(self.hat_tr.items()),
            "root_tr": dict(self.root_tr.items()),
        }
        for name in got:
            assert got[name] == exp[name], f"{name} drifted"
