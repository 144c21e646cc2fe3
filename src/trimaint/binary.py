"""Maintenance of the two-variable triangle aggregate Q(a,b) = sum_c R*S*T.

R is partitioned on A alone; S and T on both their columns, so labels
carry two letters (first letter: B-class for S, C-class for T). The
result splits into seven fragments by label pattern. Five are
materialized pair relations enumerated directly; two live in view trees
whose roots group results under heavy C-values and are enumerated with
hop-union iterators over two-level buckets. Emission multiplicity is
reassembled per pair from the five materialized values plus two bounded
slice walks, so the stored fragments never need to agree on how they
split a pair's total.
"""

from __future__ import annotations

from trimaint.base import EngineBase
from trimaint.iterators import EOF, HopUnionIterator, KeyIterator, UnionIterator
from trimaint.joins import triangle_products
from trimaint.partition import strict_double, strict_single
from trimaint.store import Relation

BASE_IDX = ((0,), (1,))

HEAVY2 = ("HH", "HL")
LIGHT2 = ("LH", "LL")


class RsBucket:
    """Two-level bucket of (a, b) pairs for one heavy c: level 1 walks
    A-values of the closed rs view sliced at c, level 2 walks B-values of
    the rs pair view sliced at (a, c)."""

    def __init__(self, eng, c):
        self._closed = eng.closed_rs
        self._pair = eng.pair_rs
        self._c = c

    def first(self):
        k1 = self._closed.slice_head((1,), self._c)
        if k1 is None:
            return None
        pk = self._pair.slice_head((0, 2), (k1[0], self._c))
        return (pk[0], pk[1])

    def successor(self, x):
        a, b = x
        nk = self._pair.slice_next((0, 2), (a, b, self._c))
        if nk is not None:
            return (nk[0], nk[1])
        n1 = self._closed.slice_next((1,), (a, self._c))
        if n1 is None:
            return None
        pk = self._pair.slice_head((0, 2), (n1[0], self._c))
        return (pk[0], pk[1])

    def contains(self, x):
        a, b = x
        return (
            self._closed.lookup((a, self._c)) != 0
            and self._pair.lookup((a, b, self._c)) != 0
        )


class TrBucket:
    """Mirror bucket for the tr tree: level 1 walks B-values of the closed
    tr view at c, level 2 walks A-values of the tr pair view at (c, b)."""

    def __init__(self, eng, c):
        self._closed = eng.closed_tr
        self._pair = eng.pair_tr
        self._c = c

    def first(self):
        k1 = self._closed.slice_head((1,), self._c)
        if k1 is None:
            return None
        pk = self._pair.slice_head((0, 2), (self._c, k1[0]))
        return (pk[1], pk[2])

    def successor(self, x):
        a, b = x
        nk = self._pair.slice_next((0, 2), (self._c, a, b))
        if nk is not None:
            return (nk[1], nk[2])
        n1 = self._closed.slice_next((1,), (b, self._c))
        if n1 is None:
            return None
        pk = self._pair.slice_head((0, 2), (self._c, n1[0]))
        return (pk[1], pk[2])

    def contains(self, x):
        a, b = x
        return (
            self._closed.lookup((b, self._c)) != 0
            and self._pair.lookup((self._c, a, b)) != 0
        )


class BinaryEngine(EngineBase):
    query = "d2"

    def __init__(self, epsilon, meter=None):
        super().__init__(epsilon, meter)
        self._fresh_views()
        self._build_partitions({"R": [], "S": [], "T": []})

    def _fresh_views(self):
        m = self.meter
        self.hhh = Relation("res2_HHH", 2, (), m)
        self.lll = Relation("res2_LLL", 2, (), m)
        self.h_ll = Relation("res2_H_LL", 2, (), m)
        self.l_hh = Relation("res2_L_HH", 2, (), m)
        self.st_agg = Relation("agg_st", 2, (), m)
        self.st_closed = Relation("closed_st", 2, (), m)
        self.pair_rs = Relation("pair2_rs", 3, ((0, 2), (0, 1)), m, linked=((0, 2),))
        self.hat_rs = Relation("hat2_rs", 2, (), m)
        self.closed_rs = Relation("closed_rs", 2, ((1,),), m, linked=((1,),))
        self.root_rs = Relation("root2_rs", 1, (), m)
        self.bsz_rs = {}
        self.pair_tr = Relation("pair2_tr", 3, ((0, 2), (1, 2)), m, linked=((0, 2),))
        self.hat_tr = Relation("hat2_tr", 2, (), m)
        self.closed_tr = Relation("closed_tr", 2, ((1,),), m, linked=((1,),))
        self.root_tr = Relation("root2_tr", 1, (), m)
        self.bsz_tr = {}

    def _build_partitions(self, rel_items):
        th = self.threshold.theta
        m = self.meter
        self.parts = {
            "R": strict_single(rel_items["R"], "R", 2, BASE_IDX, m, th),
            "S": strict_double(rel_items["S"], "S", 2, BASE_IDX, m, th),
            "T": strict_double(rel_items["T"], "T", 2, BASE_IDX, m, th),
        }

    # -- initialization ---------------------------------------------------

    def _recompute_views(self):
        self._fresh_views()
        R, S, T = self.parts["R"], self.parts["S"], self.parts["T"]
        rh, rl = R.part("H"), R.part("L")
        s_h = self.merged_group("S", HEAVY2, "bh")
        s_l = self.merged_group("S", LIGHT2, "bl")
        t_h = self.merged_group("T", HEAVY2, "ch")
        t_l = self.merged_group("T", LIGHT2, "cl")
        s_all = self.merged_group("S", HEAVY2 + LIGHT2)
        t_all = self.merged_group("T", HEAVY2 + LIGHT2)

        for a, b, _c, prod in triangle_products(rh, s_h, t_h):
            self.hhh.apply_delta((a, b), prod)
        for a, b, _c, prod in triangle_products(rl, s_l, t_l):
            self.lll.apply_delta((a, b), prod)
        s_ll = self.merged_group("S", ("LL",), "ll")
        for a, b, _c, prod in triangle_products(rh, s_ll, t_all):
            self.h_ll.apply_delta((a, b), prod)
        t_hh = self.merged_group("T", ("HH",), "hh")
        for a, b, _c, prod in triangle_products(rl, s_all, t_hh):
            self.l_hh.apply_delta((a, b), prod)

        for (b, c), ms in s_h.items():
            for (_, a), mt in t_l.slice_items((0,), c):
                self.st_agg.apply_delta((b, a), ms * mt)
        for (b, a), v in self.st_agg.items():
            rt = R.total((a, b))
            if rt:
                self.st_closed.apply_delta((a, b), rt * v)

        s_lh = S.part("LH")
        for (a, b), mr in rh.items():
            for (_, c), ms in s_lh.slice_items((0,), b):
                self.pair_rs.apply_delta((a, b, c), mr * ms)
                self.hat_rs.apply_delta((a, c), mr * ms)
        for (a, c), v in self.hat_rs.items():
            tt = T.total((c, a))
            if tt:
                self.closed_rs.apply_delta((a, c), v * tt)
                self.root_rs.apply_delta((c,), v * tt)
        for (a, c), _v in self.closed_rs.items():
            n = self.pair_rs.slice_count((0, 2), (a, c))
            self.bsz_rs[c] = self.bsz_rs.get(c, 0) + n

        t_hl = T.part("HL")
        for (c, a), mt in t_hl.items():
            for (_, b), mr in rl.slice_items((0,), a):
                self.pair_tr.apply_delta((c, a, b), mt * mr)
                self.hat_tr.apply_delta((c, b), mt * mr)
        for (c, b), v in self.hat_tr.items():
            ss = S.total((b, c))
            if ss:
                self.closed_tr.apply_delta((b, c), v * ss)
                self.root_tr.apply_delta((c,), v * ss)
        for (b, c), _v in self.closed_tr.items():
            n = self.pair_tr.slice_count((0, 2), (c, b))
            self.bsz_tr[c] = self.bsz_tr.get(c, 0) + n

    # -- update processing ------------------------------------------------

    def _bsz_adjust(self, dic, c, delta):
        if delta:
            v = dic.get(c, 0) + delta
            assert v >= 0
            if v:
                dic[c] = v
            else:
                dic.pop(c, None)

    def _cascade_rs(self, a, c, d, b):
        cnt_old = self.pair_rs.slice_count((0, 2), (a, c))
        vold = self.closed_rs.lookup((a, c))
        self.pair_rs.apply_delta((a, b, c), d)
        self.hat_rs.apply_delta((a, c), d)
        tt = self.parts["T"].total((c, a))
        if tt:
            self.closed_rs.apply_delta((a, c), d * tt)
            self.root_rs.apply_delta((c,), d * tt)
        cnt_new = self.pair_rs.slice_count((0, 2), (a, c))
        vnew = self.closed_rs.lookup((a, c))
        self._bsz_adjust(
            self.bsz_rs, c,
            (cnt_new if vnew else 0) - (cnt_old if vold else 0),
        )

    def _cascade_tr(self, c, b, d, a):
        cnt_old = self.pair_tr.slice_count((0, 2), (c, b))
        vold = self.closed_tr.lookup((b, c))
        self.pair_tr.apply_delta((c, a, b), d)
        self.hat_tr.apply_delta((c, b), d)
        ss = self.parts["S"].total((b, c))
        if ss:
            self.closed_tr.apply_delta((b, c), d * ss)
            self.root_tr.apply_delta((c,), d * ss)
        cnt_new = self.pair_tr.slice_count((0, 2), (c, b))
        vnew = self.closed_tr.lookup((b, c))
        self._bsz_adjust(
            self.bsz_tr, c,
            (cnt_new if vnew else 0) - (cnt_old if vold else 0),
        )

    def _close_rs(self, a, c, m):
        # third relation changed by m at (c, a): closed gains m times the hat
        vh = self.hat_rs.lookup((a, c))
        if not vh:
            return
        cnt = self.pair_rs.slice_count((0, 2), (a, c))
        vold = self.closed_rs.lookup((a, c))
        self.closed_rs.apply_delta((a, c), m * vh)
        self.root_rs.apply_delta((c,), m * vh)
        vnew = self.closed_rs.lookup((a, c))
        self._bsz_adjust(
            self.bsz_rs, c,
            ((1 if vnew else 0) - (1 if vold else 0)) * cnt,
        )

    def _close_tr(self, b, c, m):
        vh = self.hat_tr.lookup((c, b))
        if not vh:
            return
        cnt = self.pair_tr.slice_count((0, 2), (c, b))
        vold = self.closed_tr.lookup((b, c))
        self.closed_tr.apply_delta((b, c), m * vh)
        self.root_tr.apply_delta((c,), m * vh)
        vnew = self.closed_tr.lookup((b, c))
        self._bsz_adjust(
            self.bsz_tr, c,
            ((1 if vnew else 0) - (1 if vold else 0)) * cnt,
        )

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
        meter = self.meter
        if label == "H":
            for (c, _), mt in self._slice_group(T, HEAVY2, (1,), al):
                ms = self._lookup_group(S, HEAVY2, (be, c))
                if ms:
                    meter.tick()
                    self.hhh.apply_delta((al, be), m * ms * mt)
            for (_, c), ms in S.part("LL").slice_items((0,), be):
                tt = T.total((c, al))
                if tt:
                    meter.tick()
                    self.h_ll.apply_delta((al, be), m * ms * tt)
            for (_, c), ms in S.part("LH").slice_items((0,), be):
                self._cascade_rs(al, c, m * ms, be)
        else:
            for (_, c), ms in self._slice_group(S, LIGHT2, (0,), be):
                mt = self._lookup_group(T, LIGHT2, (c, al))
                if mt:
                    meter.tick()
                    self.lll.apply_delta((al, be), m * ms * mt)
            for (c, _), mt in T.part("HH").slice_items((1,), al):
                st = S.total((be, c))
                if st:
                    meter.tick()
                    self.l_hh.apply_delta((al, be), m * st * mt)
            for (c, _), mt in T.part("HL").slice_items((1,), al):
                self._cascade_tr(c, be, mt * m, al)
        v = self.st_agg.lookup((be, al))
        if v:
            self.st_closed.apply_delta((al, be), m * v)

    def _update_s(self, label, key, m):
        be, ga = key
        R, T = self.parts["R"], self.parts["T"]
        rh, rl = R.part("H"), R.part("L")
        meter = self.meter
        if label[0] == "H":
            for (a, _), mr in rh.slice_items((1,), be):
                mt = self._lookup_group(T, HEAVY2, (ga, a))
                if mt:
                    meter.tick()
                    self.hhh.apply_delta((a, be), mr * m * mt)
            for (_, a), mt in self._slice_group(T, LIGHT2, (0,), ga):
                dv = m * mt
                self.st_agg.apply_delta((be, a), dv)
                rt = R.total((a, be))
                if rt:
                    meter.tick()
                    self.st_closed.apply_delta((a, be), rt * dv)
        else:
            for (_, a), mt in self._slice_group(T, LIGHT2, (0,), ga):
                mr = rl.lookup((a, be))
                if mr:
                    meter.tick()
                    self.lll.apply_delta((a, be), mr * m * mt)
            if label == "LL":
                for (a, _), mr in rh.slice_items((1,), be):
                    tt = T.total((ga, a))
                    if tt:
                        meter.tick()
                        self.h_ll.apply_delta((a, be), mr * m * tt)
            else:
                for (a, _), mr in rh.slice_items((1,), be):
                    self._cascade_rs(a, ga, mr * m, be)
        for (_, a), mt in T.part("HH").slice_items((0,), ga):
            mr = rl.lookup((a, be))
            if mr:
                meter.tick()
                self.l_hh.apply_delta((a, be), mr * m * mt)
        self._close_tr(be, ga, m)

    def _update_t(self, label, key, m):
        ga, al = key
        R, S = self.parts["R"], self.parts["S"]
        rh, rl = R.part("H"), R.part("L")
        meter = self.meter
        if label[0] == "H":
            for (b, _), ms in self._slice_group(S, HEAVY2, (1,), ga):
                mr = rh.lookup((al, b))
                if mr:
                    meter.tick()
                    self.hhh.apply_delta((al, b), mr * ms * m)
            if label == "HH":
                for (_, b), mr in rl.slice_items((0,), al):
                    st = S.total((b, ga))
                    if st:
                        meter.tick()
                        self.l_hh.apply_delta((al, b), mr * st * m)
            else:
                for (_, b), mr in rl.slice_items((0,), al):
                    self._cascade_tr(ga, b, m * mr, al)
        else:
            for (_, b), mr in rl.slice_items((0,), al):
                ms = self._lookup_group(S, LIGHT2, (b, ga))
                if ms:
                    meter.tick()
                    self.lll.apply_delta((al, b), mr * ms * m)
            for (b, _), ms in self._slice_group(S, HEAVY2, (1,), ga):
                dv = ms * m
                self.st_agg.apply_delta((b, al), dv)
                rt = R.total((al, b))
                if rt:
                    meter.tick()
                    self.st_closed.apply_delta((al, b), rt * dv)
        for (b, _), ms in S.part("LL").slice_items((1,), ga):
            mr = rh.lookup((al, b))
            if mr:
                meter.tick()
                self.h_ll.apply_delta((al, b), mr * ms * m)
        self._close_rs(al, ga, m)

    # -- enumeration ------------------------------------------------------

    def candidate_buckets_rs(self, t):
        a, b = t
        out = []
        for (_, _, c), _v in self.pair_rs.slice_items((0, 1), (a, b)):
            if self.root_rs.lookup((c,)):
                out.append((c,))
        return out

    def candidate_buckets_tr(self, t):
        a, b = t
        out = []
        for (c, _, _), _v in self.pair_tr.slice_items((1, 2), (a, b)):
            if self.root_tr.lookup((c,)):
                out.append((c,))
        return out

    def open_union(self):
        check = self.guard()
        meter = self.meter
        iters = [
            KeyIterator(rel, check)
            for rel in (self.hhh, self.lll, self.h_ll, self.l_hh, self.st_closed)
        ]
        iters.append(HopUnionIterator(
            list(self.root_rs.entries),
            lambda k: RsBucket(self, k[0]),
            lambda k: self.bsz_rs.get(k[0], 0),
            self.candidate_buckets_rs,
            meter, check,
        ))
        iters.append(HopUnionIterator(
            list(self.root_tr.entries),
            lambda k: TrBucket(self, k[0]),
            lambda k: self.bsz_tr.get(k[0], 0),
            self.candidate_buckets_tr,
            meter, check,
        ))
        return UnionIterator(iters, meter, check)

    def multiplicity(self, pair):
        """Full aggregate value at one (a, b) pair, O(theta) slice walks."""
        al, be = pair
        S, T = self.parts["S"], self.parts["T"]
        meter = self.meter
        v = (
            self.hhh.lookup(pair)
            + self.lll.lookup(pair)
            + self.h_ll.lookup(pair)
            + self.l_hh.lookup(pair)
            + self.st_closed.lookup(pair)
        )
        rh = self.parts["R"].part("H").lookup(pair)
        if rh:
            for (_, c), ms in S.part("LH").slice_items((0,), be):
                tt = T.total((c, al))
                if tt:
                    meter.tick()
                    v += rh * ms * tt
        rl = self.parts["R"].part("L").lookup(pair)
        if rl:
            for (c, _), mt in T.part("HL").slice_items((1,), al):
                st = S.total((be, c))
                if st:
                    meter.tick()
                    v += rl * st * mt
        return v

    def enumerate_result(self):
        """Iterator of ((a, b), multiplicity), each pair exactly once."""
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
        rh = dict(R.part("H").items())
        rl = dict(R.part("L").items())
        s = {lab: dict(S.part(lab).items()) for lab in HEAVY2 + LIGHT2}
        t = {lab: dict(T.part(lab).items()) for lab in HEAVY2 + LIGHT2}

        def merge(parts):
            out = {}
            for d in parts:
                for k, v in d.items():
                    out[k] = out.get(k, 0) + v
            return out

        s_h = merge([s["HH"], s["HL"]])
        s_l = merge([s["LH"], s["LL"]])
        t_h = merge([t["HH"], t["HL"]])
        t_l = merge([t["LH"], t["LL"]])
        s_all = merge([s_h, s_l])
        t_all = merge([t_h, t_l])

        def agg2(rd, sd, td):
            out = {}
            for (a, b), mr in rd.items():
                for (b2, c), ms in sd.items():
                    if b2 != b:
                        continue
                    mt = td.get((c, a), 0)
                    if mt:
                        out[(a, b)] = out.get((a, b), 0) + mr * ms * mt
            return {k: v for k, v in out.items() if v != 0}

        exp = {
            "hhh": agg2(rh, s_h, t_h),
            "lll": agg2(rl, s_l, t_l),
            "h_ll": agg2(rh, s["LL"], t_all),
            "l_hh": agg2(rl, s_all, t["HH"]),
        }
        st_agg = {}
        for (b, c), ms in s_h.items():
            for (c2, a), mt in t_l.items():
                if c2 == c:
                    st_agg[(b, a)] = st_agg.get((b, a), 0) + ms * mt
        st_agg = {k: v for k, v in st_agg.items() if v != 0}
        r_all = merge([rh, rl])
        exp["st_agg"] = st_agg
        exp["st_closed"] = {
            (a, b): r_all[(a, b)] * v
            for (b, a), v in st_agg.items()
            if r_all.get((a, b)) and r_all[(a, b)] * v != 0
        }

        pair_rs = {}
        for (a, b), mr in rh.items():
            for (b2, c), ms in s["LH"].items():
                if b2 == b:
                    pair_rs[(a, b, c)] = pair_rs.get((a, b, c), 0) + mr * ms
        pair_rs = {k: v for k, v in pair_rs.items() if v != 0}
        hat_rs = {}
        for (a, _b, c), v in pair_rs.items():
            hat_rs[(a, c)] = hat_rs.get((a, c), 0) + v
        hat_rs = {k: v for k, v in hat_rs.items() if v != 0}
        closed_rs = {}
        root_rs = {}
        bsz_rs = {}
        for (a, c), v in hat_rs.items():
            tt = t_all.get((c, a), 0)
            if tt:
                closed_rs[(a, c)] = v * tt
                root_rs[(c,)] = root_rs.get((c,), 0) + v * tt
        for (a, c) in closed_rs:
            n = sum(1 for (a2, _b, c2) in pair_rs if a2 == a and c2 == c)
            bsz_rs[c] = bsz_rs.get(c, 0) + n
        exp["pair_rs"], exp["hat_rs"] = pair_rs, hat_rs
        exp["closed_rs"] = closed_rs
        exp["root_rs"] = {k: v for k, v in root_rs.items() if v != 0}
        exp["bsz_rs"] = bsz_rs

        pair_tr = {}
        for (c, a), mt in t["HL"].items():
            for (a2, b), mr in rl.items():
                if a2 == a:
                    pair_tr[(c, a, b)] = pair_tr.get((c, a, b), 0) + mt * mr
        pair_tr = {k: v for k, v in pair_tr.items() if v != 0}
        hat_tr = {}
        for (c, _a, b), v in pair_tr.items():
            hat_tr[(c, b)] = hat_tr.get((c, b), 0) + v
        hat_tr = {k: v for k, v in hat_tr.items() if v != 0}
        closed_tr = {}
        root_tr = {}
        bsz_tr = {}
        for (c, b), v in hat_tr.items():
            ss = s_all.get((b, c), 0)
            if ss:
                closed_tr[(b, c)] = v * ss
                root_tr[(c,)] = root_tr.get((c,), 0) + v * ss
        for (b, c) in closed_tr:
            n = sum(1 for (c2, _a, b2) in pair_tr if c2 == c and b2 == b)
            bsz_tr[c] = bsz_tr.get(c, 0) + n
        exp["pair_tr"], exp["hat_tr"] = pair_tr, hat_tr
        exp["closed_tr"] = closed_tr
        exp["root_tr"] = {k: v for k, v in root_tr.items() if v != 0}
        exp["bsz_tr"] = bsz_tr
        return exp

    def verify_views(self):
        exp = self.expected_state()
        got = {
            "hhh": dict(self.hhh.items()),
            "lll": dict(self.lll.items()),
            "h_ll": dict(self.h_ll.items()),
            "l_hh": dict(self.l_hh.items()),
            "st_agg": dict(self.st_agg.items()),
            "st_closed": dict(self.st_closed.items()),
            "pair_rs": dict(self.pair_rs.items()),
            "hat_rs": dict(self.hat_rs.items()),
            "closed_rs": dict(self.closed_rs.items()),
            "root_rs": dict(self.root_rs.items()),
            "bsz_rs": dict(self.bsz_rs),
            "pair_tr": dict(self.pair_tr.items()),
            "hat_tr": dict(self.hat_tr.items()),
            "closed_tr": dict(self.closed_tr.items()),
            "root_tr": dict(self.root_tr.items()),
            "bsz_tr": dict(self.bsz_tr),
        }
        for name in got:
            assert got[name] == exp[name], f"{name} drifted"
