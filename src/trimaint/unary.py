"""Maintenance of the one-variable triangle aggregate Q(a) = sum_bc R*S*T.

R is partitioned on (A,B), S on B alone, T on (C,A). Seven fragments by
label pattern: four are materialized unary relations, two more live as
closed unary views over binary aggregates (trees rs and st, no pair
view), and the last (R in LH, T in HL) sits in a view tree whose root
keys (b,c) drive one hop-union iterator with flat buckets of A-values.
Result elements are 1-tuples (a,) to match the other engines' keyed
output.
"""

from __future__ import annotations

from trimaint.fragments import Direct, FragmentEngine, Tree
from trimaint.iterators import HopUnionIterator, MappedSliceCollection


class UnaryEngine(FragmentEngine):
    query = "d1"
    out = "a"
    direct = (
        # view, R, S, T label groups, side walked on an R, S, T update
        Direct("hhh", "H*", "H", "H*", "PPP"),
        Direct("lll", "L*", "L", "L*", "NNN"),
        Direct("ll_h", "LL", "*", "H*", "PPN"),
        Direct("lh_hh", "LH", "*", "HH", "PNN"),
    )
    trees = (
        # left, left group, right group, pair, hat, top, top key
        Tree("R", "H*", "L", None, "rs_agg", "rs_closed", "a"),
        Tree("S", "H", "L*", None, "st_agg", "st_closed", "a"),
        Tree("T", "HL", "LH", "pair_tr", "hat_tr", "root_tr", "bc"),
    )

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

    def _hop_union(self, tree, check):
        return HopUnionIterator(
            list(self.root_tr.entries),
            self._open_bucket,
            self._bucket_size,
            self.candidate_buckets,
            self.meter, check,
        )

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
