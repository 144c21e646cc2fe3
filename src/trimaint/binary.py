"""Maintenance of the two-variable triangle aggregate Q(a,b) = sum_c R*S*T.

R is partitioned on A alone; S and T on both their columns, so labels
carry two letters (first letter: B-class for S, C-class for T). The
result splits into seven fragments by label pattern. Five are
materialized pair relations enumerated directly (four direct fragments
and the closed view of tree st); two live in view trees rs and tr whose
roots group results under heavy C-values and are enumerated with
hop-union iterators over two-level buckets. Emission multiplicity is
reassembled per pair from the five materialized values plus two bounded
slice walks, so the stored fragments never need to agree on how they
split a pair's total.
"""

from __future__ import annotations

from trimaint.fragments import Direct, FragmentEngine, Tree, projector
from trimaint.iterators import HopUnionIterator


class Bucket:
    """Two-level bucket of (a, b) pairs for one heavy c of tree rs or tr:
    level 1 walks the closed view sliced at c, level 2 walks the pair view
    sliced at the (x, z) of each closed entry."""

    def __init__(self, closed, pair, c, keys):
        self._closed = closed
        self._pair = pair
        self._c = c
        self._hat, self._pk, self._ck, self._elem = keys

    def _head(self, ck):
        if ck is None:
            return None
        return self._elem(self._pair.slice_head((0, 2), self._hat(ck)))

    def first(self):
        return self._head(self._closed.slice_head((1,), self._c))

    def successor(self, x):
        abc = x + (self._c,)
        nk = self._pair.slice_next((0, 2), self._pk(abc))
        if nk is not None:
            return self._elem(nk)
        return self._head(self._closed.slice_next((1,), self._ck(abc)))

    def contains(self, x):
        abc = x + (self._c,)
        return (
            self._closed.lookup(self._ck(abc)) != 0
            and self._pair.lookup(self._pk(abc)) != 0
        )


class BinaryEngine(FragmentEngine):
    query = "d2"
    out = "ab"
    direct = (
        # view, R, S, T label groups, side walked on an R, S, T update
        Direct("hhh", "H", "H*", "H*", "PPP"),
        Direct("lll", "L", "L*", "L*", "NNN"),
        Direct("h_ll", "H", "LL", "*", "NPP"),
        Direct("l_hh", "L", "*", "HH", "PNN"),
    )
    trees = (
        # left, left group, right group, pair, hat, top, top key[, root, root key]
        Tree("S", "H*", "L*", None, "st_agg", "st_closed", "ab"),
        Tree("R", "H", "LH", "pair_rs", "hat_rs", "closed_rs", "ac", "root_rs", "c"),
        Tree("T", "HL", "L", "pair_tr", "hat_tr", "closed_tr", "bc", "root_tr", "c"),
    )

    # -- enumeration ------------------------------------------------------

    def _candidates(self, tree):
        """Candidate-bucket function of tree rs or tr: the root values c
        whose bucket may hold a given (a, b)."""
        pair, root = getattr(self, tree.pair), getattr(self, tree.root)
        cols, i = tuple(map(tree.xyz.index, "ab")), tree.xyz.index("c")

        def candidates(t):
            out = []
            for pk, _v in pair.slice_items(cols, t):
                if root.lookup((pk[i],)):
                    out.append((pk[i],))
            return out

        return candidates

    def candidate_buckets_rs(self, t):
        return self._candidates(self.trees[1])(t)

    def candidate_buckets_tr(self, t):
        return self._candidates(self.trees[2])(t)

    def _hop_union(self, tree, check):
        closed, pair, bsz = (getattr(self, n) for n in (tree.top, tree.pair, tree.bsz))
        # closed key -> (x, z), (a, b, c) -> pair key and closed key, pair key -> (a, b)
        keys = (tree.hat_of, projector("abc", tree.xyz), projector("abc", tree.key),
                projector(tree.xyz, "ab"))
        return HopUnionIterator(
            getattr(self, tree.root).entries,
            lambda k: Bucket(closed, pair, k[0], keys),
            lambda k: bsz.get(k[0], 0),
            self._candidates(tree),
            self.meter, check,
        )

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
