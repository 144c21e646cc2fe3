"""Maintenance of the two-variable triangle aggregate Q(a,b) = sum_c R*S*T.

R is partitioned on A alone; S and T on both their columns, so labels
carry two letters (first letter: B-class for S, C-class for T). The
result splits into seven fragments by label pattern. Five (four direct
fragments and the closed view of tree st) add into one materialized pair
relation, `res`, enumerated by key; two live in view trees rs and tr,
enumerated with hop-union iterators over two-level buckets: a bucket is
the slice of the tree's top view at one heavy C-value, on the top's
linked index on c. Emission multiplicity is
reassembled per pair from its value in `res` plus the pair views of
trees rs and tr sliced at the pair, each entry closed by the third
relation's total, so the stored fragments never need to agree on how
they split a pair's total.
"""

from __future__ import annotations

from trimaint.fragments import Direct, KeyedEngine, Tree


class BinaryEngine(KeyedEngine):
    query = "d2"
    out = "ab"
    direct = (
        # R, S, T label groups, side walked on an R, S, T update
        Direct("H", "H*", "H*", "PPP"),
        Direct("L", "L*", "L*", "NNN"),
        Direct("H", "LL", "*", "NPP"),
        Direct("L", "*", "HH", "PNN"),
    )
    trees = (
        # left, left group, right group, hat, top key[, pair, top, root key]
        Tree("S", "H*", "L*", "st_agg", "ab"),
        Tree("R", "H", "LH", "hat_rs", "ac", "pair_rs", "closed_rs", "c"),
        Tree("T", "HL", "L", "hat_tr", "bc", "pair_tr", "closed_tr", "c"),
    )
