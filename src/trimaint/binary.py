"""Maintenance of the two-variable triangle aggregate Q(a,b) = sum_c R*S*T.

R is partitioned on A alone; S and T on both their columns, so labels
carry two letters (first letter: B-class for S, C-class for T). The
result splits into seven fragments by label pattern. Five are
materialized pair relations enumerated directly (four direct fragments
and the closed view of tree st); two live in view trees rs and tr whose
roots group results under heavy C-values and are enumerated with
hop-union iterators over two-level buckets. Emission multiplicity is
reassembled per pair from the five materialized values plus the pair
views of trees rs and tr sliced at the pair, each entry closed by the
third relation's total, so the stored fragments never need to agree on
how they split a pair's total.
"""

from __future__ import annotations

from trimaint.fragments import Direct, KeyedEngine, Tree


class BinaryEngine(KeyedEngine):
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
