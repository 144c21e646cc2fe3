"""Maintenance of the one-variable triangle aggregate Q(a) = sum_bc R*S*T.

R is partitioned on (A,B), S on B alone, T on (C,A). Seven fragments by
label pattern: four direct fragments and the closed unary views of two
binary aggregates (trees rs and st, no pair view) all add into one
materialized unary relation, `res`, and the last (R in LH, T in HL) sits
in a view tree without a root whose top keys (b,c) drive one hop-union
iterator with flat buckets of A-values.
Result elements are 1-tuples (a,) to match the other engines' keyed
output.
"""

from __future__ import annotations

from trimaint.fragments import Direct, KeyedEngine, Tree


class UnaryEngine(KeyedEngine):
    query = "d1"
    out = "a"
    direct = (
        # R, S, T label groups, side walked on an R, S, T update
        Direct("H*", "H", "H*", "PPP"),
        Direct("L*", "L", "L*", "NNN"),
        Direct("LL", "*", "H*", "PPN"),
        Direct("LH", "*", "HH", "PNN"),
    )
    trees = (
        # left, left group, right group, hat, top key[, pair, top]
        Tree("R", "H*", "L", "rs_agg", "a"),
        Tree("S", "H", "L*", "st_agg", "a"),
        Tree("T", "HL", "LH", "hat_tr", "bc", "pair_tr", "root_tr"),
    )
