"""Maintenance of the one-variable triangle aggregate Q(a) = sum_bc R*S*T.

R is partitioned on (A,B), S on B alone, T on (C,A). Seven fragments by
label pattern: four are materialized unary relations, two more live as
closed unary views over binary aggregates (trees rs and st, no pair
view), and the last (R in LH, T in HL) sits in a view tree without a
root whose top keys (b,c) drive one hop-union iterator with flat buckets
of A-values.
Result elements are 1-tuples (a,) to match the other engines' keyed
output.
"""

from __future__ import annotations

from trimaint.fragments import Direct, KeyedEngine, Tree


class UnaryEngine(KeyedEngine):
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
