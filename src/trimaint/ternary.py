"""Full triangle materialization with constant-delay enumeration.

The result splits into five disjoint fragments by the heavy/light labels
of the three participating tuples: all-heavy and all-light are stored in
one result relation, `res`, the three mixed patterns live in view trees.
Each tree joins a heavy part with the light part of the next relation
(pair view, arity 3), aggregates away the middle variable (hat view),
then closes the cycle with the third relation's total multiplicity (root
view). Roots drive enumeration: every root entry has at least one
matching pair tuple, so the walk never stalls.
"""

from __future__ import annotations

from trimaint.fragments import Direct, KeyedEngine, Tree


class TernaryEngine(KeyedEngine):
    query = "d3"
    out = "abc"
    direct = (
        # R, S, T label groups, side walked on an R, S, T update
        Direct("H", "H", "H", "PPP"),
        Direct("L", "L", "L", "NNN"),
    )
    trees = (
        # left, left group, right group, hat, top key, pair, top
        Tree("R", "H", "L", "hat_rs", "ac", "pair_rs", "root_rs"),
        Tree("S", "H", "L", "hat_st", "ab", "pair_st", "root_st"),
        Tree("T", "H", "L", "hat_tr", "bc", "pair_tr", "root_tr"),
    )

    # -- enumeration ------------------------------------------------------

    def enumerate_result(self):
        """Return an iterator of ((a, b, c), multiplicity), one per triple.

        The version guard is pinned here, not at first consumption, so an
        update between open and first next() already invalidates it.
        """
        return self._enumerate(self.guard())

    def _enumerate(self, check):
        # checked before any walk advances: an update can rebuild its dict
        meter = self.meter
        check()
        for key, mult in self.res.items():
            yield key, mult
            check()
        for t in self.trees:
            third = self.parts[t.third]
            pair, abc = getattr(self, t.pair), t.abc_of
            for rk, _ in getattr(self, t.top).items():
                x, z = t.hat_of(rk)
                tm = third.total((z, x))
                # a pair entry holds left(x, y) * right(y, z)
                for pk, pv in pair.slice_items((0, 2), (x, z)):
                    meter.total += 1
                    yield abc(pk), pv * tm
                    check()
