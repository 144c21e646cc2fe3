"""Full triangle materialization with constant-delay enumeration.

The result splits into five disjoint fragments by the heavy/light labels
of the three participating tuples: all-heavy and all-light are stored in
one result relation, `res`, the three mixed patterns live in view trees.
Each tree joins a heavy part with the light part of the next relation
(pair view, arity 3), aggregates away the middle variable (hat view),
then closes the cycle with the third relation's total multiplicity (root
view). Roots drive enumeration: every root entry has at least one
matching pair tuple, so the walk never stalls.

Enumeration is one generator over maps bound once per build (see
`_bind_read`): `res`'s entries, then per tree its top's entries and, at
each top entry, the pair's (0, 2) slice. It reads those maps directly,
checks the engine version itself after every tuple, and charges what the
method calls it replaces would: a tick per entry stepped (as
`Relation.items` and `slice_items` do), one per getter of the third
relation's `total_gets` for its total (two: d3's partitions are single)
and one per pair slice opened.
"""

from __future__ import annotations

from trimaint.fragments import Direct, FragmentEngine, Tree
from trimaint.iterators import stale


class TernaryEngine(FragmentEngine):
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

        The version is pinned here, not at first consumption, so an update
        between open and first next() already invalidates it: the next
        next() raises StaleIterator, as it does after any update.
        """
        return self._enumerate(self.version, self._enum or self._bind_read())

    def _bind_read(self):
        """Bind the enumeration to this build's views and parts: (`res`'s
        entries, per tree (top entries, the pair's (0, 2) slices map and
        entries, top key -> (x, z), pair key -> (a, b, c), the third
        relation's `total_gets`))."""
        trees = []
        for t in self.trees:
            pair = getattr(self, t.pair)
            trees.append((getattr(self, t.top).entries, pair.hash_slices((0, 2)), pair.entries,
                          t.hat_of, t.abc_of, self.parts[t.third].total_gets))
        self._enum = (self.res.entries, tuple(trees))
        return self._enum

    def _enumerate(self, version, read):
        # checked before any walk advances: an update can rebuild its dict
        meter, (res, trees) = self.meter, read
        if self.version != version:
            raise stale(version)
        for kv in res.items():
            meter.total += 1
            yield kv
            if self.version != version:
                raise stale(version)
        for top, slices, pairs, hat_of, abc, gets in trees:
            # per top entry: its step, the third's total and the slice open
            opened = 2 + len(gets)
            for rk in top:
                x, z = hat_of(rk)
                zx, tm = (z, x), 0
                for get in gets:
                    tm += get(zx, 0)
                meter.total += opened
                # a pair entry holds left(x, y) * right(y, z)
                for pk in slices.get((x, z), ()):
                    meter.total += 2
                    yield abc(pk), pairs[pk] * tm
                    if self.version != version:
                        raise stale(version)
