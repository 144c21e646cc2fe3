"""Triangle-count maintenance over single- or double-partitioned relations.

The count splits into five fragments by the heavy/light labels of the
three tuples in a triangle, as the full result does: all-heavy and
all-light are direct fragments, and the mixed patterns are three view
trees without a pair view. Each tree's hat, R^H⋈S^L, S^H⋈T^L or T^H⋈R^L
summed over the middle variable, is one of the paper's three views, and
its top is the count. Double partitioning keeps the same fragments over
the parts grouped by their first letter.
"""

from __future__ import annotations

from trimaint.fragments import Direct, FragmentEngine, Tree


class NullaryEngine(FragmentEngine):
    """Count maintenance with R, S, T each single-partitioned."""

    query = "d0"
    direct = (
        # R, S, T label groups, side walked on an R, S, T update
        Direct("H", "H", "H", "PPP"),
        Direct("L", "L", "L", "NNN"),
    )
    trees = (
        # left, left group, right group, hat, top key
        Tree("R", "H", "L", "hat_rs", ""),
        Tree("S", "H", "L", "hat_st", ""),
        Tree("T", "H", "L", "hat_tr", ""),
    )

    def query_result(self):
        self.meter.total += 1
        return self.count


class NullaryDoubleEngine(NullaryEngine):
    """Count maintenance with R, S, T double-partitioned on both columns."""

    direct = (
        Direct("H*", "H*", "H*", "PPP"),
        Direct("L*", "L*", "L*", "NNN"),
    )
    trees = (
        Tree("R", "H*", "L*", "hat_rs", ""),
        Tree("S", "H*", "L*", "hat_st", ""),
        Tree("T", "H*", "L*", "hat_tr", ""),
    )
