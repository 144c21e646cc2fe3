"""Shared engine plumbing: threshold, version counter, rebuild protocol, audit."""

from __future__ import annotations

import copy

from trimaint.partition import Threshold
from trimaint.store import CostMeter, RejectedDelete, Relation
from trimaint.iterators import StaleIterator


class EngineBase:
    """Common state for the per-query maintenance engines.

    Subclasses provide:

      * `_build_partitions(rel_items)`: fresh strict partitions in `parts`;
      * `_recompute_views()`: the init path, every view computed from the
        current parts. It rebinds each view attribute to a new object and
        mutates no part, so it can run on a shallow copy;
      * `view_names`: the attributes that hold views (Relations, dicts of
        ints, or ints), all of which the init path sets;
      * `apply_update(rel, label, key, m)`.

    `fragments.FragmentEngine` provides all four from a fragment table,
    and every query variant (d0 single and double, d1, d2, d3) is one.
    The driver owns threshold-base management and rebalancing; engines
    only apply updates and rebuild.
    """

    query = None
    view_names = ()

    def __init__(self, epsilon, meter=None):
        self.epsilon = epsilon
        self.meter = meter if meter is not None else CostMeter()
        self.threshold = Threshold(1, epsilon)
        self.version = 0
        self.parts = {}

    @classmethod
    def from_database(cls, rd, sd, td, epsilon, meter=None):
        """Build a state for an existing database: N = 2|D|+1, strict parts."""
        eng = cls(epsilon, meter)
        items = {
            "R": list(rd.items()),
            "S": list(sd.items()),
            "T": list(td.items()),
        }
        n = sum(len(v) for v in items.values())
        eng.rebuild(items, 2 * n + 1)
        return eng

    def rebuild(self, rel_items, N):
        """Strictly repartition from scratch and recompute every view."""
        self.threshold.rebase(N)
        self._build_partitions(rel_items)
        self._recompute_views()
        self.version += 1

    def db_size(self):
        parts = self.parts
        return parts["R"].size() + parts["S"].size() + parts["T"].size()

    def rel_items(self):
        return {name: list(p.items()) for name, p in self.parts.items()}

    def verify_views(self):
        """Raise AssertionError unless every view equals its recomputation.

        The views are recomputed from the current parts through the init
        path, on a shallow copy, so parts, views and version stay as they
        are; the meter is charged for the recomputation.
        """
        fresh = copy.copy(self)
        fresh._recompute_views()
        for name in self.view_names:
            if _contents(getattr(self, name)) != _contents(getattr(fresh, name)):
                raise AssertionError(f"view {name} drifted")

    def guard(self):
        """Version check callable for enumeration iterators."""
        v = self.version

        def check():
            if self.version != v:
                raise StaleIterator(f"state advanced past version {v}")

        return check

    def precheck_delete(self, rel, label, key, m):
        """Raise RejectedDelete before any mutation if the part would go negative."""
        if m < 0 and self.parts[rel].part(label).lookup(key) + m < 0:
            raise RejectedDelete(f"{rel}^{label}{key} {m:+d}")


def _contents(view):
    return view.entries if isinstance(view, Relation) else view
