"""Span tracing of the library's public functions, from outside the library.

`Tracer.install()` wraps the functions named in `TARGETS` in place, on the
classes and in every trimaint module that bound them by `from ... import`,
and `uninstall()` puts the originals back; nothing under src/ changes.

A span is one call (or, for a generator, one resumption). Spans are not
kept: each one is folded into a row keyed by (span name, parent span name)
that sums calls, wall ns, ns of child spans, metered ops (read from
`CostMeter.total` at both ends), ops of child spans and outcome counts, so
self time is duration minus child spans. Majors and minors become spans
through the `Driver.observers` hook. The tracer's own cost per span is
measured once (`calibrate`) and taken out of every recorded time, so times
approximate an untraced run; `trace.overhead_frac` reports what is left.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module

from trimaint.iterators import EOF
from trimaint.store import CostMeter

# (module, owner class or None for a module function, attribute, span name,
#  kind). kind "call" times a call; "gen" times each resumption of the
#  generator a call returns and counts its items; the other kinds are calls
#  whose return value adds to the row's outcome count.
TARGETS = (
    ("store", "Relation", "apply_delta", "store.apply_delta", "call"),
    ("store", "Relation", "lookup", "store.lookup", "call"),
    ("store", "Relation", "slice_count", "store.slice_count", "call"),
    ("store", "Relation", "slice_items", "store.slice_items", "gen"),
    ("store", "Relation", "slice_head", "store.slice_step", "call"),
    ("store", "Relation", "slice_next", "store.slice_step", "call"),
    ("store", "Relation", "items", "store.items", "gen"),
    ("partition", "SinglePartition", "affected_label", "partition.affected_label", "call"),
    ("partition", "DoublePartition", "affected_label", "partition.affected_label", "call"),
    ("partition", "SinglePartition", "violation", "partition.violation", "call"),
    ("partition", "DoublePartition", "violation", "partition.violation", "call"),
    ("partition", "SinglePartition", "total", "partition.total", "call"),
    ("partition", "DoublePartition", "total", "partition.total", "call"),
    ("partition", None, "strict_single", "partition.strict_build", "call"),
    ("partition", None, "strict_double", "partition.strict_build", "call"),
    ("joins", None, "triangle_products", "joins.triangle_products", "gen"),
    ("nullary", "NullaryEngine", "apply_update", "nullary.apply_update", "call"),
    ("unary", "UnaryEngine", "apply_update", "unary.apply_update", "call"),
    ("binary", "BinaryEngine", "apply_update", "binary.apply_update", "call"),
    ("ternary", "TernaryEngine", "apply_update", "ternary.apply_update", "call"),
    ("nullary", "NullaryEngine", "rebuild", "nullary.rebuild", "call"),
    ("unary", "UnaryEngine", "rebuild", "unary.rebuild", "call"),
    ("binary", "BinaryEngine", "rebuild", "binary.rebuild", "call"),
    ("ternary", "TernaryEngine", "rebuild", "ternary.rebuild", "call"),
    ("unary", "UnaryEngine", "open_union", "unary.enum.open", "call"),
    ("binary", "BinaryEngine", "open_union", "binary.enum.open", "call"),
    ("ternary", "TernaryEngine", "enumerate_result", "ternary.enum.open", "call"),
    ("unary", "UnaryEngine", "multiplicity", "unary.multiplicity", "call"),
    ("binary", "BinaryEngine", "multiplicity", "binary.multiplicity", "call"),
    ("driver", "Driver", "on_update", "driver.on_update", "call"),
    ("driver", "Driver", "move_tuples", "driver.move_tuples", "count"),
    ("iterators", "UnionIterator", "next", "iterators.union.next", "call"),
    ("iterators", "HopUnionIterator", "next", "iterators.hop_union.next", "emit"),
    ("iterators", "HopIterator", "next", "iterators.hop.next", "call"),
    ("iterators", "HopIterator", "exclude", "iterators.hop.exclude", "count"),
    ("iterators", "KeyIterator", "next", "iterators.key.next", "call"),
)

# row fields
CALLS, NS, CHILD_NS, OPS, CHILD_OPS, OUT = range(6)


def _outcome(kind, result):
    if kind == "count":
        return int(result)
    if kind == "emit":
        return result is not EOF
    return 0


class Tracer:
    """Aggregated span rows for one engine's meter, plus the patches."""

    def __init__(self):
        self.meter = None  # CostMeter of the engine under trace
        self.rows = {}  # (name, parent name or "-") -> [calls, ns, child_ns, ops, child_ops, out]
        # open frames: [name, child_ns, child_ops, t0, ops0, tracer ns of descendants]
        self._stack = []
        self._saved = []
        # tracer ns per span, by whether it is a generator step: the part
        # inside the span's own interval, and all of it
        self._costs = {False: (0, 0), True: (0, 0)}

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        self._stack.append([name, 0, 0, time.perf_counter_ns(), self.meter.total, 0])

    def end(self, calls=1, out=0, step=False):
        t1 = time.perf_counter_ns()
        name, child_ns, child_ops, t0, ops0, traced_ns = self._stack.pop()
        inner, full = self._costs[step]
        # the interval holds this span's own tracer cost and that of every
        # descendant span; both come out of the recorded time
        ns = t1 - t0 - inner - traced_ns
        ops = self.meter.total - ops0
        stack = self._stack
        parent = stack[-1] if stack else None
        key = (name, parent[0] if parent else "-")
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0, 0, 0, 0, 0, 0]
        row[CALLS] += calls
        row[NS] += ns
        row[CHILD_NS] += child_ns
        row[OPS] += ops
        row[CHILD_OPS] += child_ops
        row[OUT] += out
        if parent:
            parent[1] += ns
            parent[2] += ops
            parent[5] += traced_ns + full

    def calibrate(self, n=20000, repeats=5):
        """Measure the tracer's cost per span, which `end` then subtracts.

        Times n traced calls of a two-argument no-op, and n traced steps of a generator,
        against plain ones; the recorded intervals of the traced ones are
        the part of that cost inside a span. The fastest repeat counts.
        """
        meter, rows = self.meter, self.rows
        self.meter = CostMeter()
        self._costs = {False: (0, 0), True: (0, 0)}
        cases = (
            (False, _calls, _noop, self._wrap(_noop, "calibrate", "call")),
            (True, _drain, _items, self._wrap(_items, "calibrate", "gen")),
        )
        costs = {}
        clock = time.perf_counter_ns
        try:
            for _ in range(repeats):
                for step, run, plain, traced in cases:
                    self.rows = {}
                    t0 = clock()
                    run(plain, n)
                    t1 = clock()
                    run(traced, n)
                    t2 = clock()
                    full = ((t2 - t1) - (t1 - t0)) / n
                    inner = sum(r[NS] for r in self.rows.values()) / n
                    if step not in costs or full < costs[step][1]:
                        costs[step] = (inner, full)
        finally:
            self.meter, self.rows = meter, rows
        self._costs = costs

    def observe(self, event, _driver):
        """`Driver.observers` hook: majors and minors as spans."""
        kind, edge = event.split(":")
        if edge == "before":
            self.begin("driver." + kind)
        else:
            self.end()

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, kind):
        begin, end = self.begin, self.end
        if kind == "gen":
            def traced(*args, **kwargs):
                begin(name)
                end()
                return self._steps(name, fn(*args, **kwargs))
        elif kind == "call":
            def traced(*args, **kwargs):
                begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()
        else:
            def traced(*args, **kwargs):
                begin(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end(out=_outcome(kind, result))
        traced.__wrapped__ = fn
        return traced

    def _steps(self, name, gen):
        # the call was counted when the generator was made; each
        # resumption is a span that adds time and items but no call
        begin, end = self.begin, self.end
        while True:
            begin(name)
            try:
                item = next(gen)
            except StopIteration:
                end(calls=0, step=True)
                return
            except BaseException:
                end(calls=0, step=True)
                raise
            end(calls=0, out=1, step=True)
            yield item

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, owner_name, attr, name, kind in TARGETS:
            mod = import_module("trimaint." + mod_name)
            if owner_name is None:
                orig = getattr(mod, attr)
                traced = self._wrap(orig, name, kind)
                for other in _trimaint_modules():
                    if other.__dict__.get(attr) is orig:
                        self._saved.append((other, attr, orig))
                        setattr(other, attr, traced)
            else:
                owner = getattr(mod, owner_name)
                orig = getattr(owner, attr)
                # inherited methods are patched on the subclass and deleted
                # again on uninstall
                self._saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self._wrap(orig, name, kind))

    def uninstall(self):
        for obj, attr, orig in reversed(self._saved):
            if orig is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)
        self._saved.clear()


def _noop(a, b):
    pass


def _items(n):
    for _ in range(n):
        yield None


def _calls(fn, n):
    for i in range(n):
        fn(i, n)


def _drain(gen_fn, n):
    for _ in gen_fn(n):
        pass


def merge(rows, by_name=False):
    """Sum (key, row) pairs by key, or by span name over all parents."""
    out = {}
    for key, row in rows:
        acc = out.setdefault(key[0] if by_name else key, [0] * 6)
        for i, v in enumerate(row):
            acc[i] += v
    return out


def _trimaint_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("trimaint.")]
