"""Every function, method and class defined under src/trimaint is used by
name somewhere in src/ code, or kept on purpose with its reason.

A use is a bare name (a call, a reference, a base class) or an attribute
of that name (`x.name`), other than the definition itself. Dunder methods
are called by the language and count as used. The check cannot tell a
method from another attribute of the same name: a `Relation.items` that
nothing calls passes, because `dict.items` is called, and so would an
unused `total` (the meter's field) or `contains` (the iterators').
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trimaint"
TRACER = ROOT / "bench" / "tracer.py"

KEEP = {
    # spanned by name by bench/tracer.py's TARGETS; the kernels read the
    # maps directly (ROADMAP item 5)
    "lookup": "bench/tracer.py spans it",
    "slice_count": "bench/tracer.py spans it",
    "slice_head": "bench/tracer.py spans it",
    "slice_next": "bench/tracer.py spans it",
    # d1's and d2's read runs the union's absorb loop inline
    # (KeyedEngine._enumerate); the tests' reference loop uses them
    "UnionIterator": "bench/tracer.py spans its next",
    "KeyIterator": "bench/tracer.py spans its next",
    # API for the tests, the bench or users of the package
    "check_invariants": "the driver's audit, run by the tests and the soak",
    "format_update": "writes a stream file, the inverse of parse_stream",
    "oracle_triangle": "the tests' and the bench's brute-force reference",
    "oracle_oumv": "the tests' reference for the oumv command",
}


def definitions_and_uses():
    defs, uses = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
    return defs, uses


def test_every_definition_is_used_or_kept():
    defs, uses = definitions_and_uses()
    unused = {name: where for name, where in defs.items()
              if name not in uses and name not in KEEP
              and not (name.startswith("__") and name.endswith("__"))}
    assert not unused, f"defined in src/ but used nowhere there: {unused}"


def test_every_kept_name_is_defined_and_unused():
    # a name that src/ now uses, or no longer defines, leaves the list
    defs, uses = definitions_and_uses()
    assert set(KEEP) <= set(defs) - uses


def tracer_names():
    """The owners and attributes named in bench/tracer.py's TARGETS, read
    from the file's source: nothing under bench/ is imported."""
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {name for _, owner, attr, *_ in ast.literal_eval(node.value)
                    for name in (owner, attr) if name is not None}
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_tracer_reason_is_a_tracer_target():
    # a name kept for the tracer's sake leaves the list once the tracer
    # no longer names it
    names = tracer_names()
    stale = {name for name, why in KEEP.items() if "bench/tracer.py" in why} - names
    assert not stale, f"kept for bench/tracer.py, which does not name them: {stale}"
