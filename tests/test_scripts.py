"""Every script under scripts/ starts and prints its usage, so an API the
scripts import cannot vanish unnoticed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(script), "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ab_pairs_compare_gives_claims_and_regression_verdicts():
    compare = load_script("ab_pairs").compare
    metrics = [{"name": name, "better": better, "bound": 0.25} for name, better in (
        ("flat", "higher"), ("slower", "higher"), ("faster", "lower"),
        ("noisy", "lower"), ("noisy_but_better", "lower"))]
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    parent_runs = [dict(flat=p, slower=p, faster=p, noisy=w, noisy_but_better=w)
                   for p, w in zip(parent, wide)]
    change_runs = [dict(flat=p + 1, slower=0.7 * p, faster=0.8 * p, noisy=w + 5,
                        noisy_but_better=w / 3) for p, w in zip(parent, wide)]
    out = compare(parent_runs, change_runs, metrics)
    assert {name: (r[2], r[3], r[4]) for name, r in out.items()} == {
        # a 1% rise wins every pair but not by the parent's spread
        "flat": (10, False, "ok"),
        # 30% lower where higher is better: past the 25% bound
        "slower": (0, False, "worse"),
        "faster": (10, True, "ok"),
        # the parent's quartiles are 35 apart, wider than the bound
        "noisy": (0, False, "unresolved"),
        # every change run reads better than every parent run
        "noisy_but_better": (10, True, "ok"),
    }
    assert out["flat"][0] == (99.25, 100.0, 100.75)


def test_state_bytes_reports_the_totals_maps_apart():
    mod = load_script("state_bytes")
    from trimaint.driver import make_engine
    from trimaint.partition import DoublePartition

    db = {(a, b): 1 for a in range(12) for b in range(a % 5 + 1)}
    for query, double in (("d0", False), ("d0", True), ("d1", False), ("d2", False)):
        eng = make_engine(query, 0.5, double=double, rd=db, sd=db, td=db)
        maps = [p.totals for p in eng.parts.values() if isinstance(p, DoublePartition)]
        out, _ = mod.measure(eng)
        assert list(out) == list(mod.ROWS)
        assert out["totals maps"] == sum(map(sys.getsizeof, maps))
        assert (out["totals maps"] > 0) == bool(maps)
        # the maps share the parts' key tuples, which count once
        keyed = {id(k) for p in eng.parts.values() for r in p.parts.values() for k in r.entries}
        assert all(id(k) in keyed for t in maps for k in t)
