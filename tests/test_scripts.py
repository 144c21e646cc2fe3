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


# every script, and every subcommand of costs.py
HELP = [[p.name] for p in SCRIPTS] + [["costs.py", cost] for cost in ("delay", "space", "update")]


@pytest.mark.parametrize("argv", HELP, ids="-".join)
def test_script_help_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:], "--help"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_sweep_labels_the_double_partitioned_count():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep.py"), "--sizes", "64",
                           "--epsilons", "0.5", "--queries", "d0,d0double"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, single, double = [line.split(",") for line in proc.stdout.splitlines()]
    assert (single[0], double[0]) == ("d0", "d0double")
    # the same stream and count; a double partition routes on both columns
    col = {name: i for i, name in enumerate(header)}
    assert single[col["db_size"]] == double[col["db_size"]]
    assert single[col["total"]] != double[col["total"]]


@pytest.mark.parametrize("decoy", [False, True])
def test_sweep_runs_the_library_of_its_checkout(tmp_path, decoy):
    # from outside the checkout with no PYTHONPATH, or with a decoy
    # trimaint package (an installed copy) first on it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if decoy:
        (tmp_path / "trimaint").mkdir()
        (tmp_path / "trimaint" / "__init__.py").write_text("raise ImportError('decoy')\n")
        env["PYTHONPATH"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep.py"), "--sizes", "64",
                           "--epsilons", "0.5", "--queries", "d1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, row = [line.split(",") for line in proc.stdout.splitlines()]
    assert (header[0], row[0]) == ("query", "d1")


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
    # a metric that does not spread: a gain must also pass the bound
    steady = [{"name": "state_bytes_per_tuple", "better": "lower", "bound": 0.2}]
    for before, after, claim in ((397.6, 397.5, False), (241.1, 241.1, False),
                                 (397.6, 300.0, True)):
        out = compare([{"state_bytes_per_tuple": before}] * 10,
                      [{"state_bytes_per_tuple": after}] * 10, steady)
        assert out["state_bytes_per_tuple"][3] is claim, (before, after)
        assert out["state_bytes_per_tuple"][4] == "ok"


def test_state_bytes_reports_the_totals_maps_apart():
    mod = load_script("costs")
    from trimaint.driver import make_engine
    from trimaint.partition import DoublePartition

    db = {(a, b): 1 for a in range(12) for b in range(a % 5 + 1)}
    for query, double in (("d0", False), ("d0", True), ("d1", False), ("d2", False)):
        eng = make_engine(query, 0.5, double=double, rd=db, sd=db, td=db)
        maps = [p.totals for p in eng.parts.values() if isinstance(p, DoublePartition)]
        out, _ = mod.state_bytes(eng)
        assert list(out) == list(mod.ROWS)
        assert out["totals maps"] == sum(map(sys.getsizeof, maps))
        assert (out["totals maps"] > 0) == bool(maps)
        # the maps share the parts' key tuples, which count once
        keyed = {id(k) for p in eng.parts.values() for r in p.parts.values() for k in r.entries}
        assert all(id(k) in keyed for t in maps for k in t)


def printed_rows(capsys):
    """The rows, split on blanks, of the table a costs.py subcommand
    printed below its two header lines."""
    return [line.split() for line in capsys.readouterr().out.splitlines()[2:]]


def test_costs_delay_counts_pair_slice_walks(capsys):
    from trimaint import fragments

    pair_rule = fragments._pair_rule
    assert load_script("costs").main(["delay", "--workload", "singles-shrink", "--seed", "8"]) == 0
    assert fragments._pair_rule is pair_rule
    rows = printed_rows(capsys)
    assert [r[0] for r in rows] == ["d1", "d2", "d3"]
    # d1's and d2's walks are counted only while the wrapper of
    # `fragments._pair_rule` finds each rule's pair view
    for query, tuples, ops, walks, gap in rows:
        assert int(tuples) > 0 and float(ops) > 0 and int(gap) > 0
        assert float(walks) > 0


def test_costs_update_prints_every_variant_and_its_gap(capsys, monkeypatch):
    mod = load_script("costs")
    monkeypatch.setattr(mod, "REPEATS", 1)
    monkeypatch.setattr(mod, "PAIRS", 10)
    assert mod.main(["update"]) == 0
    rows = printed_rows(capsys)
    assert [" ".join(r[:-3]) for r in rows] == ["d0", "d0 double", "d1", "d2", "d3"]
    for row in rows:
        on_update, apply_update, gap = map(float, row[-3:])
        # each printed to two places, so the difference may be off by one
        assert abs(gap - (on_update - apply_update)) <= 0.0101
