import csv
import random
import sys

import pytest

from trimaint import cli
from trimaint.cli import (
    main,
    measure_delay,
    solve_oumv,
    static_ternary,
    verify_stream,
)
from trimaint.oracle import RefMaintainer, oracle_oumv, oracle_triangle
from trimaint.workload import WorkloadSpec, format_update, parse_stream, stream

TRIANGLE = "+ R 1 2\n+ S 2 3\n+ T 3 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_triangle_count(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", TRIANGLE)
    assert main(["run", "--query", "d0", "--stream", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_run_trailing_delete(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", TRIANGLE + "- S 2 3\n")
    assert main(["run", "--query", "d0", "--stream", path]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_run_enumerated_output(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", TRIANGLE + "+ R 4 2\n+ T 3 4\n")
    assert main(["run", "--query", "d2", "--stream", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 1", "4 2 1"]


def test_run_rejected_delete_warns(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "+ R 1 2\n- R 1 2 5\n")
    assert main(["run", "--query", "d0", "--stream", path]) == 0
    err = capsys.readouterr().err
    assert "1 deletes rejected" in err


def test_verify_matches_run(tmp_path, capsys):
    spec = WorkloadSpec(seed=11, domain=9, updates=500, delete_frac=0.3)
    text = "\n".join(format_update(*u) for u in stream(spec)) + "\n"
    path = write(tmp_path, "mix.txt", text)
    for query in ("d0", "d1", "d2", "d3"):
        assert main(["verify", "--query", query, "--stream", path]) == 0
        assert capsys.readouterr().out.startswith("PASS")


def test_verify_generated_workload(capsys):
    rc = main(
        [
            "verify",
            "--query",
            "d2",
            "--epsilon",
            "0.25",
            "--seed",
            "4",
            "--updates",
            "400",
            "--domain",
            "8",
            "--delete-frac",
            "0.3",
            "--skew",
            "zipf:1.2",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "+ R 1\n")
    assert main(["run", "--stream", path]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["run", "--stream", "/nonexistent/stream.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bench_csv_deterministic(tmp_path):
    argv = [
        "bench",
        "--query",
        "d0",
        "--epsilon",
        "0,0.5,1",
        "--updates",
        "64,256",
        "--seed",
        "3",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    rows_a = list(csv.reader(a.open()))
    rows_b = list(csv.reader(b.open()))
    assert len(rows_a) == 7
    assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]
    header = rows_a[0]
    assert header[-1] == "wall_s"
    for r in rows_a[1:]:
        got = dict(zip(header, r))
        assert int(got["apply"]) + int(got["major"]) + int(got["minor"]) == int(
            got["total"]
        )


def test_oumv_cli(tmp_path, capsys):
    mpath = write(tmp_path, "m.txt", "2\n10\n00\n")
    vpath = write(tmp_path, "v.txt", "10\n10\n10\n01\n")
    assert main(["oumv", mpath, vpath]) == 0
    assert capsys.readouterr().out.split() == ["1", "0"]


def test_oumv_dimension_error(tmp_path, capsys):
    mpath = write(tmp_path, "m.txt", "2\n10\n00\n")
    vpath = write(tmp_path, "v.txt", "10\n10\n10\n0\n")
    assert main(["oumv", mpath, vpath]) == 2


PARSE_ERRORS = {
    # argv, and the file and the place in it that the message starts with
    "vectors-short": (["oumv", "{m}", "{v_short}"], "v_short.txt", "at end of file: expected 4"),
    "vectors-long": (["oumv", "{m}", "{v_long}"], "v_long.txt", "at end of file: expected 4"),
    "matrix-short": (["oumv", "{m_short}", "{v}"], "m_short.txt", "at end of file: expected 2"),
    "matrix-no-size": (["oumv", "{empty}", "{v}"], "empty.txt", "at end of file: missing"),
    "matrix-bits": (["oumv", "{m_bits}", "{v}"], "m_bits.txt", "line 3: expected 2 bits"),
    "vector-bits": (["oumv", "{m}", "{v_bits}"], "v_bits.txt", "line 2: expected 2 bits"),
    "stream": (["run", "--stream", "{bad}"], "bad.txt", "line 2: expected 4 or 5 fields"),
    "database": (["static", "{bad}"], "bad.txt", "line 2: expected 4 or 5 fields"),
}


@pytest.mark.parametrize("argv,name,where", list(PARSE_ERRORS.values()), ids=list(PARSE_ERRORS))
def test_parse_error_names_its_file(tmp_path, capsys, argv, name, where):
    files = {f"{{{stem}}}": write(tmp_path, f"{stem}.txt", text) for stem, text in (
        ("m", "2\n10\n00\n"), ("m_short", "2\n10\n"), ("m_bits", "2\n10\n0\n"), ("empty", ""),
        ("v", "10\n10\n10\n01\n"), ("v_short", "10\n10\n"), ("v_long", "10\n10\n10\n01\n11\n"),
        ("v_bits", "10\n1x\n10\n01\n"), ("bad", "+ R 1 2\n+ S 2\n"))}
    assert main([files.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {tmp_path / name}: {where}")
    assert out.err.count("\n") == 1 and out.out == ""


@pytest.mark.parametrize("argv", [["run", "--stream", "{bin}"], ["static", "{bin}"],
                                  ["oumv", "{bin}", "{bin}"]], ids=["stream", "database", "oumv"])
def test_undecodable_file_exits_2_naming_it(tmp_path, capsys, argv):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe+ R 1 2\n")
    assert main([str(path) if a == "{bin}" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {path}: ") and out.err.count("\n") == 1


def test_solve_oumv_random_rounds():
    rng = random.Random(21)
    n = 8
    matrix = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    rounds = [
        (
            tuple(rng.randint(0, 1) for _ in range(n)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        for _ in range(n)
    ]
    bits, _ = solve_oumv(matrix, rounds)
    assert bits == [oracle_oumv(matrix, u, v) for u, v in rounds]


def random_db(rng, n, domain):
    rels = {"R": {}, "S": {}, "T": {}}
    for _ in range(n):
        rel = rng.choice(("R", "S", "T"))
        rels[rel][(rng.randrange(domain), rng.randrange(domain))] = rng.randint(1, 2)
    return rels["R"], rels["S"], rels["T"]


@pytest.mark.parametrize("pre_classified", [False, True])
def test_static_ternary_matches_oracle(pre_classified):
    rd, sd, td = random_db(random.Random(31), 150, 12)
    drv = static_ternary(rd, sd, td, pre_classified)
    assert drv.engine.query_result() == oracle_triangle(rd, sd, td, 3)
    if pre_classified:
        assert drv.meter.phases["major"] == 0
        assert drv.meter.phases["minor"] == 0
    drv.engine.verify_views()


def test_static_cli(tmp_path, capsys):
    path = write(tmp_path, "db.txt", TRIANGLE)
    assert main(["static", path]) == 0
    plain = capsys.readouterr().out
    assert plain.strip() == "1 2 3 1"
    assert main(["static", path, "--pre-classified"]) == 0
    assert capsys.readouterr().out == plain


def test_verify_stream_reports_divergence_shape():
    spec = WorkloadSpec(seed=13, domain=7, updates=300, delete_frac=0.3)
    ok, bad, drv = verify_stream("d1", 0.5, stream(spec))
    assert ok and bad is None
    drv.check_invariants(deep=True)


class _SeesS(RefMaintainer):
    """A reference that disagrees with the engine once it holds an S tuple."""

    def result(self):
        out = super().result()
        return {**out, ("bogus",): 1} if self.rels["S"] else out


@pytest.mark.parametrize("cadence", [0, 10])
def test_verify_stream_reports_stream_index(monkeypatch, cadence):
    # the leading delete is rejected, so the S insert, stream index 2, is
    # the second applied update; cadence 10 finds the divergence only in
    # the end-of-stream check, cadence 0 after every update
    monkeypatch.setattr(cli, "RefMaintainer", _SeesS)
    updates = [("R", (5, 5), -1), ("R", (1, 2), 1), ("S", (2, 3), 1)]
    ok, bad, _ = verify_stream("d1", 0.5, updates, cadence=cadence)
    assert not ok and bad == 2


def test_measure_delay_positive():
    from trimaint.driver import make_engine

    eng = make_engine("d3", 0.5, rd={(1, 2): 1}, sd={(2, 3): 1}, td={(3, 1): 1})
    assert measure_delay(eng) > 0
    eng0 = make_engine("d0", 0.5, rd={(1, 2): 1})
    assert measure_delay(eng0) >= 1


REFUSED = {
    "skew-name": ["run", "--skew", "bogus"],
    "skew-exponent": ["run", "--skew", "zipf:0"],
    "domain": ["run", "--domain", "0"],
    "epsilon-high": ["run", "--epsilon", "1.5"],
    "epsilon-nan": ["run", "--epsilon", "nan"],
    "bench-epsilon": ["bench", "--epsilon", "0,x"],
    "double-d2": ["verify", "--query", "d2", "--double-partition"],
    "cadence": ["verify", "--verify-cadence", "-1"],
    "database-below-zero": ["static", "{db}"],
    "matrix-empty": ["oumv", "{empty}", "{empty}"],
}


@pytest.mark.parametrize("argv", list(REFUSED.values()), ids=list(REFUSED))
def test_refused_input_exits_2_with_one_line(tmp_path, capsys, argv):
    files = {"{db}": write(tmp_path, "db.txt", TRIANGLE + "- S 2 3 2\n"),
             "{empty}": write(tmp_path, "empty.txt", "")}
    assert main([files.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert out.out == ""


def big_stream():
    """A stream of triangles over two 10,000-digit values, one of them
    also a multiplicity, beside small ones."""
    a, b = "9" * 10000, "1" + "0" * 9999
    return "".join(f"{line}\n" for line in (
        f"+ R {a} {b}", f"+ S {b} 7 {a}", f"+ T 7 {a}", f"+ T 7 {a} 2",
        f"+ R 1 {b}", "+ T 7 1", f"+ S {b} 3", f"- S {b} 3"))


def want_output(query, text):
    """What `dump_result` prints for the reference's result of the stream
    `text`, with the digit cap lifted to write it out."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        ref = RefMaintainer(int(query[1]))
        for upd in parse_stream(text.splitlines()):
            ref.apply(*upd)
        res = ref.result()
        if isinstance(res, int):
            return f"{res}\n"
        return "".join(" ".join(map(str, key + (res[key],))) + "\n" for key in sorted(res))
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("argv", [["run", "--query", "d0"], ["run", "--query", "d1"],
                                  ["run", "--query", "d2"], ["run", "--query", "d3"],
                                  ["verify", "--query", "d2"], ["verify", "--query", "d3"],
                                  ["static"]], ids=" ".join)
def test_values_of_any_length(tmp_path, capsys, argv):
    # CPython's default int/str digit cap (4300) is on around the call
    text = big_stream()
    path = write(tmp_path, "big.txt", text)
    cap = sys.get_int_max_str_digits()
    assert 0 < cap < 10000
    assert main(argv + ([path] if argv == ["static"] else ["--stream", path])) == 0
    assert sys.get_int_max_str_digits() == cap
    out = capsys.readouterr().out
    if argv[0] == "verify":
        assert out.startswith("PASS")
    else:
        assert out == want_output("d3" if argv == ["static"] else argv[2], text)
        # a number printed past the cap
        assert max(map(len, out.split())) > 10000


BAD_VALUES = {"underscore-plus": "+ R 1_0 +5", "arabic-indic": "+ S \u0663 2",
              "plus-m": "+ R 1 2 +3", "minus": "+ T -1 2", "long": "+ R 1 " + "x" * 5000,
              "long-arabic-indic": "+ R 1 2 " + "\u0663" * 5000}


@pytest.mark.parametrize("line", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
@pytest.mark.parametrize("cmd", ["run", "verify", "static"])
def test_values_are_ascii_digits_alone(tmp_path, capsys, cmd, line):
    path = write(tmp_path, "bad.txt", TRIANGLE + line + "\n")
    assert main([cmd, path] if cmd == "static" else [cmd, "--stream", path]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {path}: line 4: ") and out.err.count("\n") == 1
    assert len(out.err) < len(path) + 120 and out.out == ""
