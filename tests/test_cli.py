import csv
import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trimaint import cli
from trimaint.cli import (
    main,
    measure_delay,
    solve_oumv,
    static_ternary,
    verify_stream,
)
from trimaint.driver import Driver, make_engine
from trimaint.oracle import DimensionMismatch, RefMaintainer, oracle_oumv, oracle_triangle
from trimaint.workload import (
    ParseError,
    WorkloadSpec,
    format_update,
    parse_matrix,
    parse_stream,
    parse_vectors,
    stream,
)

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


def test_verify_divergence_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "RefMaintainer", _SeesS)
    path = write(tmp_path, "s.txt", "- R 5 5\n+ R 1 2\n+ S 2 3\n")
    assert main(["verify", "--query", "d1", "--stream", path]) == 1
    out = capsys.readouterr()
    assert out.out == "FAIL d1 eps=0.5 first divergence at update 2\n"
    assert out.err == ""


def test_measure_delay_positive():
    eng = make_engine("d3", 0.5, rd={(1, 2): 1}, sd={(2, 3): 1}, td={(3, 1): 1})
    assert measure_delay(eng) > 0
    eng0 = make_engine("d0", 0.5, rd={(1, 2): 1})
    assert measure_delay(eng0) >= 1


def out_row(tmp_path, argv):
    """The one CSV row that `argv --out` writes, without its wall time."""
    path = tmp_path / "row.csv"
    code, _, _ = call_main(argv + ["--out", str(path)])
    assert code == 0
    header, row = csv.reader(path.open())
    assert tuple(header) == cli.CSV_HEADER
    return dict(zip(header[:-1], row[:-1]))


@pytest.mark.parametrize("seed", [None, 31])
def test_static_writes_the_row_of_its_insert_stream(tmp_path, seed):
    # a database listed R, then S, then T is the stream that plain static
    # inserts, so its row is run's: the stream's ops plus one delay read
    if seed is None:
        text = "+ R 1 2\n+ R 4 2\n+ S 2 3\n+ T 3 1\n+ T 3 4\n"
    else:
        dbs = random_db(random.Random(seed), 150, 12)
        text = "".join(format_update(rel, key, m) + "\n"
                       for rel, db in zip("RST", dbs) for key, m in db.items())
    path = write(tmp_path, "db.txt", text)
    static = out_row(tmp_path, ["static", path])
    run = out_row(tmp_path, ["run", "--query", "d3", "--epsilon", "0.5", "--stream", path])
    assert static == run
    assert int(static["max_update"]) > 0
    pre = out_row(tmp_path, ["static", path, "--pre-classified"])
    assert (pre["updates"], pre["max_update"]) == ("0", "0")


@pytest.mark.parametrize("query", ["d0", "d1", "d2", "d3"])
def test_run_writes_the_row_of_its_bench_cell(tmp_path, query):
    flags = ["--query", query, "--seed", "4", "--domain", "12", "--epsilon", "0.5",
             "--delete-frac", "0.3", "--updates", "300"]
    run = out_row(tmp_path, ["run", *flags])
    assert run == out_row(tmp_path, ["bench", *flags])


class _Logged(Driver):
    """A driver that logs the updates it is given."""

    log = []

    def on_update(self, rel, key, m):
        self.log.append((rel, key, m))
        return super().on_update(rel, key, m)


def test_oumv_writes_its_deltas_run_row(tmp_path, monkeypatch):
    # oumv's row holds its deltas' ops, plus the count read that answers
    # each of its n rounds; its max_update is the largest per-update total
    # of the deltas and its max_delay the count read's one tick
    rng = random.Random(5)
    n = 6
    mpath = write(tmp_path, "m.txt", f"{n}\n" + "".join(
        "".join(rng.choice("01") for _ in range(n)) + "\n" for _ in range(n)))
    vpath = write(tmp_path, "v.txt", "".join(
        "".join(rng.choice("01") for _ in range(n)) + "\n" for _ in range(2 * n)))
    monkeypatch.setattr(cli, "Driver", _Logged)
    monkeypatch.setattr(_Logged, "log", [])
    oumv = out_row(tmp_path, ["oumv", mpath, vpath])
    log = _Logged.log
    drv = Driver(make_engine("d0", 0.5))
    meter = drv.meter
    totals = []
    for upd in log:
        t0 = meter.total
        drv.on_update(*upd)
        totals.append(meter.total - t0)
    assert oumv["max_update"] == str(max(totals))
    assert oumv["max_delay"] == "1"
    monkeypatch.undo()
    spath = write(tmp_path, "s.txt", "".join(format_update(*u) + "\n" for u in log))
    run = out_row(tmp_path, ["run", "--query", "d0", "--stream", spath])
    assert int(oumv["total"]) - int(run["total"]) == n
    assert int(oumv["apply"]) - int(run["apply"]) == n
    for col in ("total", "apply"):
        del oumv[col], run[col]
    assert oumv == run


def test_python_m_runs_the_cli(tmp_path):
    # `python -m trimaint.cli` is the console entry point
    path = write(tmp_path, "tri.txt", TRIANGLE)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "trimaint.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = python_m("run", "--query", "d0", "--stream", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
    proc = python_m("frobnicate")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: trimaint")


def test_solve_oumv_refuses_mismatched_dimensions():
    # the file parsers refuse such input first, so only a library caller
    # reaches these checks
    with pytest.raises(DimensionMismatch):
        solve_oumv([[1, 0], [0]], [])
    with pytest.raises(DimensionMismatch):
        solve_oumv([[1, 0], [0, 1]], [((1, 0), (1,))])


REFUSED = {
    "skew-name": ["run", "--skew", "bogus"],
    "skew-exponent": ["run", "--skew", "zipf:0"],
    "domain": ["run", "--domain", "0"],
    "epsilon-high": ["run", "--epsilon", "1.5"],
    "epsilon-nan": ["run", "--epsilon", "nan"],
    "bench-epsilon": ["bench", "--epsilon", "0,x"],
    "bench-updates": ["bench", "--updates", "64,-1"],
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
        return dumped(ref.result())
    finally:
        sys.set_int_max_str_digits(cap)


def dumped(res):
    """What `dump_result` prints for a count or a keyed result."""
    if isinstance(res, int):
        return f"{res}\n"
    return "".join(" ".join(map(str, key + (res[key],))) + "\n" for key in sorted(res))


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


# -- differential fuzz ----------------------------------------------------

# a refused token: a sign, a `_`, another script's digits, a non-number,
# or any short text
BAD_TOKENS = st.one_of(st.sampled_from(["+5", "-1", "1_0", "\u0663", "0x1", "1.0", "x" * 40]),
                       st.text(max_size=4))
# bytes no UTF-8 text holds: a lone continuation byte, a truncated
# sequence, an encoded surrogate
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])


@st.composite
def update_lines(draw):
    """A well-formed update over values 0-2, or in a third of the draws
    the three inserts of a triangle, so that streams close triangles;
    some lines carry a multiplicity, a comment or blank space."""
    values = st.sampled_from("012")
    a, b, c = draw(values), draw(values), draw(values)
    if draw(st.integers(0, 2)):
        updates = [(draw(st.sampled_from("++-")), draw(st.sampled_from("RST")), a, b)]
    else:
        updates = [("+", "R", a, b), ("+", "S", b, c), ("+", "T", c, a)]
    lines = []
    for fields in updates:
        if draw(st.booleans()):
            fields += (draw(st.sampled_from(["1", "2", "3", "9" * 40])),)
        lines.append(draw(st.sampled_from(["", "  ", "\t"])) + " ".join(fields)
                     + draw(st.sampled_from(["", " # note", "\n"])))
    return "\n".join(lines)


@st.composite
def corrupted(draw, lines, bad_lines):
    """The lines as UTF-8 bytes, left alone in half the examples; else one
    line replaced by or followed by a bad one, a line dropped, or a byte
    no UTF-8 text holds put in anywhere."""
    lines = list(lines)
    how = draw(st.sampled_from(["none"] * 4 + ["replace", "insert", "drop", "bytes"]))
    if how == "insert" or how in ("replace", "drop") and lines:
        at = draw(st.integers(0, len(lines) - (how != "insert")))
        lines[at:at + (how != "insert")] = [] if how == "drop" else [draw(bad_lines)]
    data = "\n".join(lines).encode()
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return data


@st.composite
def bad_update_lines(draw):
    """An update line with one field changed, mostly to a refused one
    (a 0 is refused only as a multiplicity), the wrong number of fields,
    or any text."""
    kind = draw(st.sampled_from(["field", "field", "count", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "count":
        return " ".join(["+", "R", "1", "2", "1", "1"][:draw(st.sampled_from([1, 2, 3, 6]))])
    fields = ["+", "R", "1", "2", "1"][:draw(st.integers(4, 5))]
    at = draw(st.integers(0, len(fields) - 1))
    fields[at] = draw(st.one_of(BAD_TOKENS, st.sampled_from(["*", "Q", "r", "0"])))
    return " ".join(fields)


# a new file per example: rewriting one costs far more than making one on
# some file systems
FILE_NO = itertools.count()


def new_file(tmp_path, data):
    path = tmp_path / f"f{next(FILE_NO)}.txt"
    path.write_bytes(data)
    return path


def parsed(path, parse, *args):
    """What `parse` makes of the file, read as the command line reads it,
    or None where the command line refuses it."""
    try:
        with open(path) as fh:
            return parse(fh, *args)
    except (ParseError, UnicodeDecodeError):
        return None


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused_in_one_line(code, out, err, path):
    # the message names the file and quotes at most 20 characters of a
    # token, each at most 10 in its repr
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) <= len(str(path)) + 300


def reference_run(query, updates):
    """The reference result of the stream, skipping each delete the engine
    rejects, and the number skipped."""
    ref, rejected = RefMaintainer(int(query[1])), 0
    for rel, key, m in updates:
        if ref.rels[rel].get(key, 0) + m < 0:
            rejected += 1
        else:
            ref.apply(rel, key, m)
    return ref.result(), rejected


def net_database(updates):
    """The database the stream sums to, or None if it dips below zero."""
    rels = {"R": {}, "S": {}, "T": {}}
    for rel, key, m in updates:
        v = rels[rel].get(key, 0) + m
        if v < 0:
            return None
        rels[rel][key] = v
    return [{k: v for k, v in rels[rel].items() if v} for rel in "RST"]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["run", "verify", "static"]), st.sampled_from(["d0", "d1", "d2", "d3"]),
       st.sampled_from([0.0, 0.5, 1.0]), st.booleans(),
       st.lists(update_lines(), max_size=12).flatmap(lambda ls: corrupted(ls, bad_update_lines())))
def test_stream_commands_agree_with_the_reference(tmp_path, cmd, query, eps, double, data):
    # exit 0 or 2, never 1 (verify's divergence) and never a traceback
    path = new_file(tmp_path, data)
    double = double and query == "d0"
    if cmd == "static":
        argv = ["static", str(path)]
    else:
        argv = [cmd, "--query", query, "--epsilon", str(eps), "--stream", str(path)]
        argv += ["--double-partition"] * double
    code, out, err = call_main(argv)
    updates = parsed(path, parse_stream)
    db = None if updates is None else net_database(updates)
    if updates is None or (cmd == "static" and db is None):
        assert_refused_in_one_line(code, out, err, path)
    elif cmd == "static":
        assert (code, err) == (0, "")
        assert out == dumped(oracle_triangle(*db, 3))
    elif cmd == "verify":
        assert (code, err) == (0, "")
        assert out == f"PASS {query} eps={eps:g} updates={len(updates)}\n"
    else:
        res, rejected = reference_run(query, updates)
        assert code == 0 and out == dumped(res)
        assert err == (f"warning: {rejected} deletes rejected\n" if rejected else "")


@st.composite
def bit_rows(draw, n, count):
    sep = draw(st.sampled_from(["", " "]))
    return [sep.join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
            for _ in range(count)]


# a row of the wrong width or with a character other than 0 and 1
BAD_BIT_ROWS = st.one_of(st.sampled_from(["0", "0101", "2", "1x", "\u0661"]), st.text(max_size=6))


@st.composite
def oumv_files(draw):
    """A matrix file, an n-line size and n bit rows, and a vectors file,
    2n bit rows, either one corrupted at times; or a refused size."""
    n = draw(st.integers(1, 3))
    size = str(n) if draw(st.integers(0, 7)) else draw(BAD_TOKENS)
    matrix = draw(corrupted([size] + draw(bit_rows(n, n)), BAD_BIT_ROWS))
    vectors = draw(corrupted(draw(bit_rows(n, 2 * n)), BAD_BIT_ROWS))
    return matrix, vectors


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(oumv_files())
def test_oumv_agrees_with_the_oracle(tmp_path, files):
    mpath, vpath = (new_file(tmp_path, data) for data in files)
    code, out, err = call_main(["oumv", str(mpath), str(vpath)])
    matrix = parsed(mpath, parse_matrix)
    rounds = None if matrix is None else parsed(vpath, parse_vectors, len(matrix))
    if rounds is None:
        assert_refused_in_one_line(code, out, err, mpath)
    else:
        assert (code, err) == (0, "")
        assert out.split() == [str(oracle_oumv(matrix, u, v)) for u, v in rounds]
