import random

import pytest

from trimaint.workload import (
    RELS,
    ParseError,
    WorkloadSpec,
    format_update,
    make_sampler,
    parse_matrix,
    parse_skew,
    parse_stream,
    parse_vectors,
    stream,
)


def test_stream_deterministic():
    spec = WorkloadSpec(seed=5, domain=10, updates=300, delete_frac=0.4)
    assert list(stream(spec)) == list(stream(spec))


def test_stream_deletes_never_overshoot():
    spec = WorkloadSpec(seed=1, domain=6, updates=500, delete_frac=0.5)
    live = {"R": {}, "S": {}, "T": {}}
    deletes = 0
    for rel, key, m in stream(spec):
        new = live[rel].get(key, 0) + m
        assert new >= 0
        if m < 0:
            deletes += 1
        if new == 0:
            live[rel].pop(key, None)
        else:
            live[rel][key] = new
    assert deletes > 100


def list_stream(spec):
    """The generator as first written: each delete lists every live
    (rel, key) pair, R's first, each relation's in insertion order, and
    draws one by index, so a stream of n updates takes O(n^2)."""
    ctl = random.Random(f"{spec.seed}:ctl")
    val = {rel: random.Random(f"{spec.seed}:{rel}") for rel in RELS}
    sample = make_sampler(spec)
    live = {rel: {} for rel in RELS}
    size = 0
    for _ in range(spec.updates):
        if size and ctl.random() < spec.delete_frac:
            pairs = [(rel, key) for rel in RELS for key in live[rel]]
            rel, key = pairs[ctl.randrange(len(pairs))]
            m = -ctl.randint(1, live[rel][key])
        else:
            rel = RELS[ctl.randrange(3)]
            rng = val[rel]
            key = (sample(rng), sample(rng))
            m = ctl.randint(spec.mult_lo, spec.mult_hi)
        d = live[rel]
        new = d.get(key, 0) + m
        if new == 0:
            del d[key]
            size -= 1
        elif key not in d:
            d[key] = new
            size += 1
        else:
            d[key] = new
        yield rel, key, m


@pytest.mark.parametrize("skew,domain", [("uniform", 6), ("uniform", 300), ("zipf:1.2", 40)])
@pytest.mark.parametrize("delete_frac", [0.0, 0.3, 1.0])
def test_stream_matches_the_list_building_generator(skew, domain, delete_frac):
    # small domains re-insert deleted keys, which then take a new place in
    # their relation's insertion order
    for seed in range(3):
        spec = WorkloadSpec(seed=seed, domain=domain, updates=2000, delete_frac=delete_frac,
                            skew=skew, mult_hi=3)
        assert list(stream(spec)) == list(list_stream(spec))


def test_zipf_concentrates_low_values():
    spec = WorkloadSpec(seed=2, domain=32, updates=2000, skew="zipf:1.5")
    counts = {}
    for _, key, _ in stream(spec):
        for v in key:
            counts[v] = counts.get(v, 0) + 1
    assert counts.get(0, 0) > 10 * counts.get(16, 1)


def test_bad_skew_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(skew="pareto")
    for bad in ("zipf:0", "zipf:-1", "zipf:nan"):
        with pytest.raises(ValueError):
            WorkloadSpec(skew=bad)


@pytest.mark.parametrize("fields", [dict(updates=-1), dict(delete_frac=1.5),
                                    dict(mult_lo=3, mult_hi=2)])
def test_bad_spec_fields_rejected(fields):
    with pytest.raises(ValueError):
        WorkloadSpec(**fields)


def test_parse_skew_refuses_a_non_number():
    with pytest.raises(ValueError, match="zipf:x"):
        parse_skew("zipf:x")


def test_format_parse_roundtrip():
    spec = WorkloadSpec(seed=3, domain=8, updates=120, delete_frac=0.3)
    ups = list(stream(spec))
    text = "\n".join(format_update(*u) for u in ups)
    assert parse_stream(text.splitlines()) == ups


def test_parse_stream_comments_and_defaults():
    lines = [
        "# header comment",
        "",
        "+ R 1 2",
        "- T 3 4 5   # trailing note",
    ]
    assert parse_stream(lines) == [("R", (1, 2), 1), ("T", (3, 4), -5)]


@pytest.mark.parametrize(
    "line,frag",
    [
        ("* R 1 2", "bad sign"),
        ("+ Q 1 2", "bad relation"),
        ("+ R 1", "fields"),
        ("+ R 1 x", "not an integer"),
        ("+ R -1 2 1 9", "fields"),
        ("+ R 1 2 0", "positive"),
    ],
)
def test_parse_stream_errors(line, frag):
    with pytest.raises(ParseError) as exc:
        parse_stream(["+ R 0 0", line])
    assert exc.value.lineno == 2
    assert frag in str(exc.value)


VALUE_ERRORS = {
    # a value is ASCII digits alone: no separator, sign or other digits
    "underscore": ("+ R 1_0 2", "a is not an integer of ASCII digits 0-9: '1_0'"),
    "plus": ("+ R +5 2", "a is not an integer of ASCII digits 0-9: '+5'"),
    "minus": ("+ R -1 2", "a is not an integer of ASCII digits 0-9: '-1'"),
    "arabic-indic": ("+ S \u0663 2", "a is not an integer of ASCII digits 0-9: '\u0663'"),
    "superscript": ("+ R 1 2 \u00b2", "m is not an integer of ASCII digits 0-9: '\u00b2'"),
    # a long token is quoted in part
    "long": ("+ R 1 " + "x" * 5000, "b is not an integer of ASCII digits 0-9: "
                                    f"{'x' * 20!r}... (5000 characters)"),
    # past CPython's int/str digit cap, which only the command line lifts
    "past-cap": ("+ R 1 " + "7" * 5000,
                 "b has 5000 digits, past this interpreter's conversion limit"),
}


@pytest.mark.parametrize("line,msg", list(VALUE_ERRORS.values()), ids=list(VALUE_ERRORS))
def test_parse_stream_takes_ascii_digits_alone(line, msg):
    with pytest.raises(ParseError) as exc:
        parse_stream(["+ R 0 0", line])
    assert str(exc.value) == f"line 2: {msg}"


def test_parse_matrix():
    rows = parse_matrix(["# M", "3", "101", "0 1 0", "111"])
    assert rows == [(1, 0, 1), (0, 1, 0), (1, 1, 1)]


def test_parse_matrix_errors():
    with pytest.raises(ParseError) as exc:
        parse_matrix(["2", "10", "111"])
    assert exc.value.lineno == 3
    with pytest.raises(ParseError) as exc:
        parse_matrix(["2", "10"])
    # a row count is checked at the end of the input, not at a line
    assert exc.value.lineno is None
    assert str(exc.value) == "at end of file: expected 2 matrix rows, got 1"


def test_parse_vectors():
    rounds = parse_vectors(["10", "01", "11", "00"], 2)
    assert rounds == [((1, 0), (0, 1)), ((1, 1), (0, 0))]
    with pytest.raises(ParseError) as exc:
        parse_vectors(["10", "01"], 2)
    assert exc.value.lineno is None
