"""Reproducible update-stream generation and the text file formats.

Stream files carry one update per line: `<+|-> <R|S|T> <a> <b> [m]`
with `#` comments and blank lines ignored. Matrix files carry n and
then n rows of bits; vector files carry two bit rows per round.
"""

import bisect
import random
from dataclasses import dataclass

RELS = ("R", "S", "T")


class ParseError(Exception):
    """A malformed line, at `lineno`, or with `lineno` None an input that
    holds the wrong number of lines, found at its end."""

    def __init__(self, lineno, msg):
        where = "at end of file" if lineno is None else f"line {lineno}"
        super().__init__(f"{where}: {msg}")
        self.lineno = lineno


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int = 0
    domain: int = 16
    updates: int = 1000
    delete_frac: float = 0.0
    skew: str = "uniform"
    mult_lo: int = 1
    mult_hi: int = 2

    def __post_init__(self):
        if not self.domain >= 1:
            raise ValueError(f"domain must be at least 1, got {self.domain}")
        if not self.updates >= 0:
            raise ValueError(f"updates must be nonnegative, got {self.updates}")
        if not 0.0 <= self.delete_frac <= 1.0:
            raise ValueError(f"delete fraction must be in [0, 1], got {self.delete_frac}")
        if not 1 <= self.mult_lo <= self.mult_hi:
            raise ValueError(f"need 1 <= mult_lo <= mult_hi, got {self.mult_lo}, {self.mult_hi}")
        parse_skew(self.skew)


def parse_skew(text):
    """None for "uniform", the exponent S for "zipf:S"; ValueError unless S > 0."""
    if text == "uniform":
        return None
    s = None
    if text.startswith("zipf:"):
        try:
            s = float(text[len("zipf:"):])
        except ValueError:
            pass
    if s is None or not s > 0.0:
        raise ValueError(f"skew must be uniform or zipf:S with S > 0, got {text!r}")
    return s


def make_sampler(spec):
    """Value sampler for one relation's rng; zipf via inverse CDF."""
    s = parse_skew(spec.skew)
    if s is None:
        return lambda rng: rng.randrange(spec.domain)
    cum = []
    acc = 0.0
    for i in range(spec.domain):
        acc += (i + 1) ** -s
        cum.append(acc)
    total = cum[-1]
    return lambda rng: bisect.bisect_left(cum, rng.random() * total)


class _LiveKeys:
    """One relation's live keys in insertion order, the i-th found in
    O(log n): every insert of an absent key takes the next slot, and a
    Fenwick tree over the slots counts the live ones."""

    def __init__(self):
        self.keys = []  # slot - 1 -> key
        self.tree = [0]  # 1-based; tree[i] counts the live slots in (i - lowbit(i), i]
        self.slot = {}  # live key -> slot

    def _prefix(self, i):
        tree, s = self.tree, 0
        while i:
            s += tree[i]
            i &= i - 1
        return s

    def add(self, key):
        self.keys.append(key)
        n = len(self.keys)
        self.tree.append(self._prefix(n - 1) - self._prefix(n - (n & -n)) + 1)
        self.slot[key] = n

    def remove(self, key):
        i, tree = self.slot.pop(key), self.tree
        while i < len(tree):
            tree[i] -= 1
            i += i & -i

    def kth(self, k):
        """The live key of rank k, counting from 0."""
        tree, pos, step = self.tree, 0, 1 << (len(self.tree) - 1).bit_length()
        while step:
            nxt = pos + step
            if nxt < len(tree) and tree[nxt] <= k:
                pos, k = nxt, k - tree[nxt]
            step >>= 1
        return self.keys[pos]


def stream(spec):
    """Yield (rel, key, m) updates; deletes never overshoot.

    The control rng picks relations and delete targets; each relation
    draws its key values from its own seeded rng so adding a relation
    to the mix never shifts another relation's values. A delete picks
    uniformly among the live (rel, key) pairs, listed R's keys first,
    then S's, then T's, each in insertion order.
    """
    ctl = random.Random(f"{spec.seed}:ctl")
    val = {rel: random.Random(f"{spec.seed}:{rel}") for rel in RELS}
    sample = make_sampler(spec)
    live = {rel: {} for rel in RELS}
    order = {rel: _LiveKeys() for rel in RELS}
    size = 0
    for _ in range(spec.updates):
        if size and ctl.random() < spec.delete_frac:
            i = ctl.randrange(size)
            for rel in RELS:
                if i < len(live[rel]):
                    break
                i -= len(live[rel])
            key = order[rel].kth(i)
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
            order[rel].remove(key)
            size -= 1
        elif key not in d:
            d[key] = new
            order[rel].add(key)
            size += 1
        else:
            d[key] = new
        yield rel, key, m


def format_update(rel, key, m):
    assert m != 0
    sign = "+" if m > 0 else "-"
    base = f"{sign} {rel} {key[0]} {key[1]}"
    return base if abs(m) == 1 else f"{base} {abs(m)}"


def _content_lines(lines):
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _uint(lineno, tok, what):
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {tok!r}")
    if v < 0:
        raise ParseError(lineno, f"{what} must be nonnegative: {tok}")
    return v


def parse_stream(lines):
    """Parse update lines into a list of (rel, key, m)."""
    out = []
    for lineno, line in _content_lines(lines):
        toks = line.split()
        if len(toks) not in (4, 5):
            raise ParseError(lineno, f"expected 4 or 5 fields, got {len(toks)}")
        sign, rel = toks[0], toks[1]
        if sign not in ("+", "-"):
            raise ParseError(lineno, f"bad sign {sign!r}")
        if rel not in RELS:
            raise ParseError(lineno, f"bad relation {rel!r}")
        a = _uint(lineno, toks[2], "a")
        b = _uint(lineno, toks[3], "b")
        mult = _uint(lineno, toks[4], "m") if len(toks) == 5 else 1
        if mult == 0:
            raise ParseError(lineno, "multiplicity must be positive")
        out.append((rel, (a, b), mult if sign == "+" else -mult))
    return out


def _bit_row(lineno, line, n):
    row = line.replace(" ", "")
    if len(row) != n or any(ch not in "01" for ch in row):
        raise ParseError(lineno, f"expected {n} bits, got {line!r}")
    return tuple(int(ch) for ch in row)


def parse_matrix(lines):
    """Parse `n` followed by n bit rows into a tuple of rows."""
    rows = []
    n = None
    for lineno, line in _content_lines(lines):
        if n is None:
            n = _uint(lineno, line, "n")
            if n == 0:
                raise ParseError(lineno, "n must be positive")
            continue
        rows.append(_bit_row(lineno, line, n))
        if len(rows) == n:
            return rows
    if n is None:
        raise ParseError(None, "missing the size line n before the matrix rows")
    raise ParseError(None, f"expected {n} matrix rows, got {len(rows)}")


def parse_vectors(lines, n):
    """Parse 2n bit rows into n rounds of (u, v) pairs."""
    flat = []
    for lineno, line in _content_lines(lines):
        flat.append(_bit_row(lineno, line, n))
    if len(flat) != 2 * n:
        raise ParseError(None, f"expected {2 * n} vector rows, got {len(flat)}")
    return [(flat[2 * r], flat[2 * r + 1]) for r in range(n)]
