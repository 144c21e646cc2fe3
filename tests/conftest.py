"""Shared builders for enumeration and engine tests."""

from trimaint.iterators import HopUnionIterator, ListCollection
from trimaint.store import CostMeter

# Per-bucket iteration orders and candidate-bucket map for the four-bucket
# union example used in both the unit suite and the acceptance suite.
WORKED_ORDERS = {
    "a1": [1, 2, 3],
    "a2": [4, 1, 5],
    "a3": [2, 5, 3],
    "a4": [6, 4],
}
WORKED_CANDIDATES = {
    1: ("a1", "a2"),
    2: ("a1", "a3"),
    3: ("a1", "a3"),
    4: ("a2", "a4"),
    5: ("a2", "a3"),
    6: ("a4",),
}


def build_worked_hop_example():
    return HopUnionIterator(
        ["a1", "a2", "a3", "a4"],
        lambda k: ListCollection(WORKED_ORDERS[k]),
        lambda t: WORKED_CANDIDATES[t],
        CostMeter(),
    )


def bound_rule(eng, t):
    """The bound read rule of pair tree t of a d1 or d2 engine: the keys
    of the buckets that hold an output tuple (see `fragments._pair_rule`)."""
    return (eng._enum or eng._bind_enumeration())[0][t][3]


class Versioned:
    """The state a UnionIterator checks for staleness: a version field."""

    version = 0


# the one triangle (a, b, c) = (1, 2, 3)
TRIANGLE = (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 1)))


def part_labels(eng, triangle=TRIANGLE):
    """Labels of the parts holding each tuple of the triangle, by relation."""
    return {rel: [lab for lab, part in eng.parts[rel].parts.items() if key in part.entries]
            for rel, key in triangle}


def relation_layout(r):
    """Everything the insertion order of a Relation shows: its entries,
    the high-water marks of its entries and of its slices maps, and per
    index each slice's members in order (a hash slice with its container
    kind, list or dict; a linked slice walked from its head, with its tail
    and count), the marks and the order of the linked nodes."""
    out = [list(r.entries.items()), r._hwm]
    for _, slices, marks, nodes, i in r._indexes:
        if nodes is None:
            out.append([(sub, type(s), list(s)) for sub, s in slices.items()])
        else:
            walks = []
            for sub, s in slices.items():
                keys, node = [], s.head
                while node is not None:
                    keys.append(node.key)
                    node = node.nxt
                walks.append((sub, keys, s.tail.key, s.count))
            out += [walks, list(nodes)]
        out.append((dict(marks), r._map_hwm[i]))
    return out
