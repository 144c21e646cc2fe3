"""Join helpers shared by the engines' initialization and rebuild paths."""

from __future__ import annotations


def triangle_products(r, s, t):
    """Iterator of (a, b, c, product) for the triangle join of three binary parts.

    r, s, t are Relations with schemas R(A,B), S(B,C), T(C,A), each with
    hash indexes on both columns. (A,B) pairs come from r's entries, in
    order; the C-values are resolved through whichever of the two
    remaining slices is smaller (S's on a tie), so the total work is sum
    over (a,b) of min(deg_S(b), deg_T(a)).

    The join runs in full before the first tuple is returned and charges
    what the same reads through `items`, `slice_count`, `slice_items` and
    `lookup` cost, 4 + 2 * (smaller slice) per entry of r, in one add (see
    CostMeter for when that is allowed).
    """
    if not r.entries:
        # nothing to join or charge; returning now keeps an empty build cheap
        return iter(())
    s_by_b, t_by_a = s.hash_slices((0,)), t.hash_slices((1,))
    se, te = s.entries, t.entries
    out, walked = [], 0
    for (a, b), mr in r.entries.items():
        sb, ta = s_by_b.get(b, ()), t_by_a.get(a, ())
        if len(sb) <= len(ta):
            walked += len(sb)
            for _, c in sb:
                mt = te.get((c, a))
                if mt:
                    out.append((a, b, c, mr * se[b, c] * mt))
        else:
            walked += len(ta)
            for c, _ in ta:
                ms = se.get((b, c))
                if ms:
                    out.append((a, b, c, mr * ms * te[c, a]))
    r.meter.total += 4 * len(r.entries) + 2 * walked
    return iter(out)
