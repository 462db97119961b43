"""References that the wiring kernel and the wiring search in nsboxes.wiring
are tested against.

sources() follows the definition of a wiring entry by entry; nothing is
shared with the kernel but the index conventions.  half_table() is the
effective box at one y' from the half of the wiring that y' selects, summed
entry by entry.  columns() builds the correlator column of each of the 128
halves from the branch reader, and distinct_columns() dedups them, which
the library's summand sums must reproduce.  hull(), extremes(),
coupled_max() and block_max() score one block's distinct columns without
the central symmetry that the library reads them through.  search_max_all() and
distinct_effective_boxes() are the per-column-pair sweep over half_table():
they score every pair of distinct half keys of a (bipartition, ordering)
with the orbit forms of box_oracle, built from all 128 relabelings, where
the library scores each column once through closed forms.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from box_oracle import dot, oracle_orbit_forms
from nsboxes import BIPARTITIONS, ParseError, Wiring, require_valid
from nsboxes.boxes import _IN_W, _OUT_W, block_correlators, pack
from nsboxes.wiring import _branch, _joined

BITS = (0, 1)


def sources(w):
    """For each of the 16 effective entries, the flat tripartite indices
    whose probabilities are summed into it."""
    solo = w.bipartition.solo
    first, second = w.bipartition.actors(w.ordering)
    out = [[] for _ in range(16)]
    for sp, w1, w2, xp, ap in product(BITS, repeat=5):
        ins, outs = [0] * 3, [0] * 3
        ins[solo], outs[solo] = xp, ap
        ins[first], outs[first] = (w.alpha >> sp) & 1, w1
        ins[second], outs[second] = (w.beta >> (2 * sp + w1)) & 1, w2
        bout = (w.gamma >> (4 * sp + 2 * w1 + w2)) & 1
        out[pack((ap, bout), (xp, sp))].append(pack(tuple(outs), tuple(ins)))
    return out


def wire(table, w):
    """Effective 16-entry table of wiring w on a valid tripartite table."""
    return tuple(sum((table[j] for j in js), Fraction(0)) for js in sources(w))


def is_type_i(w):
    """beta ignores its w1 argument: no output feeds an input."""
    return all((w.beta >> 2 * s & 1) == (w.beta >> 2 * s + 1 & 1) for s in BITS)


def wire_fixed_inputs(table, w):
    """Second route for type-I wirings: fix both pair inputs per s', then
    group the plain conditional block by the pair's effective output."""
    if not is_type_i(w):
        raise ValueError("fixed-input evaluation needs a type-I wiring")
    solo = w.bipartition.solo
    first, second = w.bipartition.actors(w.ordering)
    acc = [Fraction(0)] * 16
    for sp, xp in product(BITS, repeat=2):
        ins = [0] * 3
        ins[solo], ins[first], ins[second] = xp, (w.alpha >> sp) & 1, (w.beta >> (2 * sp)) & 1
        for ap, w1, w2 in product(BITS, repeat=3):
            outs = [0] * 3
            outs[solo], outs[first], outs[second] = ap, w1, w2
            bout = (w.gamma >> (4 * sp + 2 * w1 + w2)) & 1
            acc[pack((ap, bout), (xp, sp))] += table[pack(tuple(outs), tuple(ins))]
    return tuple(acc)


def canonical_key(w):
    """Position of w in the canonical (bipartition, ordering, alpha, beta,
    gamma) enumeration order."""
    return (w.bipartition.solo, w.ordering, w.alpha, w.beta, w.gamma)


def _integer_table(box):
    """(D, D * table) with D the lcm of the table's denominators."""
    scale = lcm(*(v.denominator for v in box.table))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in box.table)


def _effective(t0, t1):
    """Box2 table (flat index 8*x' + 4*y' + 2*a' + b') from its two halves."""
    return t0[:4] + t1[:4] + t0[4:] + t1[4:]


def half_table(table, solo, first, second, half):
    """The 8 entries (flat index 4*x' + 2*a' + b') of the effective box at
    one effective input y' = s'.

    They depend only on the half of the wiring that s' selects: bit 6 of
    `half` is alpha(s'), bits 4-5 are beta(s', .) indexed by w1 and bits 0-3
    are gamma(s', ., .) indexed by 2*w1 + w2.  Entries come out in the type
    of the table's, so an integer-scaled table gives integers.
    """
    iw, ow = _IN_W[3], _OUT_W[3]
    out = [0] * 8
    for w1 in BITS:
        base = (half >> 6) * iw[first] + ((half >> (4 + w1)) & 1) * iw[second] + w1 * ow[first]
        for w2 in BITS:
            bout = (half >> (2 * w1 + w2)) & 1
            base2 = base + w2 * ow[second]
            for xp in BITS:
                for ap in BITS:
                    out[4 * xp + 2 * ap + bout] += table[base2 + xp * iw[solo] + ap * ow[solo]]
    return tuple(out)


def columns(table, solo, first, second):
    """The correlator column (E_0s', E_1s') at y' = s' of each of the 128
    halves h = alpha(s') << 6 | beta(s', .) << 4 | gamma(s', ., .) in order.

    E_x' sums d = P(a'=0, w2) - P(a'=1, w2) of the branch (x', alpha, w1,
    beta(w1)) over (w1, w2), negated where gamma(w1, w2) = 1; the two terms
    of one w1 are summed once per pair of gamma bits.
    """
    sums = {}
    for key in product(BITS, repeat=4):
        p00, p01, p10, p11 = (table[j] for j in _branch(solo, first, second, *key))
        d0, d1 = p00 - p10, p01 - p11
        sums[key] = (d0 + d1, d1 - d0, d0 - d1, -d0 - d1)
    cols = []
    for i1, b1, b0 in product(BITS, repeat=3):
        (p0, q0), (p1, q1) = ((sums[xp, i1, 0, b0], sums[xp, i1, 1, b1]) for xp in BITS)
        cols += [(p0[g & 3] + q0[g >> 2], p1[g & 3] + q1[g >> 2]) for g in range(16)]
    return cols


def distinct_columns(table, solo, first, second):
    """Each distinct column of columns() -> the first half giving it, in
    ascending order of first halves."""
    first_half = {}
    for h, col in enumerate(columns(table, solo, first, second)):
        first_half.setdefault(col, h)
    return first_half


def hull(points):
    """Vertices of the convex hull of distinct integer points (monotone
    chain; points inside an edge are dropped)."""
    pts, vertices = sorted(points), []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2:]
                if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                    break
                chain.pop()
            chain.append(p)
        vertices += chain[:-1]
    return vertices or pts


# The directions x + y and x - y through which every separable orbit form
# reads a column (x, y).
DIRECTIONS = ((1, 1), (1, -1))


def extremes(first_half):
    """u -> ((max, first half), (min, first half)) of u . c over the
    distinct columns, for each of DIRECTIONS and its negation, each end
    found by its own pass."""
    out = {}
    for a, b in DIRECTIONS:
        values = [(a * x + b * y, h) for (x, y), h in first_half.items()]
        neg_hi, top = min((-v, h) for v, h in values)
        lo, bottom = min(values)
        out[a, b] = (-neg_hi, top), (lo, bottom)
        out[-a, -b] = (-lo, bottom), (neg_hi, top)
    return out


def coupled_max(first_half):
    """(max of n0 + n1 + 2 |x0 x1 - y0 y1| over pairs of columns, first
    (alpha, beta, gamma) giving it), over all pairs of full-hull vertices."""
    vertices = [(x, y, first_half[x, y]) for x, y in hull(first_half)]
    found = [
        (x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1 + 2 * abs(x0 * x1 - y0 * y1), _joined(h0, h1))
        for x0, y0, h0 in vertices
        for x1, y1, h1 in vertices
    ]
    top = max(v for v, _ in found)
    return top, min(abg for v, abg in found if v == top)


def block_max(first_half, name):
    """(max of the named functional over all pairs of one block's distinct
    columns, first (alpha, beta, gamma) giving it)."""
    value = FUNCTIONALS[name][0]
    found = [
        (value((c0[0], c1[0], c0[1], c1[1])), _joined(h0, h1))
        for c0, h0 in first_half.items()
        for c1, h1 in first_half.items()
    ]
    top = max(v for v, _ in found)
    return top, min(abg for v, abg in found if v == top)


def _sweep(table, key):
    """Every wiring that is the first, in canonical order, to give its pair
    of half keys, as (wiring, key at s' = 0, key at s' = 1).

    The halves at s' = 0 and s' = 1 range over the same 128 half-tables and
    are chosen independently, so the first wiring for a key pair joins the
    first half giving each key.  Pairs come per (bipartition, ordering) in
    canonical order, and within one in the order of their first wirings.
    """
    for bp in BIPARTITIONS:
        for ordering in BITS:
            first, second = bp.actors(ordering)
            first_half = {}
            for h in range(128):
                first_half.setdefault(key(half_table(table, bp.solo, first, second, h)), h)
            pairs = sorted(
                (_joined(h0, h1), k0, k1)
                for k0, h0 in first_half.items()
                for k1, h1 in first_half.items()
            )
            for abg, k0, k1 in pairs:
                yield Wiring(bp, ordering, *abg), k0, k1


# name -> (orbit maximum of a correlator table (E00, E01, E10, E11) over the
# forms of box_oracle.oracle_orbit_forms, degree): on a table scaled by D
# the maximum scales by D**degree.
FUNCTIONALS = {
    "chsh_max": (lambda e: max(abs(dot(c, e)) for c in oracle_orbit_forms()[0]), 1),
    "uffink_max": (
        lambda e: max(dot(p, e) ** 2 + dot(q, e) ** 2 for p, q in oracle_orbit_forms()[1]),
        2,
    ),
}


def search_max_all(box, functionals=("chsh_max", "uffink_max")):
    """The orbit maxima evaluated once per pair of distinct columns, each
    pair at its first wiring; strict > keeps the first maximiser."""
    for f in functionals:
        if f not in FUNCTIONALS:
            raise ParseError(f"unknown functional {f!r}")
    require_valid(box)
    scale, table = _integer_table(box)
    best = {}
    for w, c0, c1 in _sweep(table, block_correlators):
        e = (c0[0], c1[0], c0[1], c1[1])
        for f in functionals:
            v = FUNCTIONALS[f][0](e)
            if f not in best or v > best[f][1]:
                best[f] = (w, v)
    return {f: (w, Fraction(v, scale ** FUNCTIONALS[f][1])) for f, (w, v) in best.items()}


def distinct_effective_boxes(box):
    """Map each distinct effective table over all wirings of all bipartitions
    to the first wiring producing it (canonical enumeration order)."""
    require_valid(box)
    scale, table = _integer_table(box)
    seen = {}
    for w, t0, t1 in _sweep(table, tuple):
        seen.setdefault(_effective(t0, t1), w)
    return {tuple(Fraction(v, scale) for v in t): w for t, w in seen.items()}
