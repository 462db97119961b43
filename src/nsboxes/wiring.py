"""Wiring a tripartite box into an effective bipartite box.

A wiring splits the three parties into a solo party and an ordered pair.  The
solo side is passed through untouched: its effective input x' feeds its
original input and its output is the effective output a'.  On the paired
side, the effective input y' = s' determines the first actor's input through
alpha, the second actor's input through beta (which may also read the first
actor's output, making the wiring type II), and the pair's effective output
b' comes from gamma applied to s' and both outputs.

Boolean functions are packed into truth-table integers: bit j holds the value
at packed argument index j, arguments packed big-endian with the first
argument most significant.  So alpha is 2 bits (index s'), beta 4 bits
(index 2*s' + w1) and gamma 8 bits (index 4*s' + 2*w1 + w2).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import cache
from fractions import Fraction
from itertools import product

from .boxes import (
    BITS,
    Box2,
    Box3,
    PARTY_NAMES,
    ParseError,
    _IN_W,
    _OUT_W,
    _Value,
    _all_in,
    _from_view,
    _require,
    _require3,
    require_valid,
)


class Bipartition(_Value):
    """One party alone versus the remaining pair (pair kept in party order)."""

    solo: int
    pair: tuple[int, int]

    def __post_init__(self):
        parties = (self.solo, *self.pair) if type(self.pair) is tuple else ()
        if not _all_in(parties, range(3)) or sorted(parties) != [0, 1, 2] or parties[1] > parties[2]:
            raise ParseError(f"bipartition needs parties 0, 1, 2 with the pair ascending, "
                             f"got solo {self.solo!r} and pair {self.pair!r}")

    @property
    def name(self) -> str:
        return f"{PARTY_NAMES[self.solo]}|{PARTY_NAMES[self.pair[0]]}{PARTY_NAMES[self.pair[1]]}"

    @classmethod
    def from_name(cls, name: str) -> "Bipartition":
        if type(name) is not str:
            raise ParseError(f"bipartition name must be a string, got {name!r}")
        for bp in BIPARTITIONS:
            if bp.name == name.strip():
                return bp
        raise ParseError(f"unknown bipartition {name!r}, expected one of "
                         + ", ".join(bp.name for bp in BIPARTITIONS))

    def actors(self, ordering: int) -> tuple[int, int]:
        """(first, second) acting parties of the pair under an ordering."""
        return self.pair if ordering == 0 else self.pair[::-1]


BIPARTITIONS = (Bipartition(0, (1, 2)), Bipartition(1, (0, 2)), Bipartition(2, (0, 1)))


_FIELDS = {"bp", "order", "alpha", "beta", "gamma"}


class Wiring(_Value):
    """(bipartition, actor order, alpha, beta, gamma) with truth-table ints.

    ordering 0 means pair[0] acts first, 1 means pair[1] does.  beta ignoring
    its w1 argument makes the wiring type I (no output-to-input feed).
    """

    bipartition: Bipartition
    ordering: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if type(self.bipartition) is not Bipartition:
            raise ParseError(f"bipartition must be a Bipartition, got {self.bipartition!r}")
        # boxes._all_in's test written out: a pass over enumerate_wirings
        # builds a wiring per item, and a generator per field more than
        # doubles the cost of each.
        for field, value, width in (
            ("ordering", self.ordering, 2),
            ("alpha", self.alpha, 4),
            ("beta", self.beta, 16),
            ("gamma", self.gamma, 256),
        ):
            if not (type(value) is int and 0 <= value < width):
                raise ParseError(f"{field} must be an int in range({width}), got {value!r}")

    def encode(self) -> str:
        first, second = self.bipartition.actors(self.ordering)
        return (
            f"bp={self.bipartition.name} "
            f"order={PARTY_NAMES[first]},{PARTY_NAMES[second]} "
            f"alpha={self.alpha} beta={self.beta} gamma={self.gamma}"
        )

    @classmethod
    def parse(cls, text: str) -> "Wiring":
        if type(text) is not str:
            raise ParseError(f"wiring encoding must be a string, got {text!r}")
        fields = {}
        for token in text.split():
            if "=" not in token:
                raise ParseError(f"bad wiring token {token!r}")
            key, value = token.split("=", 1)
            if key in fields:
                raise ParseError(f"duplicate wiring field {key!r}")
            fields[key] = value
        if set(fields) != _FIELDS:
            raise ParseError(
                f"wiring encoding needs the fields {sorted(_FIELDS)}, got {sorted(fields)}"
            )
        bp = Bipartition.from_name(fields["bp"])
        order_parts = fields["order"].split(",")
        if len(order_parts) != 2:
            raise ParseError(f"bad order field {fields['order']!r}")
        try:
            first, second = (PARTY_NAMES.index(p.strip()) for p in order_parts)
        except ValueError as exc:
            raise ParseError(f"bad order field {fields['order']!r}") from exc
        if {first, second} != set(bp.pair):
            raise ParseError(
                f"order parties {fields['order']!r} do not match bipartition {bp.name}"
            )
        # int() would also take "0_2", "+4" or non-ASCII digits.
        digits = [fields[k] for k in ("alpha", "beta", "gamma")]
        if not all(re.fullmatch(r"[0-9]+", v) for v in digits):
            raise ParseError("alpha, beta, gamma must be integers")
        alpha, beta, gamma = map(int, digits)
        return cls(bp, 0 if first == bp.pair[0] else 1, alpha, beta, gamma)


def _branch(solo: int, first: int, second: int, xp: int, i1: int, w1: int, i2: int) -> tuple:
    """The flat indices of the four entries P(a', w2) at (a', w2) = 00, 01,
    10, 11 of one branch: solo input x', first actor input i1 and output w1,
    second actor input i2."""
    iw, ow = _IN_W[3], _OUT_W[3]
    j = xp * iw[solo] + i1 * iw[first] + i2 * iw[second] + w1 * ow[first]
    a, w = ow[solo], ow[second]
    return j, j + w, j + a, j + a + w


def _joined(h0: int, h1: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma) of the wiring whose halves are h0 and h1; in
    canonical order their bits interleave as (a1, a0, b1, b0, g1, g0)."""
    return (
        (h1 >> 6) << 1 | h0 >> 6,
        ((h1 >> 4) & 3) << 2 | (h0 >> 4) & 3,
        (h1 & 15) << 4 | h0 & 15,
    )


def apply_wiring(box: Box3, w: Wiring) -> Box2:
    """Effective bipartite box P(a'b'|x'y') of the wiring.

    The pair's branch with first output w1 is read at the input triple whose
    second input is beta(s', w1); no-signalling of the source makes this the
    correct sequential probability, with the 0 * (0/0) = 0 convention built
    in (a zero-probability branch contributes zero to every entry).  The
    sums run on the box's integer view (`Box3.scaled`) and are the
    effective box's view at the same scale, which `_from_view` reduces.
    The branches are read through _plan, as the sweep reads them.  A w that
    is not a Wiring raises ParseError.
    """
    _require(w, "apply_wiring", Wiring, ParseError)
    require_valid(_require3(box, "apply_wiring"))
    scale, table = box.scaled
    plan = _plan(w.bipartition.solo, *w.bipartition.actors(w.ordering))
    out = [0] * 16
    for sp, w1 in product(BITS, BITS):
        *_, js = plan[(w.alpha >> sp & 1) << 2 | w1 << 1 | (w.beta >> 2 * sp + w1 & 1)]
        g = w.gamma >> 4 * sp + 2 * w1
        # flat index 8*x' + 4*y' + 2*a' + b', b' = gamma bit w2 of (s', w1)
        b0, b1 = 4 * sp + (g & 1), 4 * sp + (g >> 1 & 1)
        for x, (j0, j1, j2, j3) in ((0, js[:4]), (8, js[4:])):
            out[x + b0] += table[j0]
            out[x + b1] += table[j1]
            out[x + 2 + b0] += table[j2]
            out[x + 2 + b1] += table[j3]
    return _from_view(Box2, scale, out)


@cache
def _plan(*roles: int) -> tuple:
    """(i1, w1, b, _branch entries at x' = 0, then 1) of a block's 8 branch pairs."""
    return tuple((i1, w1, b, _branch(*roles, 0, i1, w1, b) + _branch(*roles, 1, i1, w1, b))
                 for i1, w1, b in product(BITS, repeat=3))


def _summands(table, solo: int, first: int, second: int) -> tuple:
    """For each alpha bit i1, the summands (P, Q) of one (bipartition,
    ordering)'s columns, read from its 16 branches through _plan.

    With d = P(a'=0, w2) - P(a'=1, w2) of the branch (x', i1, w1, beta(w1)),
    E_x' sums d over (w1, w2), negated where gamma(w1, w2) = 1.  So for
    alpha = i1 the column of h = i1 << 6 | b1 << 5 | b0 << 4 | gq << 2 | gp
    is P[b0, gp] + Q[b1, gq]: P holds the 8 points of the w1 = 0 branches,
    indexed b0 << 4 | gp, and Q those of the w1 = 1 branches, indexed
    b1 << 5 | gq << 2.  Each summand maps a point to its first index.
    """
    out = ({}, {}), ({}, {})
    for i1, w1, b, (j0, j1, j2, j3, k0, k1, k2, k3) in _plan(solo, first, second):
        d0, d1 = table[j0] - table[j2], table[j1] - table[j3]
        e0, e1 = table[k0] - table[k2], table[k1] - table[k3]
        s, t = (d0 + d1, e0 + e1), (d1 - d0, e1 - e0)
        for g, point in enumerate((s, t, (-t[0], -t[1]), (-s[0], -s[1]))):
            out[i1][w1].setdefault(point, b << (4 + w1) | g << (2 * w1))
    return out


def _distinct_columns(summands: tuple) -> dict:
    """Each distinct column (E_0s', E_1s') of the 128 halves
    h = alpha(s') << 6 | beta(s', .) << 4 | gamma(s', ., .) of one block ->
    the first half giving it, from the block's _summands.  The halves of a
    point pair are a product set whose bits interleave, so the first half
    giving a point pair joins the first index of each point.
    """
    first_half = {}
    for i1, (p, q) in enumerate(summands):
        for (qx, qy), hq in q.items():
            for (px, py), hp in p.items():
                c, h = (px + qx, py + qy), i1 << 6 | hq | hp
                if h < first_half.get(c, 128):
                    first_half[c] = h
    return first_half


# Sign and swap maps of a column, each on a set of points, that relabel the
# effective box when applied to both columns: (x, -y) flips a' at x' = 1 and
# (y, x) swaps x'.  Gamma bits g and 3 - g give opposite columns, so -1 fixes
# every column set: these three with the identity are a set's whole orbit
# under the eight sign and swap maps.
_IMAGES = (
    lambda s: frozenset({(x, -y) for x, y in s}),
    lambda s: frozenset({(y, x) for x, y in s}),
    lambda s: frozenset({(-y, x) for x, y in s}),
)


def _half_hull(points) -> list:
    """One vertex of each +- pair of hull vertices of centrally symmetric
    distinct integer points: the lower monotone chain without its last
    point, the negated first (inner edge points dropped); [(0, 0)] alone."""
    chain = []
    for p in sorted(points):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2:]
            if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                break
            chain.pop()
        chain.append(p)
    return chain[:-1] or chain


def _block_max(first_half: dict, uffink: bool) -> dict:
    """Functional name -> (maximum over one block's wirings, first
    (alpha, beta, gamma) giving it), from first_half: each distinct column
    -> the first half giving it; "uffink_max" only if uffink.

    c0 and c1 range independently over the block's columns, a centrally
    symmetric set.  With S and D the maxima of |x + y| and |x - y| over it,
    bell's closed forms give CHSH S + D and the separable Uffink terms
    S**2 + D**2, both reached exactly where |s0| = S and |d1| = D, or
    |d0| = D and |s1| = S.  Those are product sets of halves, whose first
    wiring joins the first half reaching each side's maximum (_joined is
    monotone in each half).  The coupled Uffink term
    n0 + n1 + 2 |x0 x1 - y0 y1| is strictly convex in each column and even
    in each, so it runs over pairs of _half_hull vertices, each taking the
    smaller first half of itself and its negation.
    """
    top_s = top_d = 0
    h_s = h_d = 128
    for (x, y), h in first_half.items():
        s, d = abs(x + y), abs(x - y)
        if s > top_s or s == top_s and h < h_s:
            top_s, h_s = s, h
        if d > top_d or d == top_d and h < h_d:
            top_d, h_d = d, h
    found = {"chsh_max": [(top_s + top_d, h_s, h_d), (top_s + top_d, h_d, h_s)]}
    if uffink:
        hull = [(x, y, x * x + y * y, min(first_half[x, y], first_half[-x, -y]))
                for x, y in _half_hull(first_half)]
        separable = top_s * top_s + top_d * top_d
        found["uffink_max"] = [(separable, h_s, h_d), (separable, h_d, h_s)] + [
            (n0 + n1 + 2 * abs(x0 * x1 - y0 * y1), h0, h1)
            for x0, y0, n0, h0 in hull
            for x1, y1, n1, h1 in hull
        ]
    out = {}
    for f, scored in found.items():
        top = max(v for v, _, _ in scored)
        out[f] = top, min(_joined(h0, h1) for v, h0, h1 in scored if v == top)
    return out


class _Wirings(Sequence):
    """The sequence enumerate_wirings returns for one bipartition."""

    __slots__ = ("_bp",)

    def __init__(self, bp: Bipartition):
        self._bp = bp

    def __len__(self) -> int:
        return 32768

    def __getitem__(self, i):
        k = range(32768)[i]
        if type(k) is range:
            return [self[j] for j in k]
        return Wiring(self._bp, k >> 14, k >> 12 & 3, k >> 8 & 15, k & 255)


def enumerate_wirings(bp: Bipartition) -> Sequence[Wiring]:
    """All wirings on a bipartition in canonical (ordering, alpha, beta,
    gamma) order, 32768 in total and 8192 of them type I: a read-only
    sequence whose item k = ordering << 14 | alpha << 12 | beta << 8 | gamma
    is built (and validated) as a Wiring only when read.  A bp that is not a
    Bipartition raises ParseError."""
    return _Wirings(_require(bp, "enumerate_wirings", Bipartition, ParseError))


# The orbit functionals search_max_all scores -> their degree in the table.
_DEGREES = {"chsh_max": 1, "uffink_max": 2}


def search_max_all(
    box: Box3, functionals: tuple[str, ...] = ("chsh_max", "uffink_max")
) -> dict[str, tuple[Wiring, Fraction]]:
    """Exact maximum of each named orbit functional over all 98,304 wirings,
    with the first maximising wiring in canonical (bipartition, ordering,
    alpha, beta, gamma) order.

    Both maxima depend only on the correlator table, whose column at y' = s'
    is fixed by the wiring's half at s', so each (bipartition, ordering)
    scores its distinct columns, in the integers of the box's integer view
    (`Box3.scaled`), through bell's closed forms (_block_max): one pass
    finds the maxima S and D of |x + y| and |x - y|, which give CHSH S + D
    and Uffink's separable terms S**2 + D**2, and half the hull gives its
    cross term.  Uffink's hull is built only when it is requested.

    A later block must do strictly better to win, so two exact rules skip
    the blocks that cannot; a block that is not skipped scores every
    requested functional.  On the integer view |E| <= scale, so no wiring
    beats CHSH 4 * scale or Uffink 8 * scale**2: once every functional has
    reached its bound, the remaining blocks are not read.  And a block whose
    column set is a scored block's, or its image under one of _IMAGES, is
    skipped before it is scored: the maps relabel the effective box, so its
    maxima cannot be better.  The column set is -1-symmetric, so it and its
    three images are its whole orbit under the eight sign and swap maps,
    and storing those four sets of each scored block is exact.
    """
    if type(functionals) not in (tuple, list):
        raise ParseError(f"search_max_all needs a tuple or list of functional names, "
                         f"got {functionals!r}")
    for f in functionals:
        if type(f) is not str or f not in _DEGREES:
            raise ParseError(f"unknown functional {f!r}")
    require_valid(_require3(box, "search_max_all"))
    scale, table = box.scaled
    bound = {"chsh_max": 4 * scale, "uffink_max": 8 * scale * scale}
    best: dict[str, tuple[int, Wiring]] = {}
    scored = set()
    for bp, ordering in product(BIPARTITIONS, BITS):
        if all(f in best and best[f][0] >= bound[f] for f in functionals):
            break
        first_half = _distinct_columns(_summands(table, bp.solo, *bp.actors(ordering)))
        columns = frozenset(first_half)
        if columns in scored:
            continue
        scored.update([columns, *(m(columns) for m in _IMAGES)])
        block = _block_max(first_half, "uffink_max" in functionals)
        for f in functionals:
            v, abg = block[f]
            if f not in best or v > best[f][0]:
                best[f] = (v, Wiring(bp, ordering, *abg))
    # on a table scaled by D, chsh_max scales by D and uffink_max by D**2
    return {f: (w, Fraction(v, scale ** _DEGREES[f])) for f, (v, w) in best.items()}
