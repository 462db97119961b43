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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .boxes import (
    BITS,
    Box2,
    Box3,
    PARTY_NAMES,
    ParseError,
    _IN_W,
    _OUT_W,
    block_correlators,
    require_valid,
)
from . import bell


@dataclass(frozen=True)
class Bipartition:
    """One party alone versus the remaining pair (pair kept in party order)."""

    solo: int
    pair: tuple[int, int]

    @property
    def name(self) -> str:
        return f"{PARTY_NAMES[self.solo]}|{PARTY_NAMES[self.pair[0]]}{PARTY_NAMES[self.pair[1]]}"

    @classmethod
    def from_name(cls, name: str) -> "Bipartition":
        for bp in BIPARTITIONS:
            if bp.name == name.strip():
                return bp
        raise ParseError(f"unknown bipartition {name!r}, expected one of "
                         + ", ".join(bp.name for bp in BIPARTITIONS))

    def actors(self, ordering: int) -> tuple[int, int]:
        """(first, second) acting parties of the pair under an ordering."""
        return self.pair if ordering == 0 else self.pair[::-1]


BIPARTITIONS = (
    Bipartition(0, (1, 2)),
    Bipartition(1, (0, 2)),
    Bipartition(2, (0, 1)),
)


_FIELDS = {"bp", "order", "alpha", "beta", "gamma"}


@dataclass(frozen=True)
class Wiring:
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
        if self.ordering not in BITS:
            raise ParseError(f"ordering must be 0 or 1, got {self.ordering}")
        for field, value, width in (
            ("alpha", self.alpha, 4),
            ("beta", self.beta, 16),
            ("gamma", self.gamma, 256),
        ):
            if not 0 <= value < width:
                raise ParseError(f"{field} truth table out of range: {value}")

    def actors(self) -> tuple[int, int]:
        """(first, second) acting parties of the pair."""
        return self.bipartition.actors(self.ordering)

    @property
    def is_type_i(self) -> bool:
        return all(
            (self.beta >> (2 * s)) & 1 == (self.beta >> (2 * s + 1)) & 1
            for s in BITS
        )

    def encode(self) -> str:
        first, second = self.actors()
        return (
            f"bp={self.bipartition.name} "
            f"order={PARTY_NAMES[first]},{PARTY_NAMES[second]} "
            f"alpha={self.alpha} beta={self.beta} gamma={self.gamma}"
        )

    @classmethod
    def parse(cls, text: str) -> "Wiring":
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


def _half_table(table, solo: int, first: int, second: int, half: int) -> tuple:
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


def _halves(w: Wiring) -> tuple[int, int]:
    """The halves of w at s' = 0 and s' = 1, packed as in _half_table."""
    return tuple(
        ((w.alpha >> s) & 1) << 6 | ((w.beta >> (2 * s)) & 3) << 4 | (w.gamma >> (4 * s)) & 15
        for s in BITS
    )


def _joined(h0: int, h1: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma) of the wiring whose halves are h0 and h1; in
    canonical order their bits interleave as (a1, a0, b1, b0, g1, g0)."""
    return (
        (h1 >> 6) << 1 | h0 >> 6,
        ((h1 >> 4) & 3) << 2 | (h0 >> 4) & 3,
        (h1 & 15) << 4 | h0 & 15,
    )


def _effective(t0, t1) -> tuple:
    """Box2 table (flat index 8*x' + 4*y' + 2*a' + b') from its two halves."""
    return t0[:4] + t1[:4] + t0[4:] + t1[4:]


def apply_wiring(box: Box3, w: Wiring) -> Box2:
    """Effective bipartite box P(a'b'|x'y') of the wiring.

    The pair's branch with first output w1 is read at the input triple whose
    second input is beta(s', w1); no-signalling of the source makes this the
    correct sequential probability, with the 0 * (0/0) = 0 convention built
    in (a zero-probability branch contributes zero to every entry).
    """
    require_valid(box)
    first, second = w.actors()
    t0, t1 = (
        _half_table(box.table, w.bipartition.solo, first, second, h) for h in _halves(w)
    )
    return Box2(_effective(t0, t1))


def _integer_table(box: Box3) -> tuple[int, tuple[int, ...]]:
    """(D, D * table) with D the lcm of the table's denominators."""
    scale = lcm(*(v.denominator for v in box.table))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in box.table)


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
                first_half.setdefault(key(_half_table(table, bp.solo, first, second, h)), h)
            pairs = sorted(
                (_joined(h0, h1), k0, k1)
                for k0, h0 in first_half.items()
                for k1, h1 in first_half.items()
            )
            for abg, k0, k1 in pairs:
                yield Wiring(bp, ordering, *abg), k0, k1


def enumerate_wirings(bp: Bipartition) -> list[Wiring]:
    """All wirings on a bipartition in canonical (ordering, alpha, beta,
    gamma) order; 32768 in total, 8192 of them type I."""
    return [Wiring(bp, *abg) for abg in product(BITS, range(4), range(16), range(256))]


# name -> orbit maximum of a correlator table.  chsh_max is linear in the
# table and uffink_max quadratic: on a table scaled by D they scale by D**degree.
_FUNCTIONALS = {
    "chsh_max": bell.chsh_max_of_correlators,
    "uffink_max": bell.uffink_max_of_correlators,
}
_DEGREE = {"chsh_max": 1, "uffink_max": 2}


def search_max(box: Box3, functional: str) -> tuple[Wiring, Fraction]:
    """Exact maximum of a relabeling-invariant functional over all wirings.

    Returns the lexicographically first maximizing wiring in the canonical
    (bipartition, ordering, alpha, beta, gamma) enumeration order.
    """
    result = search_max_all(box, (functional,))
    return result[functional]


def search_max_all(
    box: Box3, functionals: tuple[str, ...] = ("chsh_max", "uffink_max")
) -> dict[str, tuple[Wiring, Fraction]]:
    """Run several functionals over one wiring sweep; same tie-break as
    search_max for each.

    Both orbit maxima depend only on the correlator table, whose column at
    y' = s' is fixed by the half of the wiring at s'.  So the functionals run
    once per pair of distinct columns, in integers scaled by the lcm D of
    the box's denominators, and no effective box is built.
    """
    for f in functionals:
        if f not in _FUNCTIONALS:
            raise ParseError(f"unknown functional {f!r}")
    require_valid(box)
    scale, table = _integer_table(box)
    best: dict[str, tuple[Wiring, int]] = {}
    # A half-table's block correlators are its column (E_0s', E_1s').
    for w, c0, c1 in _sweep(table, block_correlators):
        e = (c0[0], c1[0], c0[1], c1[1])
        for f in functionals:
            v = _FUNCTIONALS[f](e)
            if f not in best or v > best[f][1]:
                best[f] = (w, v)
    return {
        f: (w, Fraction(v, scale ** _DEGREE[f])) for f, (w, v) in best.items()
    }


def distinct_effective_boxes(box: Box3) -> dict[tuple[Fraction, ...], Wiring]:
    """Map each distinct effective table over all wirings of all bipartitions
    to the first wiring producing it (canonical enumeration order)."""
    require_valid(box)
    scale, table = _integer_table(box)
    seen: dict[tuple[int, ...], Wiring] = {}
    for w, t0, t1 in _sweep(table, tuple):
        seen.setdefault(_effective(t0, t1), w)
    return {tuple(Fraction(v, scale) for v in t): w for t, w in seen.items()}
