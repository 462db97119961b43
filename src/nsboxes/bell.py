"""Bell-type functionals and information-causality witnesses.

Correlators use the 0 -> +1, 1 -> -1 output convention.  The fixed CHSH
and Uffink forms and the information-causality bounds on them are defined
below (_CHSH, _UFFINK, _ic_bounds_broken); the *_max variants take the
maximum of the fixed form over the full 128-element bipartite relabeling
group (party swap, input flips, per-input output flips), so they are
relabeling invariants.  Those maxima are written in closed form on the
correlator columns, so no relabeling is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .boxes import (
    BITS,
    Box2,
    Box3,
    ZERO,
    ArityError,
    ParseError,
    _WEIGHTS,
    _Value,
    _correlation,
    _read_entries,
    _require,
    _require2,
    _require3,
    block_correlators,
    exact_values,
)


# Coefficient vectors on the correlator table (E00, E01, E10, E11): the CHSH
# form E00 + E01 + E10 - E11, and the two brackets of the Uffink form
# (E00 + E10)^2 + (E01 - E11)^2.
_CHSH = (1, 1, 1, -1)
_UFFINK = ((1, 0, 1, 0), (0, 1, 0, -1))


def _ic_bounds_broken(chsh_value: Fraction, uffink_value: Fraction) -> tuple[bool, bool]:
    """Whether chsh_value (squared) and uffink_value each break the bound
    that information causality sets on it; either one witnesses a
    violation."""
    return chsh_value * chsh_value > 8, uffink_value > 4


def correlator_table(box: Box2) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(E00, E01, E10, E11) with Exy indexed by 2*x + y."""
    scale, t = _require2(box, "correlator_table").scaled
    return tuple(Fraction(e, scale) for e in block_correlators(t))


def _dot(c, e):
    return c[0] * e[0] + c[1] * e[1] + c[2] * e[2] + c[3] * e[3]


def chsh(box: Box2) -> Fraction:
    return _dot(_CHSH, correlator_table(box))


def uffink(box: Box2) -> Fraction:
    e = correlator_table(box)
    return sum(_dot(b, e) ** 2 for b in _UFFINK)


def chsh_max(box: Box2) -> Fraction:
    """Maximum of |CHSH| over the full relabeling orbit of the box.

    A relabeling permutes and negates the rows and columns of the
    correlator table, or transposes it, so the orbit of the CHSH form is,
    up to sign, the four forms with one minus sign.  On the columns
    c0 = (x0, y0) = (E00, E10) and c1 = (x1, y1) = (E01, E11), with s = x + y
    and d = x - y for each, they are s0 +- d1 and d0 +- s1, so the maximum
    is max(|s0| + |d1|, |d0| + |s1|).  It is evaluated in ints on the
    correlators of the box's integer view (`Box2.scaled`), which are
    `scale` times the box's, and returned as Fraction(m, scale).
    """
    scale, t = _require2(box, "chsh_max").scaled
    x0, x1, y0, y1 = block_correlators(t)
    return Fraction(max(abs(x0 + y0) + abs(x1 - y1), abs(x0 - y0) + abs(x1 + y1)), scale)


def uffink_max(box: Box2) -> Fraction:
    """Maximum of the Uffink form over the full relabeling orbit of the box.

    Up to the sign of each bracket, the orbit of the bracket pair is
    s0**2 + d1**2, d0**2 + s1**2 (notation of chsh_max) and the two coupled
    pairs (x0 +- x1)**2 + (y0 -+ y1)**2 = n0 + n1 +- 2 (x0 x1 - y0 y1), with
    n = x**2 + y**2 for a column, the larger of which takes the absolute
    value.  Evaluated in ints like chsh_max; the form is quadratic,
    so the maximum is returned as Fraction(m, scale**2).
    """
    scale, t = _require2(box, "uffink_max").scaled
    x0, x1, y0, y1 = block_correlators(t)
    s0, d0, s1, d1 = x0 + y0, x0 - y0, x1 + y1, x1 - y1
    coupled = x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1 + 2 * abs(x0 * x1 - y0 * y1)
    return Fraction(max(s0 * s0 + d1 * d1, d0 * d0 + s1 * s1, coupled), scale ** 2)


class IcVerdict(_Value):
    """Information-causality verdict for a bipartite box.

    witness is 'chsh' when chsh_max breaks its bound (_ic_bounds_broken),
    else 'uffink' when uffink_max breaks its bound, else None; value carries
    the witnessing functional's value.
    """

    violated: bool
    witness: str | None
    value: Fraction | None

    @classmethod
    def from_values(cls, chsh_value: Fraction, uffink_value: Fraction) -> "IcVerdict":
        chsh_value, uffink_value = exact_values((chsh_value, uffink_value))
        chsh_broken, uffink_broken = _ic_bounds_broken(chsh_value, uffink_value)
        if chsh_broken:
            return cls(True, "chsh", chsh_value)
        if uffink_broken:
            return cls(True, "uffink", uffink_value)
        return cls(False, None, None)


class GyniWeights(_Value):
    """Nonnegative weights q(x1,x2,x3) summing to 1, flat index 4x1+2x2+x3."""

    q: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.q, (tuple, list)) or len(self.q) != 8:
            raise ArityError(f"need a tuple of 8 weights, got {self.q!r}")
        q = exact_values(self.q)
        object.__setattr__(self, "q", q)
        if any(v < 0 for v in q):
            raise ValueError("weights must be nonnegative")
        if sum(q) != 1:
            raise ValueError(f"weights sum to {sum(q)}, not 1")

    @classmethod
    def uniform_even_parity(cls) -> "GyniWeights":
        """1/4 on each input triple of even parity, the canonical game."""
        q = (Fraction(1, 4) if x1 ^ x2 ^ x3 == 0 else ZERO for x1, x2, x3 in product(BITS, repeat=3))
        return cls(tuple(q))


def gyni_value(box: Box3, weights: GyniWeights) -> Fraction:
    """Probability that each party outputs its right neighbour's input."""
    _require3(box, "gyni_value")
    q = _require(weights, "gyni_value", GyniWeights, ParseError).q
    total = ZERO
    for x1, x2, x3 in product(BITS, repeat=3):
        w = q[4 * x1 + 2 * x2 + x3]
        if w:
            total += w * box.prob(x2, x3, x1, x1, x2, x3)
    return total


def gyni_bound(weights: GyniWeights) -> Fraction:
    """Local bound, the best deterministic value: max over x of q(x) + q(complement x)."""
    q = _require(weights, "gyni_bound", GyniWeights, ParseError).q
    return max(q[i] + q[7 - i] for i in range(8))


def k_value(box: Box3) -> Fraction:
    """15/2 + <A1B1C1>/2 - 2(<A0B0C0> + <A0B1> + <B0C1> + <A1C0>).

    Nonnegative on every quantum box: k = X1'X1 + 2 X2'X2 + 2 X3'X3 as an
    identity of operators, which tests/sos_identity.py expands; its minimum
    over the no-signalling set is -1.  Evaluated in ints on the correlators
    of the box's integer view, which are `scale` times the box's, as
    (15 scale + C111 - 4 (C000 + ...)) / (2 scale).
    """
    scale, t = _require3(box, "k_value").scaled
    c = lambda parties, ins: _correlation(t, 3, parties, ins)
    return Fraction(
        15 * scale
        + c((0, 1, 2), (1, 1, 1))
        - 4 * (c((0, 1, 2), (0, 0, 0)) + c((0, 1), (0, 1)) + c((1, 2), (0, 1)) + c((0, 2), (1, 0))),
        2 * scale,
    )


def parse_gyni_weights(text: str) -> GyniWeights:
    """Weights from a weight file, which boxes._read_entries reads (README,
    "Weight files"); weights GyniWeights refuses are a ParseError too."""
    scale, q = _read_entries(text, "weights", _WEIGHTS)
    try:
        return GyniWeights(tuple(Fraction(v, scale) for v in q))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
