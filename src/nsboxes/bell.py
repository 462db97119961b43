"""Bell-type functionals and information-causality witnesses.

Correlators use the 0 -> +1, 1 -> -1 output convention.  The fixed CHSH
and Uffink forms and the information-causality bounds on them are defined
below (_CHSH, _UFFINK, _ic_bounds_broken); the *_max variants take the
maximum of the fixed form over the full 128-element bipartite relabeling
group (party swap, input flips, per-input output flips), so they are
relabeling invariants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .boxes import (
    BITS,
    Box2,
    Box3,
    ZERO,
    ArityError,
    ParseError,
    Relabeling,
    _WEIGHTS,
    _Value,
    _read_entries,
    _require,
    _require2,
    _require3,
    block_correlators,
    correlator,
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
    return block_correlators(_require2(box, "correlator_table").table)


def _dot(c, e):
    return c[0] * e[0] + c[1] * e[1] + c[2] * e[2] + c[3] * e[3]


def chsh(box: Box2) -> Fraction:
    return _dot(_CHSH, correlator_table(box))


def uffink(box: Box2) -> Fraction:
    e = correlator_table(box)
    return sum(_dot(b, e) ** 2 for b in _UFFINK)


def _up_to_sign(form) -> tuple[int, ...]:
    """The form, negated if needed so its first nonzero is positive."""
    lead = next(c for c in form if c)
    return tuple(c if lead > 0 else -c for c in form)


def _generators2() -> tuple[Relabeling, ...]:
    """The party swap, the two input flips and the four per-input output flips."""
    units = (tuple(int(i == k) for i in range(7)) for k in range(7))
    return tuple(Relabeling((u[0], 1 - u[0]), u[1:3], (u[3:5], u[5:])) for u in units)


@cache
def _orbit_forms():
    """(CHSH forms, Uffink bracket pairs) over the 128 relabelings, as
    coefficient vectors on the correlator table (E00, E01, E10, E11).

    A relabeling permutes the 16 table entries (`Relabeling.permutation`),
    so it acts linearly on the correlator table: coefficient j of the image
    of a linear form is the form evaluated on the permuted j-th basis table.
    The j-th basis table carries the signs (1, -1, -1, 1) on block j of the
    flat layout and 0 elsewhere, so its correlators are 4 at j and 0
    elsewhere.  Only the seven generators of the group (_generators2) are
    built; each orbit is closed under their actions, every element being a
    nonempty word in them.  |CHSH| and the squared Uffink brackets do not
    see a form's sign, so forms are kept up to sign, which a linear action
    respects: 4 CHSH forms and 4 bracket pairs remain, and evaluating them
    is exactly evaluating the whole orbit.
    """
    basis = [(0,) * 4 * j + (1, -1, -1, 1) + (0,) * 4 * (3 - j) for j in range(4)]
    pushed = ([[b[i] for i in r.permutation] for b in basis] for r in _generators2())
    actions = [[[c // 4 for c in block_correlators(t)] for t in tables] for tables in pushed]
    image = lambda m, forms: tuple(sorted(_up_to_sign([_dot(f, e) for e in m]) for f in forms))
    orbits = [[tuple(sorted(map(_up_to_sign, forms)))] for forms in ((_CHSH,), _UFFINK)]
    for orbit in orbits:
        for v in orbit:  # a worklist: the loop also visits what it appends
            orbit += {image(m, v) for m in actions}.difference(orbit)
    return tuple(f for (f,) in sorted(orbits[0])), tuple(sorted(orbits[1]))


def chsh_max(box: Box2) -> Fraction:
    """Maximum of |CHSH| over the full relabeling orbit of the box.

    The forms are evaluated in ints on the correlators of the box's integer
    view (`Box2.scaled`), which are `scale` times the box's; the maximum is
    returned as Fraction(m, scale).
    """
    scale, t = _require2(box, "chsh_max").scaled
    e = block_correlators(t)
    return Fraction(max(abs(_dot(c, e)) for c in _orbit_forms()[0]), scale)


def uffink_max(box: Box2) -> Fraction:
    """Maximum of the Uffink form over the full relabeling orbit of the box.

    Evaluated in ints like chsh_max; the form is quadratic, so the maximum
    is returned as Fraction(m, scale**2).
    """
    scale, t = _require2(box, "uffink_max").scaled
    e = block_correlators(t)
    return Fraction(max(_dot(p, e) ** 2 + _dot(q, e) ** 2 for p, q in _orbit_forms()[1]), scale ** 2)


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
    over the no-signalling set is -1.
    """
    _require3(box, "k_value")
    c = lambda parties, ins: correlator(box, parties, ins)
    return (
        Fraction(15, 2)
        + Fraction(1, 2) * c((0, 1, 2), (1, 1, 1))
        - 2
        * (
            c((0, 1, 2), (0, 0, 0))
            + c((0, 1), (0, 1))
            + c((1, 2), (0, 1))
            + c((0, 2), (1, 0))
        )
    )


def parse_gyni_weights(text: str) -> GyniWeights:
    """Weights from a weight file, which boxes._read_entries reads (README,
    "Weight files"); weights GyniWeights refuses are a ParseError too."""
    try:
        return GyniWeights(_read_entries(text, "weights", _WEIGHTS))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
