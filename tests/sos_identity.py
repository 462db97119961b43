"""The sum-of-squares identity behind k_value's quantum bound.

k = X1'X1 + 2 X2'X2 + 2 X3'X3 holds as an identity of operators, so
k_value (nsboxes.bell) is nonnegative on every quantum box, while class4
reaches -1.  The squares are expanded here in a noncommuting word algebra;
tests/test_bell.py and tests/test_acceptance.py check the identity and pin
the residual of the commuting order.
"""

from fractions import Fraction


def _times(p: dict, q: dict) -> dict:
    """Product of polynomials in +-1 observables: a monomial is one word of
    inputs per party (A, B, C), reduced by X_x^2 = 1; parties commute."""
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            mono = []
            for w, y in zip(u, v):
                for t in y:
                    w = w[:-1] if w[-1:] == t else w + t
                mono.append(w)
            out[tuple(mono)] = out.get(tuple(mono), 0) + a * b
    return {m: c for m, c in out.items() if c}


def _sos_residual() -> dict:
    """k - X1'X1 - 2 X2'X2 - 2 X3'X3 in noncommuting observables, X' the adjoint
    (each word reversed), with alpha = A1C0, beta = A0B1, gamma = A0B0C0,
    delta = B0C1, X1 = (beta alpha + gamma delta)/2 - 1, X2 = (alpha +
    beta)/2 - 1 and X3 = (gamma + delta)/2 - 1."""
    one, a, b, g, d = ("", "", ""), ("1", "", "0"), ("0", "1", ""), ("0", "0", "0"), ("", "0", "1")
    (x1,) = _times({b: 1}, {a: 1})
    (gd,) = _times({g: 1}, {d: 1})
    out = {one: Fraction(15, 2), ("1", "1", "1"): Fraction(1, 2), a: -2, b: -2, g: -2, d: -2}
    for c, x, y in ((1, x1, gd), (2, a, b), (2, g, d)):
        sq = {x: Fraction(1, 2), y: Fraction(1, 2), one: -1}
        adjoint = {tuple(w[::-1] for w in m): v for m, v in sq.items()}
        for m, v in _times(adjoint, sq).items():
            out[m] = out.get(m, 0) - c * v
    return {m: v for m, v in out.items() if v}


def sos_identity_check() -> bool:
    """Verify k = X1'X1 + 2 X2'X2 + 2 X3'X3 (_sos_residual) as an identity of
    operators: A_x^2 = 1, observables of different parties commute, those
    of one party need not.  Each term is then positive semidefinite, so
    k_value is nonnegative on every quantum box."""
    return not _sos_residual()
