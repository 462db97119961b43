"""Exact rational linear feasibility with verifiable certificates.

Problems are systems  A x = b, x >= 0  with sparse rows and int or Fraction
data.  lp_feasible answers with either a feasible point or a Farkas witness
y satisfying  y^T A <= 0 componentwise and y^T b > 0; both certificate kinds
re-verify by direct substitution into the original system.

The solver presolves rows with zero right-hand side whose live coefficients
all share one sign (every column they touch is forced to zero), then runs a
phase-1 revised simplex with Bland's rule on what remains.  The simplex
works on integers: the reduced system is scaled once by the lcm of its
denominators, and the basis inverse is kept as integers times its
determinant, updated fraction-free, with only the columns of basic
structural variables stored.  Farkas witnesses found on the reduced system
are lifted back through the presolve steps, so certificates always refer to
the caller's row and column indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boxes import InexactValueError, integer_scaled

ZERO = Fraction(0)
ONE = Fraction(1)


class LPError(Exception):
    """Inconsistent solver state; indicates a bug, not bad input."""


def _is_exact(value) -> bool:
    """True for an int or a Fraction, False for a bool and anything else."""
    return type(value) is int or isinstance(value, Fraction)


@dataclass(frozen=True)
class LPProblem:
    """Equality-constrained feasibility problem over nonnegative variables.

    rows is a tuple of (entries, rhs) with entries a tuple of (column,
    coefficient) pairs; zero coefficients are allowed and ignored.  A
    column outside 0..num_vars-1, or listed twice in one row, raises
    LPError.  Coefficients and right-hand sides must be int or Fraction;
    anything else (a float, a bool, a str, a Decimal) raises
    InexactValueError.
    """

    num_vars: int
    rows: tuple

    def __post_init__(self):
        for entries, rhs in self.rows:
            if not _is_exact(rhs):
                raise InexactValueError(f"right-hand side {rhs!r} is not an int or a Fraction")
            seen = set()
            for col, coeff in entries:
                if not 0 <= col < self.num_vars:
                    raise LPError(f"column {col} out of range")
                if col in seen:
                    raise LPError(f"column {col} listed twice in one row")
                seen.add(col)
                if not _is_exact(coeff):
                    raise InexactValueError(f"coefficient {coeff!r} in column {col} is not an int or a Fraction")

    @cached_property
    def columns(self) -> dict:
        """Column index: column -> list of its (row, coefficient) pairs with
        nonzero coefficient, rows ascending.  Built once; do not mutate."""
        index: dict[int, list] = {}
        for r, (entries, _) in enumerate(self.rows):
            for col, coeff in entries:
                if coeff:
                    index.setdefault(col, []).append((r, coeff))
        return index


def _integer_scaled(values: dict) -> tuple[int, dict]:
    """(scale, {key: value * scale}), boxes.integer_scaled on a dict's
    values: ints of the same signs."""
    scale, ints = integer_scaled(values.values())
    return scale, dict(zip(values, ints))


@dataclass(frozen=True)
class LPCertificate:
    """Either a feasible point (sparse, by column) or a Farkas witness
    (sparse, by row).  verify() re-checks exactly against a problem."""

    feasible: bool
    point: tuple | None
    farkas: tuple | None

    def point_dict(self) -> dict:
        return dict(self.point or ())

    def farkas_dict(self) -> dict:
        return dict(self.farkas or ())

    def verify(self, problem: LPProblem) -> bool:
        if self.feasible:
            x = self.point_dict()
            if any(v < 0 for v in x.values()):
                return False
            if any(not 0 <= c < problem.num_vars for c in x):
                return False
            for entries, rhs in problem.rows:
                total = ZERO
                for col, coeff in entries:
                    xv = x.get(col)
                    if xv is not None and coeff:
                        total += coeff * xv
                if total != rhs:
                    return False
            return True
        y = {r: Fraction(v) for r, v in self.farkas_dict().items()}
        if any(not 0 <= r < len(problem.rows) for r in y):
            return False
        # Scaling y to integers keeps every sign below, and keeps the
        # column sums in integers when the coefficients are.
        _, y = _integer_scaled(y)
        col_sums: dict = {}
        rhs_sum = ZERO
        for r, yv in y.items():
            entries, rhs = problem.rows[r]
            rhs_sum += yv * rhs
            for col, coeff in entries:
                if coeff:
                    col_sums[col] = col_sums.get(col, 0) + yv * coeff
        if rhs_sum <= 0:
            return False
        return all(s <= 0 for s in col_sums.values())

    def to_text(self) -> str:
        if self.feasible:
            lines = ["feasible"]
            for col, v in sorted(self.point or ()):
                lines.append(f"{col} = {v}")
        else:
            lines = ["infeasible"]
            for row, v in sorted(self.farkas or ()):
                lines.append(f"{row} = {v}")
        return "\n".join(lines) + "\n"


def _lift_farkas(problem: LPProblem, steps: list, farkas: dict) -> dict:
    """Extend a witness of the reduced system to the full system.

    steps holds (row, sign, live_entries) in elimination order; each restored
    row gets the multiplier -sign * M with M large enough that every column
    the step removed keeps a nonpositive aggregate.  Restored multipliers
    pair with zero right-hand sides, so y^T b is untouched.
    """
    for row, sign, live in reversed(steps):
        m = max(
            (sum((farkas[r] * c for r, c in problem.columns[col] if r in farkas), ZERO) / abs(coeff)
             for col, coeff in live),
            default=ZERO,
        )
        if m > 0:
            farkas[row] = -sign * m
    return farkas


def _presolve(problem: LPProblem):
    """Fix to zero every column touched by a same-sign zero-rhs row.

    Returns (col_alive, active_rows, steps) or an infeasibility certificate
    when a row with no live columns has nonzero right-hand side.
    """
    m = len(problem.rows)
    col_alive = [True] * problem.num_vars
    row_alive = [True] * m
    live_count = [sum(1 for _, coeff in entries if coeff) for entries, _ in problem.rows]
    steps: list = []
    queue = deque(range(m))
    queued = [True] * m
    while queue:
        i = queue.popleft()
        queued[i] = False
        if not row_alive[i]:
            continue
        entries, rhs = problem.rows[i]
        if live_count[i] == 0:
            if rhs != 0:
                farkas = {i: ONE if rhs > 0 else -ONE}
                return None, None, None, _lift_farkas(problem, steps, farkas)
            row_alive[i] = False
            continue
        if rhs != 0:
            continue
        live = [(col, coeff) for col, coeff in entries if coeff and col_alive[col]]
        if all(coeff > 0 for _, coeff in live):
            sign = 1
        elif all(coeff < 0 for _, coeff in live):
            sign = -1
        else:
            continue
        steps.append((i, sign, tuple(live)))
        row_alive[i] = False
        for col, _ in live:
            col_alive[col] = False
            for r, _ in problem.columns[col]:
                if row_alive[r]:
                    live_count[r] -= 1
                    if not queued[r]:
                        queue.append(r)
                        queued[r] = True
    active_rows = [i for i in range(m) if row_alive[i]]
    return col_alive, active_rows, steps, None


def _phase1(problem: LPProblem, col_alive, active_rows):
    """Phase-1 revised simplex on the reduced system, in integers.

    Returns (point, None) on feasibility or (None, farkas) where both use the
    original row and column ids.  A basic variable is labelled by its column
    id, or by num_vars + pos for the artificial of row pos, so int order is
    Bland's order, structurals first.  Bland's rule (lowest-index entering
    column, lowest-label leaving variable) guarantees termination;
    artificials never re-enter, which just restricts later iterations to a
    smaller problem with the same feasibility answer.

    The updates are fraction-free (Bareiss, Math. Comp. 22, 1968).  Rows are
    signed so the right-hand side is nonnegative, then all scaled by one lcm
    of the denominators: one scale leaves each artificial's phase-1 cost, the
    duals and every ratio as they are, where a scale per row would not.
    With det the determinant of the basis, det * x_B and det * B^-1 are
    integers.  A pivot on row r with entry piv maps every other row v_i to
    (piv * v_i - d_i * v_r) // det, an exact division, keeps row r, and
    makes piv the new det.  Column j of B^-1 stays e_j while position j
    holds its artificial, so only the columns of positions holding a
    structural are stored, and a pivot costs O(m k) for k basic structurals.
    """
    n = problem.num_vars
    m = len(active_rows)
    sign = [-1 if problem.rows[i][1] < 0 else 1 for i in active_rows]
    rhs = [s * problem.rows[i][1] for s, i in zip(sign, active_rows)]
    cols: dict[int, list] = {}
    for pos, i in enumerate(active_rows):
        for col, coeff in problem.rows[i][0]:
            if coeff and col_alive[col]:
                cols.setdefault(col, []).append((pos, sign[pos] * coeff))
    _, ints = integer_scaled([*rhs, *(c for e in cols.values() for _, c in e)])
    xb, coeffs = list(ints[:m]), iter(ints[m:])
    cols = {col: [(pos, next(coeffs)) for pos, _ in e] for col, e in cols.items()}
    col_ids = sorted(cols)
    det = 1
    inv: dict[int, list] = {}  # position -> its column of det * B^-1, structural positions only
    basis = [n + pos for pos in range(m)]

    while True:
        art_rows = [i for i in range(m) if basis[i] >= n]
        if not any(xb[i] for i in art_rows):
            return {basis[i]: Fraction(xb[i], det) for i in range(m) if basis[i] < n and xb[i]}, None
        # det * duals of the phase-1 objective (artificial cost 1, structural 0).
        y = [det] * m
        for j, column in inv.items():
            y[j] = sum(column[i] for i in art_rows)
        entering = next(
            (col for col in col_ids if sum(y[pos] * coeff for pos, coeff in cols[col] if y[pos]) > 0),
            None,
        )
        if entering is None:
            return None, {i: Fraction(s * yv, det) for i, s, yv in zip(active_rows, sign, y) if yv}
        d = [0] * m
        for pos, coeff in cols[entering]:
            column = inv.get(pos)
            if column is None:
                d[pos] += det * coeff
            else:
                d = [di + coeff * v for di, v in zip(d, column)]
        # Leaving row: least ratio xb[i] / d[i] over d[i] > 0, then least label.
        r = -1
        for i, di in enumerate(d):
            if di > 0:
                if r < 0:
                    r = i
                    continue
                here, best = xb[i] * d[r], xb[r] * di
                if here < best or here == best and basis[i] < basis[r]:
                    r = i
        if r < 0:
            raise LPError("phase-1 objective unbounded; inconsistent state")
        piv = d[r]
        if r not in inv:
            inv[r] = [0] * m
            inv[r][r] = det
        for column in (xb, *inv.values()):
            vr = column[r]
            column[:] = [(piv * v - di * vr) // det for v, di in zip(column, d)]
            column[r] = vr
        det = piv
        basis[r] = entering


def lp_feasible(problem: LPProblem) -> LPCertificate:
    """Decide A x = b, x >= 0 and return a verifiable certificate."""
    col_alive, active_rows, steps, early = _presolve(problem)
    if early is not None:
        cert = LPCertificate(False, None, tuple(sorted(early.items())))
    else:
        point, farkas = _phase1(problem, col_alive, active_rows)
        if farkas is not None:
            farkas = _lift_farkas(problem, steps, farkas)
            cert = LPCertificate(False, None, tuple(sorted(farkas.items())))
        else:
            cert = LPCertificate(True, tuple(sorted(point.items())), None)
    if not cert.verify(problem):
        raise LPError("certificate failed self-verification")
    return cert
