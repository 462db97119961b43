"""A row-form Fraction LP solver that nsboxes.lp is tested against.

solve() decides A x = b, x >= 0 on an LPProblem's rows and returns the
certificate nsboxes.lp.lp_feasible must return: the same presolve (rows with
zero right-hand side whose live coefficients share one sign, each killing
its live columns in the row's entry order), the same Farkas lift, and
phase1(), a dense Fraction phase 1.  phase1() keeps the whole m x m basis
inverse and the basic values as Fractions of the unscaled system and
updates them with textbook pivots.  It shares nothing with the library's
integer phase 1 but the contract: Bland's rule over the same integer labels
(column id, or num_vars + pos for the artificial of row pos), and the same
(point, farkas) dicts out.  Nothing here reads the problem's column
families.
"""

from collections import deque
from fractions import Fraction

from nsboxes.lp import LPCertificate, LPError

ZERO = Fraction(0)
ONE = Fraction(1)


def column_index(problem):
    """column -> list of its (row, coefficient) pairs with nonzero
    coefficient, rows ascending."""
    index = {}
    for r, (entries, _) in enumerate(problem.rows):
        for col, coeff in entries:
            if coeff:
                index.setdefault(col, []).append((r, coeff))
    return index


def lift_farkas(problem, columns, steps, farkas):
    """Extend a witness of the reduced system to the full system.

    steps holds (row, sign, live_entries) in elimination order; each restored
    row gets the multiplier -sign * M with M large enough that every column
    the step removed keeps a nonpositive aggregate.  Restored multipliers
    pair with zero right-hand sides, so y^T b is untouched.
    """
    for row, sign, live in reversed(steps):
        m = max(
            (sum((farkas[r] * c for r, c in columns[col] if r in farkas), ZERO) / abs(coeff)
             for col, coeff in live),
            default=ZERO,
        )
        if m > 0:
            farkas[row] = -sign * m
    return farkas


def presolve(problem):
    """Fix to zero every column touched by a same-sign zero-rhs row.

    Returns (col_alive, active_rows, steps, early, requeued): early is the
    lifted infeasibility certificate when a row with no live columns has a
    nonzero right-hand side (col_alive and active_rows are then None), and
    requeued tells whether that row was found only when queued again after
    the first pass over the rows.
    """
    columns = column_index(problem)
    m = len(problem.rows)
    col_alive = [True] * problem.num_vars
    row_alive = [True] * m
    live_count = [sum(1 for _, coeff in entries if coeff) for entries, _ in problem.rows]
    steps = []
    queue = deque(range(m))
    queued = [True] * m
    pops = 0
    while queue:
        i = queue.popleft()
        pops += 1
        queued[i] = False
        if not row_alive[i]:
            continue
        entries, rhs = problem.rows[i]
        if live_count[i] == 0:
            if rhs != 0:
                farkas = {i: ONE if rhs > 0 else -ONE}
                return None, None, steps, lift_farkas(problem, columns, steps, farkas), pops > m
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
            for r, _ in columns[col]:
                if row_alive[r]:
                    live_count[r] -= 1
                    if not queued[r]:
                        queue.append(r)
                        queued[r] = True
    active_rows = [i for i in range(m) if row_alive[i]]
    return col_alive, active_rows, steps, None, False


def phase1(problem, col_alive, active_rows):
    n = problem.num_vars
    m = len(active_rows)
    # Row signs flip so the right-hand side is nonnegative.
    sign = [-ONE if problem.rows[i][1] < 0 else ONE for i in active_rows]
    xb = [s * problem.rows[i][1] for s, i in zip(sign, active_rows)]
    cols: dict[int, list] = {}
    for pos, i in enumerate(active_rows):
        for col, coeff in problem.rows[i][0]:
            if coeff and col_alive[col]:
                cols.setdefault(col, []).append((pos, sign[pos] * coeff))
    col_ids = sorted(cols)
    binv = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    basis = [n + pos for pos in range(m)]

    while True:
        art_rows = [i for i in range(m) if basis[i] >= n]
        if not any(xb[i] for i in art_rows):
            return {basis[i]: xb[i] for i in range(m) if basis[i] < n and xb[i]}, None
        # Duals of the phase-1 objective (artificial cost 1, structural 0).
        y = [sum((binv[i][j] for i in art_rows if binv[i][j]), ZERO) for j in range(m)]
        entering = next(
            (col for col in col_ids if sum(y[pos] * coeff for pos, coeff in cols[col] if y[pos]) > 0),
            None,
        )
        if entering is None:
            return None, {i: s * yv for i, s, yv in zip(active_rows, sign, y) if yv}
        d = [sum((coeff * row[pos] for pos, coeff in cols[entering] if row[pos]), ZERO) for row in binv]
        leave = min(((xb[i] / d[i], basis[i], i) for i in range(m) if d[i] > 0), default=None)
        if leave is None:
            raise LPError("phase-1 objective unbounded; inconsistent state")
        theta, _, r = leave
        piv = d[r]
        if piv != 1:
            binv[r] = [v / piv for v in binv[r]]
        lrow = binv[r]
        for i in range(m):
            if i != r and d[i]:
                binv[i] = [iv - d[i] * lv if lv else iv for iv, lv in zip(binv[i], lrow)]
                xb[i] -= d[i] * theta
        xb[r] = theta
        basis[r] = entering


def solve(problem):
    """(certificate, outcome), outcome one of "arrival" and "re-queue" (the
    presolve found an empty row on its first pass or after a re-queue),
    "phase-1 farkas" and "feasible"."""
    col_alive, active_rows, steps, early, requeued = presolve(problem)
    if early is not None:
        cert = LPCertificate(False, None, tuple(sorted(early.items())))
        return cert, "re-queue" if requeued else "arrival"
    point, farkas = phase1(problem, col_alive, active_rows)
    if farkas is not None:
        farkas = lift_farkas(problem, column_index(problem), steps, farkas)
        return LPCertificate(False, None, tuple(sorted(farkas.items()))), "phase-1 farkas"
    return LPCertificate(True, tuple(sorted(point.items())), None), "feasible"
