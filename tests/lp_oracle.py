"""The dense Fraction phase 1 that nsboxes.lp._phase1 is tested against.

phase1() keeps the whole m x m basis inverse and the basic values as
Fractions of the unscaled system and updates them with textbook pivots.  It
shares nothing with the library's integer phase 1 but the contract: the
same arguments, Bland's rule over the same integer labels (column id, or
num_vars + pos for the artificial of row pos), and the same (point, farkas)
dicts out.
"""

from fractions import Fraction

from nsboxes.lp import LPError

ZERO = Fraction(0)
ONE = Fraction(1)


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
