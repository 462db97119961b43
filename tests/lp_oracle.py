"""A row-form Fraction LP solver that nsboxes.lp is tested against, and
row_problem, the tests' way to state an LP by its rows.

row_problem(num_vars, rows) builds the FamilyProblem of one family whose
left strategies are the columns and whose one right strategy is empty, so
a hand-written or random system goes through the library's solver.  A
rational system is stated with every row times one common positive
integer, which keeps its points, its witnesses and the solver's pivots;
any value that is not an int or a Fraction is passed on as it is, for
Family, ColumnFamilies and FamilyProblem to reject.  Given the columns of
an earlier row_problem on the same entries, it states only the new
right-hand sides.  expanded(problem) is the row_problem of a problem's
column families, each column lefts[i] + rights[j] under its own id: the
plain problem that lp_feasible takes in place of a product family.

solve() decides A x = b, x >= 0 on a problem's rows and returns the
certificate nsboxes.lp.lp_feasible must return: the same presolve (rows with
zero right-hand side whose live coefficients share one sign when the first
pass reaches them, each killing its live columns in the row's entry order;
a queue then takes back the rows a step touched, to find those it emptied),
the same Farkas lift, and phase1(), a dense Fraction phase 1.  phase1()
keeps the whole m x m basis inverse, the basic values and the duals as
Fractions of the unscaled system and updates them with textbook pivots.
It shares nothing with the library's integer phase 1 but the contract:
Bland's rule over the same integer labels (column id, or num_vars + pos
for the artificial of row pos), and the same (point, farkas) dicts out.
Nothing here but expanded reads a problem's column families.
"""

from collections import deque
from fractions import Fraction
from math import lcm

from nsboxes.boxes import integer_scaled
from nsboxes.lp import ColumnFamilies, Family, FamilyProblem, LPCertificate, LPError

ZERO = Fraction(0)
ONE = Fraction(1)


def row_problem(num_vars, rows, columns=None):
    """A x = b, x >= 0 given by rows of (entries, rhs), entries a tuple of
    (column, coefficient) pairs, as one family: column j is left strategy
    j, its nonzero coefficients in row order.  Zero coefficients are
    dropped.  Every coefficient and right-hand side is multiplied by the
    lcm of the Fraction coefficients' denominators, which makes those
    coefficients ints, and the right-hand sides are stated by
    integer_scaled.  columns, if given, is the .columns of a row_problem
    on rows with the same entries, and is used as it is."""
    scale = lcm(*(c.denominator for entries, _ in rows for _, c in entries if type(c) is Fraction))
    rhs = integer_scaled(v * scale for _, v in rows)
    if columns is not None:
        return FamilyProblem(columns, rhs)
    columns = [[] for _ in range(num_vars)]
    for row, (entries, _) in enumerate(rows):
        for col, coeff in entries:
            if coeff:
                if type(coeff) is Fraction:
                    coeff = coeff.numerator * (scale // coeff.denominator)
                elif type(coeff) is int:
                    coeff *= scale
                columns[col].append((row, coeff))
    family = Family(0, tuple(map(tuple, columns)), ((),))
    return FamilyProblem(ColumnFamilies(num_vars, len(rows), (family,)), rhs)


def expanded(problem, keep=None):
    """row_problem of problem's column families: column base + i *
    len(rights) + j of a family holds lefts[i] + rights[j], over the
    columns in keep only when given."""
    entries = [[] for _ in problem.rhs]
    for fam in problem.columns.families:
        for i, left in enumerate(fam.lefts):
            for j, right in enumerate(fam.rights):
                col = fam.base + i * len(fam.rights) + j
                if keep is None or col in keep:
                    for row, coeff in left + right:
                        entries[row].append((col, coeff))
    return row_problem(problem.num_vars, tuple(zip(map(tuple, entries), problem.rhs)))


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
    pair with zero right-hand sides, so y^T b is untouched.  Each step sums
    the aggregates on the witness times the lcm of its denominators, in
    integers.
    """
    for row, sign, live in reversed(steps):
        scale = lcm(*(v.denominator for v in farkas.values()))
        ints = {r: v.numerator * (scale // v.denominator) for r, v in farkas.items()}
        m = max(
            (Fraction(sum(ints[r] * c for r, c in columns[col] if r in ints), abs(coeff))
             for col, coeff in live),
            default=ZERO,
        )
        if m > 0:
            farkas[row] = -sign * m / scale
    return farkas


def presolve(problem, columns=None):
    """Fix to zero every column touched by a zero-rhs row that is
    same-sign when the first pass over the rows reaches it.  Each step
    queues the alive rows its columns touch again; a queued row is only
    tested for a live column.  columns is column_index(problem), built
    here unless given.

    Returns (col_alive, active_rows, steps, early, requeued): early is the
    lifted infeasibility certificate when a row with no live columns has a
    nonzero right-hand side (col_alive and active_rows are then None), and
    requeued tells whether that row was found only when queued again after
    the first pass over the rows.
    """
    columns = columns or column_index(problem)
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
        if rhs != 0 or pops > m:
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
    sign = [-1 if problem.rows[i][1] < 0 else 1 for i in active_rows]
    xb = [s * problem.rows[i][1] for s, i in zip(sign, active_rows)]
    cols: dict[int, list] = {}
    for pos, i in enumerate(active_rows):
        for col, coeff in problem.rows[i][0]:
            if coeff and col_alive[col]:
                cols.setdefault(col, []).append((pos, sign[pos] * coeff))
    col_ids = sorted(cols)
    binv = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    basis = [n + pos for pos in range(m)]
    # Duals of the phase-1 objective (artificial cost 1, structural 0).
    y = [ONE] * m

    while True:
        if not any(xb[i] for i in range(m) if basis[i] >= n):
            return {basis[i]: xb[i] for i in range(m) if basis[i] < n and xb[i]}, None
        for entering in col_ids:
            if (reduced := sum(y[pos] * coeff for pos, coeff in cols[entering] if y[pos])) > 0:
                break
        else:
            return None, {i: s * yv for i, s, yv in zip(active_rows, sign, y) if yv}
        d = [sum((coeff * row[pos] for pos, coeff in cols[entering] if row[pos]), ZERO) for row in binv]
        leave = min(((xb[i] / d[i], basis[i], i) for i in range(m) if d[i] > 0), default=None)
        if leave is None:
            raise LPError("phase-1 objective unbounded; inconsistent state")
        theta, _, r = leave
        piv = d[r]
        # The entering column's cost is 0: y - (y . a_e / piv) B^-1[r], with
        # the pivot row before the update.
        step = reduced / piv
        y = [yv - step * lv if lv else yv for yv, lv in zip(y, binv[r])]
        if piv != 1:
            binv[r] = [v / piv for v in binv[r]]
        lrow = binv[r]
        for i in range(m):
            if i != r and d[i]:
                binv[i] = [iv - d[i] * lv if lv else iv for iv, lv in zip(binv[i], lrow)]
                xb[i] -= d[i] * theta
        xb[r] = theta
        basis[r] = entering


def solve(problem, columns=None):
    """(certificate, outcome), outcome one of "arrival" and "re-queue" (the
    presolve found an empty row on its first pass or after a re-queue),
    "phase-1 farkas" and "feasible".  columns, if given, is
    column_index(problem); problems on the same entries share it."""
    columns = columns or column_index(problem)
    col_alive, active_rows, steps, early, requeued = presolve(problem, columns)
    if early is not None:
        cert = LPCertificate(False, None, tuple(sorted(early.items())))
        return cert, "re-queue" if requeued else "arrival"
    point, farkas = phase1(problem, col_alive, active_rows)
    if farkas is not None:
        farkas = lift_farkas(problem, columns, steps, farkas)
        return LPCertificate(False, None, tuple(sorted(farkas.items()))), "phase-1 farkas"
    return LPCertificate(True, tuple(sorted(point.items())), None), "feasible"
