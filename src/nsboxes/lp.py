"""Exact rational linear feasibility with verifiable certificates.

Problems are systems  A x = b, x >= 0  with sparse int columns and a
right-hand side stated by its integer view.  lp_feasible answers with
either a feasible point or a Farkas witness y satisfying  y^T A <= 0
componentwise and y^T b > 0; both certificate kinds re-verify by direct
substitution into the original system.

A problem is a FamilyProblem.  Its columns come in families: a family is
a base column id and left and right strategies, each a sparse list of
(row, coefficient) pairs, rows ascending; column base + i * len(rights) +
j has the entries lefts[i] + rights[j], and every left row precedes every
right row (Family raises LPError otherwise).  verify checks a certificate
on any families; the solver and FamilyProblem.rows take a plain problem
only, one family at base 0 with a left per column and one empty right,
and raise LPError on a product family such as tobl_problem's.  Every LP
the package solves is plain: the local LP and is_tobl's marginal form.

The presolve takes one ascending pass over the rows.  It removes each row
with zero right-hand side whose live coefficients share one sign, forcing
every column it touches to zero, and leaves a zero row of mixed signs to
phase 1; every row of the local and one-way LPs has one sign.  It keeps
one mask of the live columns and reads each row's columns and positive
coefficients off two masks (ColumnFamilies.masks); a step records the
mask of the columns it kills.  A row with a nonzero right-hand side and
no live column is detected; of the rows a later step empties, the one
detected is found from the recorded steps.  A phase-1 revised simplex
with Bland's rule solves what remains: the lowest live column with a
positive reduced cost enters.

A problem states b by its integer view (beta, B), B = beta * b in lowest
terms, and everything from the presolve to the check works on it.  The
simplex keeps the basis inverse as integers times its determinant, updated
fraction-free.  It stores only the columns at basic structural variables,
sparsely, and a pivot rewrites only the entries it changes; each column's
sum over the artificial rows, which gives the duals, is updated with it.
Farkas witnesses found on the reduced system are lifted back through the
presolve steps, so certificates always refer to the caller's row and
column indices.  verify checks a certificate scaled once to integers, and
a witness per family: the largest left sum plus the largest right sum of
the witness must be nonpositive, so a product family is never expanded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .boxes import InexactValueError, _integer_scaled, _Value, _require


class LPError(Exception):
    """Inconsistent solver state or malformed problem structure."""


def _pairs(seq, what: str):
    """seq if it is a tuple or list of pairs, else LPError naming what."""
    if not isinstance(seq, (tuple, list)) or not all(
            isinstance(p, (tuple, list)) and len(p) == 2 for p in seq):
        raise LPError(f"{what} must be a tuple of pairs")
    return seq


class Family(_Value):
    """Columns base + i * len(rights) + j with the entries lefts[i] +
    rights[j], base an int (a bool is not one).  lefts and rights are
    tuples of strategies, each a tuple of (row, coefficient) pairs, rows
    strictly ascending ints, coefficients nonzero; every left row precedes
    every right row.  A breach raises LPError, and a coefficient that is
    not an int (a Fraction or a bool included) raises InexactValueError:
    a rational system is stated with its rows scaled to integers."""

    base: int
    lefts: tuple
    rights: tuple

    def __post_init__(self):
        if type(self.base) is not int:
            raise LPError(f"family base {self.base!r} is not an int")
        for side in (self.lefts, self.rights):
            if not isinstance(side, (tuple, list)):
                raise LPError("a family's lefts and rights must be tuples of strategies")
        for strategy in chain(self.lefts, self.rights):
            prev = -1
            for row, coeff in _pairs(strategy, "a strategy"):
                if type(row) is not int:
                    raise LPError(f"row {row!r} is not an int")
                if row <= prev:
                    raise LPError(f"rows of a strategy must ascend, got {row} after {prev}")
                prev = row
                if type(coeff) is not int:
                    raise InexactValueError(f"coefficient {coeff!r} in row {row} is not an int")
                if not coeff:
                    raise LPError(f"zero coefficient in row {row}")
        last_left = max((s[-1][0] for s in self.lefts if s), default=-1)
        if any(s and s[0][0] <= last_left for s in self.rights):
            raise LPError("every left row of a family must precede its right rows")


class ColumnFamilies(_Value):
    """The columns of a problem with num_rows rows: a tuple of Family,
    ascending by base, not overlapping, inside 0..num_vars-1, both counts
    nonnegative ints (a bool is not one), else LPError.  A column no family
    holds has no entries."""

    num_vars: int
    num_rows: int
    families: tuple

    def __post_init__(self):
        for what, count in (("num_vars", self.num_vars), ("num_rows", self.num_rows)):
            if type(count) is not int or count < 0:
                raise LPError(f"{what} {count!r} is not a nonnegative int")
        if not isinstance(self.families, (tuple, list)) or not all(type(f) is Family for f in self.families):
            raise LPError("families must be a tuple of Family")
        end = 0
        for fam in self.families:
            if fam.base < end:
                raise LPError(f"family at column {fam.base} overlaps the one before it")
            end = fam.base + len(fam.lefts) * len(fam.rights)
            for strategy in chain(fam.lefts, fam.rights):
                if strategy and strategy[-1][0] >= self.num_rows:  # Family keeps rows ascending from 0
                    raise LPError(f"row out of range in the family at column {fam.base}")
        if end > self.num_vars:
            raise LPError(f"column {end - 1} out of range")

    @cached_property
    def index(self) -> tuple:
        """by_row[r]: the (strategy, coefficient) pairs of the strategies
        that touch row r, ascending.  Strategies are numbered family by
        family, lefts then rights, so in a plain problem strategy c is
        column c."""
        by_row: list[list] = [[] for _ in range(self.num_rows)]
        strategies = chain.from_iterable(chain(fam.lefts, fam.rights) for fam in self.families)
        for t, strategy in enumerate(strategies):
            pairs = {}  # one tuple per coefficient, not per entry: the columns are cached
            for row, coeff in strategy:
                by_row[row].append(pairs.get(coeff) or pairs.setdefault(coeff, (t, coeff)))
        return tuple(map(tuple, by_row))

    @cached_property
    def masks(self) -> tuple:
        """Per row, (mask, positive): bit t set for each strategy t that
        index lists, and in positive where its coefficient is > 0."""
        masks = []
        for entries in self.index:
            mask = positive = 0
            for t, coeff in entries:
                mask |= 1 << t
                if coeff > 0:
                    positive |= 1 << t
            masks.append((mask, positive))
        return tuple(masks)

    def row_sums(self, point) -> tuple | None:
        """A x at a sparse point of (column, value) pairs; None when a value
        is negative or a column lies outside 0..num_vars-1."""
        sums = [0] * self.num_rows
        for col, v in point:
            if v < 0 or not 0 <= col < self.num_vars:
                return None
            for fam in self.families:
                if 0 <= col - fam.base < len(fam.lefts) * len(fam.rights):
                    i, j = divmod(col - fam.base, len(fam.rights))
                    for row, coeff in fam.lefts[i] + fam.rights[j]:
                        sums[row] += coeff * v
                    break
        return tuple(sums)

    def strategy_sums(self, y: dict) -> list:
        """u[t]: strategy t's sum of y[row] * coefficient over its rows,
        strategies numbered as in index."""
        u = [0] * sum(len(fam.lefts) + len(fam.rights) for fam in self.families)
        for row, v in y.items():
            self.add_row(u, row, v)
        return u

    def add_row(self, u: list, row: int, v) -> None:
        """Add v times row's coefficients to the strategy sums u."""
        for t, coeff in self.index[row]:
            u[t] += v * coeff


def _plain(columns: ColumnFamilies) -> ColumnFamilies:
    """columns when they are plain: one family at base 0 with a left
    strategy per column and one empty right, so strategy c is column c.
    Any other form, a product family's among them, raises LPError."""
    fams = columns.families
    if not (len(fams) == 1 and fams[0].base == 0 and fams[0].rights == ((),)
            and len(fams[0].lefts) == columns.num_vars):
        raise LPError("the solver takes plain columns: one family at base 0, a left per column, one empty right")
    return columns


class FamilyProblem(_Value):
    """A x = b, x >= 0 with the columns given as families and b by its
    integer view scaled = (beta, B), B = beta * b in lowest terms, as
    integer_scaled gives it.  A beta or B entry that is not an int (a bool
    is not one) raises InexactValueError; columns that are not a
    ColumnFamilies, a view that is not a pair with B a tuple, beta < 1, not
    one B entry per row or gcd(beta, *B) != 1 raises LPError, so equal
    right-hand sides give equal problems."""

    columns: ColumnFamilies
    scaled: tuple

    def __post_init__(self):
        _require(self.columns, "FamilyProblem", ColumnFamilies, LPError)
        if not (type(self.scaled) is tuple and len(self.scaled) == 2 and type(self.scaled[1]) is tuple):
            raise LPError("the right-hand side must be a pair (beta, B), B a tuple")
        beta, b = self.scaled
        for v in (beta, *b):
            if type(v) is not int:
                raise InexactValueError(f"right-hand side value {v!r} is not an int")
        if len(b) != self.columns.num_rows:
            raise LPError(f"{len(b)} right-hand sides for {self.columns.num_rows} rows")
        if beta < 1 or gcd(beta, *b) != 1:
            raise LPError(f"right-hand side scale {beta} is not positive, or (beta, B) not in lowest terms")

    @property
    def num_vars(self) -> int:
        return self.columns.num_vars

    @cached_property
    def rhs(self) -> tuple:
        """b as Fractions, B[i] / beta."""
        beta, b = self.scaled
        return tuple(Fraction(v, beta) for v in b)

    @cached_property
    def rows(self) -> tuple:
        """The rows (entries, rhs) of a plain problem: nonzero (column,
        coefficient) pairs, columns ascending, as its index holds them.  A
        product family is not expanded: its problem raises LPError."""
        return tuple(zip(_plain(self.columns).index, self.rhs))


class LPCertificate(_Value):
    """Either a feasible point (sparse, by column) or a Farkas witness
    (sparse, by row), each a tuple of (key, value) pairs.  feasible is a
    bool, the other kind's vector None, and each column or row an int (a
    bool is not) listed once, else LPError; values must be int or Fraction
    (InexactValueError otherwise).  verify() re-checks exactly against a
    problem."""

    feasible: bool
    point: tuple | None
    farkas: tuple | None

    def __post_init__(self):
        if type(self.feasible) is not bool:
            raise LPError(f"certificate verdict {self.feasible!r} is not a bool")
        if (self.farkas if self.feasible else self.point) is not None:
            raise LPError("a certificate carries its own kind of vector only, and None for the other")
        for kind, pairs in (("column", self.point), ("row", self.farkas)):
            seen = set()
            for key, v in () if pairs is None else _pairs(pairs, f"certificate {kind}s"):
                if type(key) is not int:
                    raise LPError(f"certificate {kind} {key!r} is not an int")
                if key in seen:
                    raise LPError(f"certificate {kind} {key} listed twice")
                seen.add(key)
                if not (type(v) is int or isinstance(v, Fraction)):
                    raise InexactValueError(f"certificate value {v!r} at {key} is not an int or a Fraction")

    def verify(self, problem: FamilyProblem) -> bool:
        """Check exactly, on values scaled once to integers (which keeps
        every sign) and on the right-hand side's integer view B = beta * b.
        A point X = rho * x must be nonnegative with beta * (A X) = rho * B
        row by row; a witness w needs w^T B > 0 and, per family, a
        nonpositive largest column aggregate."""
        beta, b = _require(problem, "verify", FamilyProblem, LPError).scaled
        if self.feasible:
            rho, x = _integer_scaled(dict(self.point or ()))
            sums = problem.columns.row_sums(x.items())
            return sums is not None and all(beta * s == rho * v for s, v in zip(sums, b))
        y = dict(self.farkas or ())
        if any(not 0 <= r < len(b) for r in y):
            return False
        _, w = _integer_scaled(y)
        if sum(v * b[r] for r, v in w.items()) <= 0:
            return False
        # Every column aggregate is nonpositive iff, per family, the largest
        # left sum plus the largest right sum is.
        u = problem.columns.strategy_sums(w)
        end = 0
        for fam in problem.columns.families:
            start, cut, end = end, end + len(fam.lefts), end + len(fam.lefts) + len(fam.rights)
            if start < cut < end and max(u[start:cut]) + max(u[cut:end]) > 0:
                return False
        return True

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


def _bit_ids(mask: int):
    """The positions of mask's set bits, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# live: the int with bit c set while column c of the plain problem is
# live.  steps: (row, sign, hit) in elimination order, hit the mask of the
# columns the step killed.  detected: a row left with no live column and a
# nonzero right-hand side, or None; active_rows: the rows left, when none is.
_Presolve = namedtuple("_Presolve", "live active_rows steps detected")


def _presolve(problem) -> _Presolve:
    """Fix to zero every column touched by a same-sign zero-rhs row of a
    plain problem, in one ascending pass over the rows: a zero row's live
    coefficients are positive where its positive mask covers its live mask,
    negative where it misses it, and mixed otherwise.  A mixed zero row is
    left to phase 1, and a row with a nonzero right-hand side is only tested
    for a live column: none is the detection.

    A row kept for phase 1 that a later step empties is found after the
    pass.  A mixed zero row is then dropped.  Of the rows with a nonzero
    right-hand side, the one detected is the least by (the first later
    step that touches it, the lowest column that step kills in it, the
    row): the first that a queue would take back, were each step to queue
    the rows it touches, in the order its columns reach them."""
    masks, (_, rhs) = _plain(problem.columns).masks, problem.scaled
    live = (1 << problem.num_vars) - 1
    steps: list = []
    kept = []
    for i, (mask, positive) in enumerate(masks):
        hit = mask & live
        if not hit:
            if rhs[i]:
                return _Presolve(live, None, steps, i)
        elif rhs[i] or hit & positive not in (0, hit):
            kept.append(i)
        else:
            steps.append((i, 1 if hit & positive else -1, hit))
            live ^= hit
    if dead := [r for r in kept if rhs[r] and not masks[r][0] & live]:
        slots = (next((k, touch & -touch, r) for k, (row, _, hit) in enumerate(steps)
                      if row > r and (touch := hit & masks[r][0])) for r in dead)
        return _Presolve(live, None, steps, min(slots)[-1])
    return _Presolve(live, [r for r in kept if masks[r][0] & live], steps, None)


def _lift_farkas(problem, pre: _Presolve, farkas: dict) -> dict:
    """Extend a witness of the reduced system to the full system.

    Each restored step row gets the multiplier -sign * M with M large enough
    that every column the step removed keeps a nonpositive aggregate: the
    largest aggregate of such a column over its coefficient in the row.
    Restored multipliers pair with zero right-hand sides, so y^T b is
    untouched.  The aggregates are summed once from the rows the witness
    holds, on the witness scaled once to integers, and each restored row
    adds its own; an aggregate over a coefficient of 1 or -1 is compared as
    the integer it is.
    """
    columns = _plain(problem.columns)
    scale, w = _integer_scaled(farkas)
    u = columns.strategy_sums(w)
    for row, sign, hit in reversed(pre.steps):
        top = 0
        for c, coeff in columns.index[row]:
            if hit >> c & 1:
                agg = u[c] if coeff == 1 or coeff == -1 else Fraction(u[c]) / abs(coeff)
                if agg > top:
                    top = agg
        if top > 0:
            w[row] = -sign * top
            farkas[row] = Fraction(-sign * top, scale)
            columns.add_row(u, row, w[row])
    return farkas


def _phase1(problem, pre: _Presolve):
    """Phase-1 revised simplex on the reduced system, in integers.

    Returns (point, None) on feasibility or (None, farkas) where both use the
    original row and column ids.  A basic variable is labelled by its column
    id, or by num_vars + row for the artificial of a row, so int order is
    Bland's order, structurals first.  Bland's rule (lowest-index entering
    column, lowest-label leaving variable) guarantees termination;
    artificials never re-enter, which just restricts later iterations to a
    smaller problem with the same feasibility answer.

    The updates are fraction-free (Bareiss, Math. Comp. 22, 1968).  Rows are
    signed, S = diag(+-1), so the right-hand side is nonnegative; it starts
    as its integer view beta * b (problem.scaled), so the point found is
    beta times the caller's.  With det the determinant of the basis,
    det * x_B and det * B^-1 S are integers; B^-1 S takes a column as the
    caller states it.  Column i of det * B^-1 S stays sign_i * det * e_i
    while row i holds its artificial, so only the columns at rows holding a
    structural are stored, each a sparse {row: value} map without zeros,
    and x_B is stored as one more.  A pivot on row r with entry piv maps
    each stored entry v_i to (piv * v_i - d_i * v_r) // det, an exact
    division, keeps v_r, and makes piv the new det, d being the entering
    column in det * B^-1 S, summed from the columns at its own entries.  It
    changes only entries where d is nonzero, and none in a column with
    v_r = 0, unless piv != det rescales all of them, so the update runs over
    those alone: every value it stores, hence the entering column, the
    leaving row and the certificate, is that of a dense update.  y[j] is
    column j's sum over the artificial rows: det times the dual at a stored
    column, sign_j * det at a unit one and det times the phase-1 objective
    at x_B.  A pivot updates it in O(1) per column from d's sum over the
    rows left artificial.
    """
    n = problem.num_vars
    beta, b = problem.scaled
    active = pre.active_rows
    xb = {i: abs(b[i]) for i in active if b[i]}
    inv = {len(b): xb}  # x_B, then the columns at rows of basic structurals
    y = [-1 if v < 0 else 1 for v in b] + [sum(xb.values())]
    basis = {}  # row -> the column id of the structural it holds
    # The live columns as (id, entries), ascending; they meet active rows only.
    cols = _plain(problem.columns).families[0].lefts
    live = [(c, cols[c]) for c in _bit_ids(pre.live)]
    det = 1
    while y[-1]:
        for label, entries in live:
            if sum([y[i] * c for i, c in entries]) > 0:
                break
        else:
            return None, {i: Fraction(y[i], det) for i in active if y[i]}
        d = {}
        for i, coeff in entries:
            column = inv.get(i)
            if column is None:  # sign_i * det * e_i, sign_i * det being y[i]
                d[i] = d.get(i, 0) + coeff * y[i]
            else:
                for k, v in column.items():
                    d[k] = d.get(k, 0) + coeff * v
        d = {i: di for i, di in d.items() if di}
        # Leaving row: least ratio xb[i] / d[i] over d[i] > 0, then least label.
        r = -1
        for i, di in d.items():
            if di > 0 and (r < 0 or (here := xb.get(i, 0) * d[r]) < (best := xb.get(r, 0) * di)
                           or here == best and basis.get(i, n + i) < basis.get(r, n + r)):
                r = i
        if r < 0:
            raise LPError("phase-1 objective unbounded; inconsistent state")
        piv = d[r]
        leaves = r not in basis  # an artificial leaves
        basis[r] = label
        rest = sum([di for i, di in d.items() if i not in basis])  # d over the rows left artificial
        if leaves:
            inv[r] = {r: y[r]}
        for j, column in inv.items():
            vr = column.get(r, 0)
            if vr or piv != det:
                for i, di in (d if piv == det else dict.fromkeys(column, 0) | d).items():
                    if v := (piv * column.get(i, 0) - di * vr) // det:
                        column[i] = v
                    else:
                        column.pop(i, None)
                if vr:
                    column[r] = vr
                y[j] = (piv * (y[j] - leaves * vr) - vr * rest) // det
        if piv != det:
            for i in active:
                if i not in basis:
                    y[i] = y[i] * piv // det
        det = piv
    return {basis[i]: Fraction(v, det * beta) for i, v in xb.items() if i in basis}, None


def lp_feasible(problem: FamilyProblem) -> LPCertificate:
    """Decide A x = b, x >= 0 and return a verifiable certificate."""
    _require(problem, "lp_feasible", FamilyProblem, LPError)
    pre = _presolve(problem)
    if pre.detected is None:
        point, farkas = _phase1(problem, pre)
    else:
        point, farkas = None, {pre.detected: Fraction(1 if problem.scaled[1][pre.detected] > 0 else -1)}
    if farkas is None:
        cert = LPCertificate(True, tuple(sorted(point.items())), None)
    else:
        cert = LPCertificate(False, None, tuple(sorted(_lift_farkas(problem, pre, farkas).items())))
    if not cert.verify(problem):
        raise LPError("certificate failed self-verification")
    return cert
