"""Exact rational linear feasibility with verifiable certificates.

Problems are systems  A x = b, x >= 0  with sparse columns and int or
Fraction data.  lp_feasible answers with either a feasible point or a Farkas
witness y satisfying  y^T A <= 0 componentwise and y^T b > 0; both
certificate kinds re-verify by direct substitution into the original system.

Columns come in product families.  A family is a base column id and left
and right strategies, each a sparse list of (row, coefficient) pairs, rows
ascending; column base + i * len(rights) + j has the entries lefts[i] +
rights[j].  Every left row of a family precedes its right rows (Family
raises LPError otherwise), so a row meets a family on one side only.  A
problem is a FamilyProblem, which expands its rows only when they are read;
LPProblem builds one from rows, as one family whose left strategies are the
columns and whose one right strategy is empty.

The solver works on strategies, never on expanded columns.  The presolve
removes rows with zero right-hand side whose live coefficients share one
sign, forcing every column they touch to zero: in each family the row
meets, it kills the live strategies on the row's side, so a family's live
columns are always its live lefts times its live rights.  A step kills its
columns in ascending column id, and the waiting rows (alive, not queued)
those columns touch are queued again in that order.  Per family, the order
comes from the waiting rows alone: a row touched by the first left comes
first, then a row by its lowest touching right, then by its lowest other
left, ties by row.  A phase-1 revised simplex with Bland's rule solves
what remains.  A column's reduced cost is u_L(i) + u_R(j), u being the
duals summed over a strategy's rows, so Bland's lowest improving column is
the first family, then the first left i with u_L(i) + max over live j of
u_R(j) > 0, then the first such j.  The Farkas lift and the check of a
witness take the same per-family maxima.

A problem states b by its integer view (beta, B), B = beta * b in lowest
terms, and everything from the presolve to the check works on it.  The
presolve reads a row's signs from the index's sign masks and its
right-hand side from B.  It only tests a row with a nonzero right-hand
side for a live column, stopping at the first.  The simplex
scales the live coefficients apart from it (see _phase1) and keeps the
basis inverse as integers times its determinant, updated fraction-free,
with only the columns of basic structural variables stored.  Farkas
witnesses found on the reduced system are lifted back through the presolve
steps, so certificates always refer to the caller's row and column
indices.  verify checks a certificate scaled once to integers.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .boxes import InexactValueError, _Value, _require, integer_scaled


class LPError(Exception):
    """Inconsistent solver state or malformed problem structure."""


def _is_exact(value) -> bool:
    """True for an int or a Fraction, False for a bool and anything else."""
    return type(value) is int or isinstance(value, Fraction)


def _pairs(seq, what: str):
    """seq if it is a tuple or list of pairs, else LPError naming what."""
    if not isinstance(seq, (tuple, list)) or not all(
            isinstance(p, (tuple, list)) and len(p) == 2 for p in seq):
        raise LPError(f"{what} must be a tuple of pairs")
    return seq


class Family(_Value):
    """Columns base + i * len(rights) + j with the entries lefts[i] +
    rights[j].  Each strategy is a tuple of (row, coefficient) pairs, rows
    strictly ascending ints (a bool is not one), coefficients nonzero;
    every left row precedes every right row.  A breach raises LPError, and
    a coefficient that is not an int or a Fraction raises InexactValueError."""

    base: int
    lefts: tuple
    rights: tuple

    def __post_init__(self):
        for strategy in chain(self.lefts, self.rights):
            prev = -1
            for row, coeff in strategy:
                if type(row) is not int:
                    raise LPError(f"row {row!r} is not an int")
                if row <= prev:
                    raise LPError(f"rows of a strategy must ascend, got {row} after {prev}")
                prev = row
                if not _is_exact(coeff):
                    raise InexactValueError(f"coefficient {coeff!r} in row {row} is not an int or a Fraction")
                if not coeff:
                    raise LPError(f"zero coefficient in row {row}")
        last_left = max((s[-1][0] for s in self.lefts if s), default=-1)
        if any(s and s[0][0] <= last_left for s in self.rights):
            raise LPError("every left row of a family must precede its right rows")


class ColumnFamilies(_Value):
    """The columns of a problem with num_rows rows: families ascending by
    base, not overlapping, inside 0..num_vars-1.  A column no family holds
    has no entries."""

    num_vars: int
    num_rows: int
    families: tuple

    def __post_init__(self):
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
        """by_row[r] holds (family, side, ((strategy, coefficient), ...),
        mask, positive) for each family side whose strategies touch row r,
        families ascending, side 0 left and 1 right, with bit t of mask set
        for each strategy t listed, and of positive where its coefficient > 0."""
        by_row: list[list] = [[] for _ in range(self.num_rows)]
        for f, fam in enumerate(self.families):
            for side, strategies in enumerate((fam.lefts, fam.rights)):
                touching: dict[int, list] = {}
                for t, strategy in enumerate(strategies):
                    pairs = {}  # one shared (t, coefficient) tuple per coefficient
                    for row, coeff in strategy:
                        pair = pairs.get(coeff) or pairs.setdefault(coeff, (t, coeff))
                        entry = touching.setdefault(row, [[], 0, 0])
                        entry[0].append(pair)
                        entry[1] |= 1 << t
                        entry[2] |= (coeff > 0) << t
                for row, (entries, mask, positive) in touching.items():
                    by_row[row].append((f, side, tuple(entries), mask, positive))
        return tuple(map(tuple, by_row))

    @cached_property
    def meets(self) -> tuple:
        """Per family, (rows, sides): the mask with bit r set for each row r
        the family touches, and sides[r] = (side, mask) for such a row, side
        and mask as in index (a row meets a family on one side only)."""
        rows = [0] * len(self.families)
        sides: list[dict] = [{} for _ in self.families]
        for r, entries in enumerate(self.index):
            for f, side, _, mask, _ in entries:
                rows[f] |= 1 << r
                sides[f][r] = side, mask
        return tuple(zip(rows, sides))

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
        """u[f] = (left sums, right sums): each strategy's sum of y[row] *
        coefficient over its rows."""
        u = [([0] * len(fam.lefts), [0] * len(fam.rights)) for fam in self.families]
        for row, v in y.items():
            self.add_row(u, row, v)
        return u

    def add_row(self, u: list, row: int, v) -> None:
        """Add v times row's coefficients to the strategy sums u."""
        for f, side, entries, *_ in self.index[row]:
            sums = u[f][side]
            for t, coeff in entries:
                sums[t] += v * coeff


class FamilyProblem(_Value):
    """A x = b, x >= 0 with the columns given as families and b by its
    integer view scaled = (beta, B), B = beta * b in lowest terms, as
    integer_scaled gives it.  A beta or B entry that is not an int (a bool
    is not one) raises InexactValueError; a view that is not a pair with B
    a tuple, beta < 1, not one B entry per row or gcd(beta, *B) != 1 raises
    LPError, so equal right-hand sides give equal problems."""

    columns: ColumnFamilies
    scaled: tuple

    def __post_init__(self):
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
        """The expanded rows as LPProblem takes them, nonzero entries, columns ascending."""
        entries: list[list] = [[] for _ in self.rhs]
        for fam in self.columns.families:
            col = fam.base
            for left in fam.lefts:
                for right in fam.rights:
                    pairs: dict = {}  # one shared (col, coeff) tuple per coefficient
                    for row, coeff in left + right:
                        entries[row].append(pairs.get(coeff) or pairs.setdefault(coeff, (col, coeff)))
                    col += 1
        return tuple(zip(map(tuple, entries), self.rhs))


def LPProblem(num_vars: int, rows) -> FamilyProblem:
    """A x = b, x >= 0 given by rows, as the FamilyProblem of one family
    whose left strategies are the columns and whose one right is empty.
    rows is a tuple of (entries, rhs) with entries a tuple of (column,
    coefficient) pairs; zero coefficients are allowed and dropped.  A
    num_vars that is not an int (a bool is not), rows or entries that are
    not a tuple of pairs, or a column that is not an int, lies outside
    0..num_vars-1 or is listed twice in one row raises LPError.
    Coefficients and right-hand sides must be int or Fraction; anything
    else (a float, a bool, a str, a Decimal) raises InexactValueError.
    The problem states the right-hand sides by integer_scaled of them."""
    if type(num_vars) is not int:
        raise LPError(f"number of columns {num_vars!r} is not an int")
    columns: list[list] = [[] for _ in range(num_vars)]
    for row, (entries, rhs) in enumerate(_pairs(rows, "rows")):
        if not _is_exact(rhs):
            raise InexactValueError(f"right-hand side {rhs!r} is not an int or a Fraction")
        seen = set()
        for col, coeff in _pairs(entries, f"entries of row {row}"):
            if type(col) is not int:
                raise LPError(f"column {col!r} is not an int")
            if not 0 <= col < num_vars:
                raise LPError(f"column {col} out of range")
            if col in seen:
                raise LPError(f"column {col} listed twice in one row")
            seen.add(col)
            if not _is_exact(coeff):
                raise InexactValueError(f"coefficient {coeff!r} in column {col} is not an int or a Fraction")
            if coeff:
                columns[col].append((row, coeff))
    family = Family(0, tuple(map(tuple, columns)), ((),))
    return FamilyProblem(ColumnFamilies(num_vars, len(rows), (family,)), integer_scaled(v for _, v in rows))


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
                if not _is_exact(v):
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
        return all(max(left) + max(right) <= 0 for left, right in u if left and right)

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


def _integer_scaled(values: dict) -> tuple[int, dict]:
    """(scale, {key: value * scale}), boxes.integer_scaled on a dict's
    values: ints of the same signs."""
    scale, ints = integer_scaled(values.values())
    return scale, dict(zip(values, ints))


def _bit_ids(mask: int):
    """The positions of mask's set bits, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# live[f][side]: the int with bit t set while strategy t of family f is
# live.  steps: (row, sign, parts) in elimination order, parts the (family,
# side, ((strategy, coefficient), ...), hit, other) the row met live: its
# index entries there, the mask hit of the strategies the step killed, and
# the mask other of the live strategies on the other side then.  detected:
# a row left with no live column and a nonzero right-hand side, or None;
# active_rows: the rows left, when none is.
_Presolve = namedtuple("_Presolve", "live active_rows steps detected")


def _presolve(problem) -> _Presolve:
    """Fix to zero every column touched by a same-sign zero-rhs row: its
    live coefficients are positive where each part's positive mask covers
    its hit mask, negative where no part's positive mask meets it; the pass
    that collects the parts reads the sign and gives up at a mixed one.  A
    row with a nonzero right-hand side is only tested for a live column:
    the first one found keeps it, and none found is the detection.  A
    step's waiting rows are found among those the family meets
    (ColumnFamilies.meets)."""
    columns, (_, rhs) = problem.columns, problem.scaled
    by_row = columns.index
    m = len(rhs)
    live = [[(1 << len(fam.lefts)) - 1, (1 << len(fam.rights)) - 1] for fam in columns.families]
    waiting = 0  # bit r: row r is alive and not queued
    steps: list = []
    queue = deque(range(m))
    while queue:
        i = queue.popleft()
        waiting |= 1 << i
        if rhs[i]:
            for f, side, _, mask, _ in by_row[i]:
                if mask & live[f][side] and live[f][1 - side]:
                    break
            else:
                return _Presolve(live, None, steps, i)
            continue
        parts = []
        signs = 0  # bit 1: a live coefficient is positive, bit 0: one is negative
        for f, side, entries, mask, positive in by_row[i]:
            if (hit := mask & live[f][side]) and (other := live[f][1 - side]):
                positive &= hit
                signs |= (positive != 0) << 1 | (positive != hit)
                if signs == 3:
                    break
                parts.append((f, side, entries, hit, other))
        if signs == 3:
            continue
        waiting ^= 1 << i
        if not parts:
            continue
        steps.append((i, 1 if signs == 2 else -1, tuple(parts)))
        for f, side, _, hit, _ in parts:
            live[f][side] ^= hit
            # The columns (a, b) die in ascending id, a over the lefts and b
            # over the rights, so a waiting row first appears with the first
            # left, else with its lowest right, else with its lowest left.
            sides = (hit, live[f][1]) if side == 0 else (live[f][0], hit)
            first = sides[0] & -sides[0]
            keyed = []
            rows, meets = columns.meets[f]
            rest = waiting & rows
            while rest:
                low = rest & -rest
                rest ^= low
                row = low.bit_length() - 1
                s, mask = meets[row]
                if touch := mask & sides[s]:
                    keyed.append((s or (0 if touch & first else 2), touch & -touch, row))
                    waiting ^= low
            keyed.sort()
            queue.extend([row for *_, row in keyed])
    return _Presolve(live, [i for i in range(m) if waiting >> i & 1], steps, None)


def _lift_farkas(problem, pre: _Presolve, farkas: dict) -> dict:
    """Extend a witness of the reduced system to the full system.

    Each restored step row gets the multiplier -sign * M with M large enough
    that every column the step removed keeps a nonpositive aggregate: per
    family, the strategy sum of a removed strategy plus the largest sum on
    the other side, among the strategies live at that step, over the
    strategy's coefficient in the row.  Restored multipliers pair with zero
    right-hand sides, so y^T b is untouched.  The sums run on the witness
    scaled once to integers; the largest sum on the other side is read off
    the bits of that side's live mask, and an aggregate over a coefficient
    of 1 or -1 is compared as the integer it is.
    """
    columns = problem.columns
    scale, w = _integer_scaled(farkas)
    u = columns.strategy_sums(w)
    for row, sign, parts in reversed(pre.steps):
        top = 0
        for f, side, entries, hit, other_live in parts:
            sums = u[f][1 - side]
            other = max(sums if other_live + 1 == 1 << len(sums) else map(sums.__getitem__, _bit_ids(other_live)))
            mine = u[f][side]
            for t, coeff in entries:
                if hit >> t & 1:
                    agg = mine[t] + other
                    if coeff != 1 and coeff != -1:
                        agg = Fraction(agg) / abs(coeff)
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
    id, or by num_vars + pos for the artificial of row pos, so int order is
    Bland's order, structurals first.  Bland's rule (lowest-index entering
    column, lowest-label leaving variable) guarantees termination;
    artificials never re-enter, which just restricts later iterations to a
    smaller problem with the same feasibility answer.

    The updates are fraction-free (Bareiss, Math. Comp. 22, 1968).  Rows are
    signed so the right-hand side is nonnegative; it starts as its integer
    view beta * b (problem.scaled), and the live coefficients are scaled by
    the lcm alpha of their denominators only when one is not an int.  The
    artificial columns stay the identity, so the duals c_B^T B^-1 do not
    change, each reduced cost is multiplied by alpha > 0 and every ratio
    x_B[i] / d[i] by beta / alpha: the pivots, ties and witness are kept,
    and the point found, beta / alpha times the caller's, is returned
    times alpha / beta.  A scale per row would change the duals and the
    ratios.  With det the determinant of the basis, det * x_B and det *
    B^-1 are integers.  A pivot on row r with entry piv maps every other row v_i to
    (piv * v_i - d_i * v_r) // det, an exact division, keeps row r, and
    makes piv the new det.  Column j of B^-1 stays e_j while position j
    holds its artificial, so only the columns of positions holding a
    structural are stored, and a pivot costs O(m k) for k basic structurals.
    """
    n = problem.num_vars
    active = pre.active_rows
    m = len(active)
    pos = {row: p for p, row in enumerate(active)}
    beta, b = problem.scaled
    sign = [-1 if b[i] < 0 else 1 for i in active]
    xb = [s * b[i] for s, i in zip(sign, active)]
    # Families with live columns: (base, len(rights), lefts, rights), each
    # side its live strategies as (id, [(position, signed coefficient)]).
    fams = []
    for fam, live in zip(problem.columns.families, pre.live):
        sides = [[(t, [(pos[r], sign[pos[r]] * c) for r, c in strategies[t] if r in pos])
                  for t in _bit_ids(side_live)]
                 for strategies, side_live in zip((fam.lefts, fam.rights), live)]
        if all(sides):
            fams.append((fam.base, len(fam.rights), *sides))
    coeffs = [c for *_, lefts, rights in fams for _, e in lefts + rights for _, c in e]
    alpha = 1
    if any(type(c) is not int for c in coeffs):
        alpha, ints = integer_scaled(coeffs)
        scaled = iter(ints)
        fams = [(base, width, *([(t, [(p, next(scaled)) for p, _ in e]) for t, e in side] for side in sides))
                for base, width, *sides in fams]
    det = 1
    inv: dict[int, list] = {}  # position -> its column of det * B^-1, structural positions only
    basis = [n + p for p in range(m)]

    while True:
        art_rows = [i for i in range(m) if basis[i] >= n]
        if not any(xb[i] for i in art_rows):
            return {basis[i]: Fraction(xb[i] * alpha, det * beta)
                    for i in range(m) if basis[i] < n and xb[i]}, None
        # det * duals of the phase-1 objective (artificial cost 1, structural 0).
        y = [det] * m
        for j, column in inv.items():
            y[j] = sum(column[i] for i in art_rows)
        entering = None
        for base, width, lefts, rights in fams:
            ur = [sum(y[p] * c for p, c in e) for _, e in rights]
            top = max(ur)
            for t, e in lefts:
                ul = sum(y[p] * c for p, c in e)
                if ul + top > 0:
                    b = next(b for b, v in enumerate(ur) if ul + v > 0)
                    entering = base + t * width + rights[b][0], e + rights[b][1]
                    break
            if entering is not None:
                break
        if entering is None:
            return None, {i: Fraction(s * yv, det) for i, s, yv in zip(active, sign, y) if yv}
        label, entries = entering
        d = [0] * m
        for p, coeff in entries:
            column = inv.get(p)
            if column is None:
                d[p] += det * coeff
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
        basis[r] = label


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
