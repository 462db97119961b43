"""Exact rational linear feasibility with verifiable certificates.

Problems are systems  A x = b, x >= 0  with sparse int columns and a
right-hand side stated by its integer view.  lp_feasible answers with
either a feasible point or a Farkas witness y satisfying  y^T A <= 0
componentwise and y^T b > 0; both certificate kinds re-verify by direct
substitution into the original system.

Columns come in product families.  A family is a base column id and left
and right strategies, each a sparse list of (row, coefficient) pairs, rows
ascending; column base + i * len(rights) + j has the entries lefts[i] +
rights[j].  Every left row of a family precedes its right rows (Family
raises LPError otherwise), so a row meets a family on one side only.  A
problem is a FamilyProblem, which expands its rows only when they are read.

The solver works on strategies, never on expanded columns.  The presolve
removes rows with zero right-hand side whose live coefficients share one
sign, forcing every column they touch to zero: in each family the row
meets, it kills the live strategies on the row's side, so a family's live
columns are always its live lefts times its live rights.  Rows are taken
in ascending order, and a step kills its columns in ascending column id.
On a mixed-sign problem the waiting rows (alive, not queued) those columns
touch are queued again in that order.  Per family, the order comes from
the waiting rows alone: a row touched by the first left comes first, then
a row by its lowest touching right, then by its lowest other left, ties
by row.  When every row's coefficients share one sign
(ColumnFamilies.same_sign, true of the local and one-way LPs), each zero
row is a step or empty when first reached, so one ascending pass makes
every step and is all that runs; of the rows a later step empties, the
one detected is the one the queue would have taken back first, found from
the recorded steps.  A phase-1 revised simplex with Bland's rule solves
what remains.  A column's reduced cost is u_L(i) + u_R(j), u being the
duals summed over a strategy's rows, so Bland's lowest improving column is
the first family, then the first left i with u_L(i) + max over live j of
u_R(j) > 0, then the first such j.  The Farkas lift and the check of a
witness take the same per-family maxima.

A problem states b by its integer view (beta, B), B = beta * b in lowest
terms, and everything from the presolve to the check works on it.  The
presolve reads a row's signs from the index's sign masks and its
right-hand side from B.  It only tests a row with a nonzero right-hand
side for a live column, stopping at the first.  The simplex keeps the
basis inverse as integers times its determinant, updated fraction-free.
It stores only the columns at basic structural variables, sparsely, and
a pivot rewrites only the entries it changes; each column's sum over the
artificial rows, which gives the duals, is updated with it.  Farkas
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

    @cached_property
    def same_sign(self) -> bool:
        """Whether the coefficients of each row share one sign, read off
        the index's sign masks."""
        return all(all(positive == mask for *_, mask, positive in entries)
                   or not any(positive for *_, positive in entries) for entries in self.index)

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
        """The expanded rows (entries, rhs): nonzero (column, coefficient) pairs, columns ascending."""
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
    the first one found keeps it, and none found is the detection.

    When ColumnFamilies.same_sign holds, each zero row is a step, or has
    no live column, when first reached, so the first ascending pass makes
    every step and is all that runs: no row is queued again.  Rows with a
    nonzero right-hand side that a later step empties are found after the
    pass, and the one detected is the one the queue would have taken back
    first (_requeue_slot).  Otherwise, on a mixed-sign problem, a step
    queues the waiting rows its columns touch again, found among those the
    family meets (ColumnFamilies.meets), in _requeue_key order."""
    columns, (_, rhs) = problem.columns, problem.scaled
    by_row = columns.index
    one_pass = columns.same_sign
    m = len(rhs)
    live = [[(1 << len(fam.lefts)) - 1, (1 << len(fam.rights)) - 1] for fam in columns.families]
    waiting = 0  # bit r: row r is alive and not queued
    steps: list = []
    queue = deque(range(m))
    while queue:
        i = queue.popleft()
        if rhs[i]:
            if not _meets_live(by_row[i], live):
                return _Presolve(live, None, steps, i)
            waiting |= 1 << i
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
            waiting |= 1 << i
            continue
        if not parts:
            continue
        steps.append((i, 1 if signs == 2 else -1, tuple(parts)))
        for f, side, _, hit, other in parts:
            live[f][side] ^= hit
            if one_pass:
                continue
            sides = (hit, other) if side == 0 else (other, hit)
            keyed = []
            rows, meets = columns.meets[f]
            rest = waiting & rows
            while rest:
                low = rest & -rest
                rest ^= low
                row = low.bit_length() - 1
                if key := _requeue_key(meets[row], sides, row):
                    keyed.append(key)
                    waiting ^= low
            keyed.sort()
            queue.extend([row for *_, row in keyed])
    if not one_pass:
        return _Presolve(live, [i for i in range(m) if waiting >> i & 1], steps, None)
    active = [i for i, v in enumerate(rhs) if v]
    # Only a step after a row's test can have emptied it.
    if steps and (dead := [i for i in active if i < steps[-1][0] and not _meets_live(by_row[i], live)]):
        return _Presolve(live, None, steps, min(_requeue_slot(columns.meets, steps, r) for r in dead)[-1])
    return _Presolve(live, active, steps, None)


def _meets_live(entries, live) -> bool:
    """Whether a row with these index entries has a live column."""
    for f, side, _, mask, _ in entries:
        if mask & live[f][side] and live[f][1 - side]:
            return True
    return False


def _requeue_key(meet, sides, row):
    """The queue order of a waiting row that meets a family as meet =
    (side, mask) when the columns sides[0] times sides[1] of the family
    die, or None when they miss it.  The columns (a, b) die in ascending
    id, a over the lefts and b over the rights, so the row first appears
    with the first left, else with its lowest right, else with its lowest
    left, ties by row."""
    s, mask = meet
    if touch := mask & sides[s]:
        return s or (0 if touch & sides[0] & -sides[0] else 2), touch & -touch, row


def _requeue_slot(meets, steps, r):
    """(step, part, *key) of the first part of a step after row r whose
    dying columns touch r: where the queue would have put r again."""
    for k, (row, _, parts) in enumerate(steps):
        if row > r:
            for p, (f, side, _, hit, other) in enumerate(parts):
                meet = meets[f][1].get(r)
                if meet and (key := _requeue_key(meet, (hit, other) if side == 0 else (other, hit), r)):
                    return k, p, *key


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
    # Families with live columns: (base, len(rights), lefts, rights), each
    # side its live strategies as (id, strategy); they meet active rows only.
    fams = [(fam.base, len(fam.rights), [(t, fam.lefts[t]) for t in _bit_ids(left)],
             [(t, fam.rights[t]) for t in _bit_ids(right)])
            for fam, (left, right) in zip(problem.columns.families, pre.live) if left and right]
    det = 1
    while y[-1]:
        entering = None
        for base, width, lefts, rights in fams:
            ur = [sum([y[i] * c for i, c in e]) for _, e in rights]
            top = max(ur)
            for t, e in lefts:
                ul = sum([y[i] * c for i, c in e])
                if ul + top > 0:
                    k = next(k for k, v in enumerate(ur) if ul + v > 0)
                    entering = base + t * width + rights[k][0], e + rights[k][1]
                    break
            if entering is not None:
                break
        if entering is None:
            return None, {i: Fraction(y[i], det) for i in active if y[i]}
        label, entries = entering
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
