"""Membership tests against the local set and the one-way-signalling set.

Both tests are exact LP feasibility problems over deterministic strategy
weights, solved by lp_feasible.  is_local decomposes a box over products of
local response functions.  is_tobl asks, for a fixed bipartition, for one
weight vector over triples (solo strategy, pair strategy with pair[0]
signalling pair[1], pair strategy with pair[1] signalling pair[0]) whose two
directional readings both reproduce the box; feasibility means every wiring
of that bipartition yields a local effective box.  One set of 133-row
columns, the 512 route strategies of a bipartition, states both one-way
LPs.  tobl_problem states the LP on the 16384 triples, as a OneWayProblem
on the first 129 rows: a triple's column is the sum of its two route
strategies, and the certificates index the triples.  It is checked, never
solved: is_tobl solves the same LP on the 512 marginals of those weights,
all 133 rows, and lifts the answer to it.

Strategy truth tables follow the package convention: bit j is the value at
packed argument index j, first argument most significant.  One-way pair
strategies are (sender output = f(sender input), receiver output = g(pair
inputs)) with g indexed by 2 * pair[0] input + pair[1] input regardless of
direction.  The lambda index of a strategy triple is

    solo_tt * 4096 + (f0 * 16 + g0) * 64 + (f1 * 16 + g1)

where route 0 has pair[0] sending and route 1 has pair[1] sending.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .boxes import BITS, Box3, ParseError, _require, _require3, _Value, pack, require_valid
from .lp import Columns, LPCertificate, LPError, SparseProblem, _System, lp_feasible
from .wiring import Bipartition


def _bit(tt: int, i: int) -> int:
    return (tt >> i) & 1


def _view(box, copies: int, ones: int = 1) -> tuple:
    """The integer view of a right-hand side that is copies of the table
    and then ones 1s: (scale, ints * copies + (scale,) * ones) is what
    integer_scaled gives on it, since repeating the table and adding 1s
    leave the lcm of the denominators as it is."""
    scale, ints = box.scaled
    return scale, ints * copies + (scale,) * ones


@cache
def _local_columns(n: int) -> Columns:
    """local_problem's columns for n parties: the 4**n deterministic
    vertices, each hitting its 2**n table rows and the normalization row.
    Vertex index is the big-endian stack of the per-party response truth
    tables."""
    size = 4**n
    vertices = []
    for col in range(size):
        tts = [(col >> (2 * (n - 1 - p))) & 3 for p in range(n)]
        rows = (pack(tuple(_bit(tts[p], ins[p]) for p in range(n)), ins) for ins in product(BITS, repeat=n))
        vertices.append(tuple((row, 1) for row in rows) + ((size, 1),))
    return Columns(size + 1, tuple(vertices))


def local_problem(box) -> SparseProblem:
    """LP whose feasibility is locality: deterministic vertex weights matching
    every table entry plus normalization.  The columns are built once per
    party count (_local_columns); only the right-hand side, the table and
    then 1, comes from the box."""
    return SparseProblem(_local_columns(_require(box, "local_problem").n_parties), _view(box, 1))


def is_local(box) -> LPCertificate:
    """Exact locality test; the certificate carries vertex weights or a
    Farkas witness over table rows (row ids are flat table indices, the last
    row is normalization)."""
    require_valid(box)
    return lp_feasible(local_problem(box))


@cache
def _marginal_columns(bp: Bipartition) -> Columns:
    """The 512 one-way route strategies of bp, over 133 rows with all
    coefficients 1: is_tobl's columns, and tobl_problem's on its first 129
    rows.  For solo truth table s, route-0 strategy i = f * 16 + g is
    column a_{s,i} at 128 * s + i and also hits row 129 + s; route-1
    strategy j is column c_{s,j} at 128 * s + 64 + j, offset by 64 rows,
    and also hits row 128 and each row 129 + s', s' != s.  Route 0: pair[0]
    sends, so pair[0] out = f(pair[0] in) and pair[1] out = g(inputs).
    Route 1: pair[1] sends.  Rows ascend as built: the inputs are a flat
    index's high bits."""
    s = bp.solo
    p0, p1 = bp.pair
    unit = [(row, 1) for row in range(133)]  # shared by every column
    cols = []
    for solo_tt, route in product(range(4), (0, 1)):
        sender, receiver = bp.actors(route)
        extra = (129 + solo_tt,) if route == 0 else (128, *(129 + t for t in range(4) if t != solo_tt))
        for f, g in product(range(4), range(16)):
            rows = []
            for ins in product(BITS, repeat=3):
                outs = [0, 0, 0]
                outs[s] = _bit(solo_tt, ins[s])
                outs[sender] = _bit(f, ins[sender])
                outs[receiver] = _bit(g, 2 * ins[p0] + ins[p1])
                rows.append(64 * route + pack(tuple(outs), ins))
            cols.append(tuple(unit[row] for row in (*rows, *extra)))
    return Columns(133, tuple(cols))


class OneWayProblem(_Value, _System):
    """tobl_problem's LP, 129 rows by 16384 columns, with b by its integer
    view scaled (lp._System).  The column at lambda index 4096 * s + 64 *
    i + j is the sum of _marginal_columns(bipartition)'s columns 128 * s +
    i and 128 * s + 64 + j on their first 129 rows, and is never built: a
    point's row sums add the two, and a witness, on rows 0..128 only, gives
    some column a positive aggregate iff, for some solo truth table s, its
    largest route-0 sum plus its largest route-1 sum is positive.
    lp_feasible does not take it.  A bipartition that is not a Bipartition
    raises ParseError."""

    bipartition: Bipartition
    scaled: tuple

    def __post_init__(self):
        _require(self.bipartition, "OneWayProblem", Bipartition, ParseError)
        self._check_view(129)

    def row_sums(self, point) -> tuple | None:
        # lambda = 4096 s + 64 i + j is in 0..16383 iff 128 s + i and 128 s +
        # 64 + j are in 0..511, which the columns' row_sums checks.
        split = [(128 * (col >> 12) + k, v) for col, v in point for k in (col >> 6 & 63, 64 + (col & 63))]
        sums = _marginal_columns(self.bipartition).row_sums(split)
        return sums and sums[:129]  # rows 129..132 are is_tobl's own

    def positive_aggregate(self, w: dict) -> bool:
        u = _marginal_columns(self.bipartition).column_sums(w)
        return any(max(u[k:k + 64]) + max(u[k + 64:k + 128]) > 0 for k in range(0, 512, 128))


def tobl_problem(box: Box3, bp: Bipartition) -> OneWayProblem:
    """The one-way LP of box on bp: rows 0..63 are route-0 table equations
    (flat index), 64..127 route-1, 128 normalization, and the column at a
    strategy triple's lambda index (module docstring) hits the 8 rows of
    each of its two route strategies and row 128, each with coefficient 1.
    A bp that is not a Bipartition raises ParseError."""
    return OneWayProblem(bp, _view(_require3(box, "tobl_problem"), 2))


def _marginal_problem(box: Box3, bp: Bipartition) -> SparseProblem:
    """The LP on _marginal_columns(bp): the table twice, then five 1s."""
    return SparseProblem(_marginal_columns(bp), _view(box, 2, 5))


def _coupling(a: list, c: list) -> list:
    """Northwest-corner coupling of sparse positive (index, value) lists of
    equal sums, indices ascending: cells (i, j, w), ascending, whose sums
    over j give a and over i give c, at most len(a) + len(c) - 1 of them."""
    cells = []
    a, c = iter(a), iter(c)
    (i, u), (j, v) = next(a, (0, 0)), next(c, (0, 0))
    while u and v:
        w = min(u, v)
        cells.append((i, j, w))
        u, v = u - w, v - w
        if not u:
            i, u = next(a, (0, 0))
        if not v:
            j, v = next(c, (0, 0))
    return cells


def is_tobl(box: Box3, bp: Bipartition) -> LPCertificate:
    """Feasibility of a shared one-way-signalling model for both directions
    of the bipartition, with a certificate of tobl_problem(box, bp), solved
    on _marginal_problem.  The weights w of solo strategy s meet
    tobl_problem's rows only through a_{s,i} = sum_j w and c_{s,j} = sum_i
    w, whose sums rows 128 (sum c = 1) and 129 + s (sum a_s + sum c of the
    other s = 1) make equal; any such a and c come from some w (the
    transportation-polytope argument for the one-way model of Gallego,
    Wurflinger, Acin and Navascues, PRL 109, 070401 (2012)).  A point lifts
    by _coupling onto lambda indices, a witness (y, z), z on rows 129-132,
    as y with sum z added to row 128; the lift is returned once it
    verifies on tobl_problem.  A bp that is not a Bipartition raises
    ParseError before any column is built."""
    require_valid(_require3(box, "is_tobl"))
    _require(bp, "is_tobl", Bipartition, ParseError)
    cert = lp_feasible(_marginal_problem(box, bp))
    if cert.feasible:
        marginals = [([], []) for _ in range(4)]  # per solo strategy, a and c
        for col, v in cert.point:
            s, k = divmod(col, 128)
            marginals[s][k >= 64].append((k % 64, v))
        point = tuple((4096 * s + 64 * i + j, w)
                      for s, (a, c) in enumerate(marginals) for i, j, w in _coupling(a, c))
        lifted = LPCertificate(True, point, None)
    else:
        y = dict(cert.farkas)
        y[128] = y.get(128, 0) + sum(y.pop(r, 0) for r in range(129, 133))
        lifted = LPCertificate(False, None, tuple((r, v) for r, v in sorted(y.items()) if v))
    if not lifted.verify(tobl_problem(box, bp)):
        raise LPError("lifted one-way certificate failed verification")
    return lifted
