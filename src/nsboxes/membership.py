"""Membership tests against the local set and the one-way-signalling set.

Both tests are exact LP feasibility problems over deterministic strategy
weights, solved by lp_feasible.  is_local decomposes a box over products of
local response functions.  is_tobl asks, for a fixed bipartition, for one
weight vector over triples (solo strategy, pair strategy with pair[0]
signalling pair[1], pair strategy with pair[1] signalling pair[0]) whose two
directional readings both reproduce the box; feasibility means every wiring
of that bipartition yields a local effective box.  tobl_problem states that
LP on the 16384 triples, as products of route strategies in four column
families, and its certificates index them.  lp_feasible takes plain
columns only, so no one solves tobl_problem: is_tobl solves the same LP on
the 512 marginals of those weights and lifts the answer to it.

Strategy truth tables follow the package convention: bit j is the value at
packed argument index j, first argument most significant.  One-way pair
strategies are (sender output = f(sender input), receiver output = g(pair
inputs)) with g indexed by 2 * pair[0] input + pair[1] input regardless of
direction.  The lambda index of a strategy triple is

    solo_tt * 4096 + (f1 * 16 + g1) * 64 + (f2 * 16 + g2)

where route 1 has pair[0] sending and route 2 has pair[1] sending.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .boxes import BITS, Box3, ParseError, _require, _require3, pack, require_valid
from .lp import ColumnFamilies, Family, FamilyProblem, LPCertificate, LPError, lp_feasible
from .wiring import Bipartition


def _bit(tt: int, i: int) -> int:
    return (tt >> i) & 1


def _problem(columns: ColumnFamilies, box, copies: int, ones: int = 1) -> FamilyProblem:
    """The problem on columns whose right-hand side is copies of the table
    and then ones 1s, stated by the box's integer view: (scale, ints *
    copies + (scale,) * ones) is what integer_scaled gives on it, since
    repeating the table and adding 1s leave the lcm of the denominators as
    it is."""
    scale, ints = box.scaled
    return FamilyProblem(columns, (scale, ints * copies + (scale,) * ones))


@cache
def _local_columns(n: int) -> ColumnFamilies:
    """local_problem's columns for n parties: one family whose lefts are the
    4**n deterministic vertices, each hitting its 2**n table rows and the
    normalization row, and whose one right is empty.  Vertex index is the
    big-endian stack of the per-party response truth tables."""
    size = 4**n
    vertices = []
    for col in range(size):
        tts = [(col >> (2 * (n - 1 - p))) & 3 for p in range(n)]
        rows = (pack(tuple(_bit(tts[p], ins[p]) for p in range(n)), ins) for ins in product(BITS, repeat=n))
        vertices.append(tuple((row, 1) for row in rows) + ((size, 1),))
    return ColumnFamilies(size, size + 1, (Family(0, tuple(vertices), ((),)),))


def local_problem(box) -> FamilyProblem:
    """LP whose feasibility is locality: deterministic vertex weights matching
    every table entry plus normalization.  The columns are one family, built
    once per party count (_local_columns); only the right-hand side, the
    table and then 1, comes from the box."""
    return _problem(_local_columns(_require(box, "local_problem").n_parties), box, 1)


def is_local(box) -> LPCertificate:
    """Exact locality test; the certificate carries vertex weights or a
    Farkas witness over table rows (row ids are flat table indices, the last
    row is normalization)."""
    require_valid(box)
    return lp_feasible(local_problem(box))


@cache
def _tobl_columns(bp: Bipartition) -> ColumnFamilies:
    """tobl_problem's columns: one family per solo truth table at base
    4096 * solo_tt, its lefts the 64 route-1 strategies f * 16 + g and its
    rights the 64 route-2 ones.  Route 1: pair[0] sends, so pair[0] out =
    f(pair[0] in) and pair[1] out = g(inputs).  Route 2: pair[1] sends.
    Rows ascend as built: the inputs are a flat index's high bits."""
    s = bp.solo
    p0, p1 = bp.pair
    unit = [(row, 1) for row in range(129)]  # shared by every strategy

    def strategies(route, solo_tt):
        sender, receiver = (p0, p1) if route == 1 else (p1, p0)
        for f in range(4):
            for g in range(16):
                rows = []
                for ins in product(BITS, repeat=3):
                    outs = [0, 0, 0]
                    outs[s] = _bit(solo_tt, ins[s])
                    outs[sender] = _bit(f, ins[sender])
                    outs[receiver] = _bit(g, 2 * ins[p0] + ins[p1])
                    rows.append(64 * (route - 1) + pack(tuple(outs), ins))
                yield tuple(unit[row] for row in rows) + ((unit[128],) if route == 2 else ())

    families = tuple(
        Family(4096 * solo_tt, tuple(strategies(1, solo_tt)), tuple(strategies(2, solo_tt)))
        for solo_tt in range(4)
    )
    return ColumnFamilies(16384, 129, families)


def tobl_problem(box: Box3, bp: Bipartition) -> FamilyProblem:
    """129-row, 16384-column LP: rows 0..63 are route-1 table equations (flat
    index), 64..127 route-2, 128 normalization.  The column at a strategy
    triple's lambda index (module docstring) hits the 8 rows of each of its
    two route strategies and row 128, each with coefficient 1.  The columns
    are four families, built once per bipartition (_tobl_columns), and are
    never expanded: verify checks certificates on them, and lp_feasible and
    rows raise LPError.  A bp that is not a Bipartition raises ParseError."""
    _require(bp, "tobl_problem", Bipartition, ParseError)
    return _problem(_tobl_columns(bp), _require3(box, "tobl_problem"), 2)


@cache
def _marginal_columns(bp: Bipartition) -> ColumnFamilies:
    """is_tobl's 512 plain columns over 133 rows, all coefficients 1: for
    solo truth table s, a_{s,i} at 128 * s + i is route-1 strategy i of
    _tobl_columns(bp)'s family s plus row 129 + s, and c_{s,j} at 128 * s +
    64 + j its route-2 strategy j plus each row 129 + s', s' != s."""
    unit = [(row, 1) for row in range(133)]
    cols = []
    for s, fam in enumerate(_tobl_columns(bp).families):
        others = tuple(unit[129 + t] for t in range(4) if t != s)
        cols += [left + (unit[129 + s],) for left in fam.lefts]
        cols += [right + others for right in fam.rights]
    return ColumnFamilies(512, 133, (Family(0, tuple(cols), ((),)),))


def _marginal_problem(box: Box3, bp: Bipartition) -> FamilyProblem:
    """The LP on _marginal_columns(bp): the table twice, then five 1s."""
    return _problem(_marginal_columns(bp), box, 2, 5)


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
