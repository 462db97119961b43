"""Membership tests against the local set and the one-way-signalling set.

Both tests are exact LP feasibility problems over deterministic strategy
weights, solved by lp_feasible.  is_local decomposes a box over products of
local response functions.  is_tobl asks, for a fixed bipartition, for one
weight vector over triples (solo strategy, pair strategy with pair[0]
signalling pair[1], pair strategy with pair[1] signalling pair[0]) whose two
directional readings both reproduce the box; feasibility means every wiring
of that bipartition yields a local effective box.  Its columns are the
products of route strategies, given to the solver as column families.

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
from .lp import ColumnFamilies, Family, FamilyProblem, LPCertificate, lp_feasible
from .wiring import Bipartition


def _bit(tt: int, i: int) -> int:
    return (tt >> i) & 1


def _problem(columns: ColumnFamilies, box, copies: int) -> FamilyProblem:
    """The problem on columns whose right-hand side is copies of the table
    and then 1, stated by the box's integer view: (scale, ints * copies +
    (scale,)) is what integer_scaled gives on it, since repeating the table
    and adding 1 leave the lcm of the denominators as it is."""
    scale, ints = box.scaled
    return FamilyProblem(columns, (scale, ints * copies + (scale,)))


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
    are four families, built once per bipartition (_tobl_columns); the rows
    are expanded only when read.  A bp that is not a Bipartition raises
    ParseError."""
    _require(bp, "tobl_problem", Bipartition, ParseError)
    return _problem(_tobl_columns(bp), _require3(box, "tobl_problem"), 2)


def is_tobl(box: Box3, bp: Bipartition) -> LPCertificate:
    """Feasibility of a shared one-way-signalling model for both directions
    of the bipartition: lp_feasible(tobl_problem(box, bp)), which works on
    the 2 x 256 route strategies and never expands the 16384 columns."""
    require_valid(_require3(box, "is_tobl"))
    return lp_feasible(tobl_problem(box, bp))
