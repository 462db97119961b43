"""Membership tests against the local set and the one-way-signalling set.

Both tests are exact LP feasibility problems over deterministic strategy
weights.  is_local decomposes a box over products of local response
functions.  is_tobl asks, for a fixed bipartition, for a single weight
vector over triples (solo strategy, pair strategy with pair[0] signalling
pair[1], pair strategy with pair[1] signalling pair[0]) whose two directional
readings both reproduce the box; feasibility means every wiring of that
bipartition yields a local effective box.

Strategy truth tables follow the package convention: bit j is the value at
packed argument index j, first argument most significant.  One-way pair
strategies are (sender output = f(sender input), receiver output = g(pair
inputs)) with g indexed by 2 * pair[0] input + pair[1] input regardless of
direction.  The lambda index of a strategy triple is

    solo_tt * 4096 + (f1 * 16 + g1) * 64 + (f2 * 16 + g2)

where route 1 has pair[0] sending and route 2 has pair[1] sending.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product

from .boxes import BITS, ONE, ZERO, Box3, _require3, pack, require_valid
from .lp import LPCertificate, LPError, LPProblem, _integer_scaled, lp_feasible
from .wiring import Bipartition


def _bit(tt: int, i: int) -> int:
    return (tt >> i) & 1


def local_problem(box) -> LPProblem:
    """LP whose feasibility is locality: deterministic vertex weights matching
    every table entry plus normalization.  Vertex index is the big-endian
    stack of the per-party response truth tables."""
    n = box.n_parties
    size = len(box.table)
    rows_entries: list[list] = [[] for _ in range(size + 1)]
    num_cols = 4**n
    for col in range(num_cols):
        tts = [(col >> (2 * (n - 1 - p))) & 3 for p in range(n)]
        for ins in product(BITS, repeat=n):
            outs = tuple(_bit(tts[p], ins[p]) for p in range(n))
            rows_entries[pack(outs, ins)].append((col, 1))
        rows_entries[size].append((col, 1))
    return LPProblem(num_cols, tuple(zip(map(tuple, rows_entries), box.table + (ONE,))))


def is_local(box) -> LPCertificate:
    """Exact locality test; the certificate carries vertex weights or a
    Farkas witness over table rows (row ids are flat table indices, the last
    row is normalization)."""
    require_valid(box)
    return lp_feasible(local_problem(box))


@cache
def _route_rows(bp: Bipartition, route: int) -> tuple[tuple[int, ...], ...]:
    """For each strategy solo_tt * 64 + f * 16 + g of a route, the 8 rows of
    tobl_problem it populates (one per input triple): route 0 fills rows
    0..63, route 1 rows 64..127, each at 64 * route + flat table index.

    Route 0: pair[0] sends, so pair[0] out = f(pair[0] in) and pair[1] out =
    g(inputs).  Route 1: pair[1] sends.
    """
    s = bp.solo
    p0, p1 = bp.pair
    sender, receiver = (p0, p1) if route == 0 else (p1, p0)
    table = []
    for solo_tt in range(4):
        for f in range(4):
            for g in range(16):
                hits = []
                for ins in product(BITS, repeat=3):
                    outs = [0, 0, 0]
                    outs[s] = _bit(solo_tt, ins[s])
                    outs[sender] = _bit(f, ins[sender])
                    outs[receiver] = _bit(g, 2 * ins[p0] + ins[p1])
                    hits.append(64 * route + pack(tuple(outs), ins))
                table.append(tuple(hits))
    return tuple(table)


def lambda_index(solo_tt: int, r1: tuple[int, int], r2: tuple[int, int]) -> int:
    return solo_tt * 4096 + (r1[0] * 16 + r1[1]) * 64 + (r2[0] * 16 + r2[1])


def decode_lambda(idx: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    solo_tt, rest = divmod(idx, 4096)
    r1, r2 = divmod(rest, 64)
    return solo_tt, divmod(r1, 16), divmod(r2, 16)


def _block(solo_tt: int) -> range:
    """The strategies of either route with this solo truth table."""
    return range(64 * solo_tt, 64 * solo_tt + 64)


def _one_way_problem(table, bp: Bipartition, keep) -> LPProblem:
    """tobl_problem's rows over some of its columns only.

    Column (sigma, tau) = lambda index sigma * 64 + tau % 64 pairs route-0
    strategy sigma with route-1 strategy tau of the same solo truth table;
    keep lists, per solo truth table, the (sigmas, taus) whose products stay.
    """
    routes = (_route_rows(bp, 0), _route_rows(bp, 1))
    rows_entries: list[list] = [[] for _ in range(129)]
    for sigmas, taus in keep:
        for sigma in sigmas:
            hits1 = routes[0][sigma]
            for tau in taus:
                entry = (sigma * 64 + tau % 64, 1)
                for row in hits1 + routes[1][tau]:
                    rows_entries[row].append(entry)
                rows_entries[128].append(entry)
    rhs = tuple(table) * 2 + (ONE,)
    return LPProblem(16384, tuple(zip(map(tuple, rows_entries), rhs)))


def tobl_problem(box: Box3, bp: Bipartition) -> LPProblem:
    """129-row, 16384-column LP: rows 0..63 are route-1 table equations (flat
    index), 64..127 route-2, 128 normalization.  Column lambda_index(...)
    hits the 8 rows of each of its two route strategies (_route_rows) and
    row 128, each with coefficient 1."""
    return _one_way_problem(box.table, bp, [(_block(s), _block(s)) for s in range(4)])


# Kill time of a column that no zero row removes: later than every row.
_NEVER = 129

_ToblPresolve = namedtuple("_ToblPresolve", "z clean steps detected requeued")


def _tobl_presolve(table, bp: Bipartition) -> _ToblPresolve:
    """lp_feasible's presolve of tobl_problem, replayed on route strategies.

    Every coefficient is 1 and every zero-rhs row is all-positive, so the
    first zero row j a column (sigma, tau) hits removes it:
    kill = min(z[0][sigma], z[1][tau]), z being the first zero row each
    route strategy hits.  steps are the zero rows that remove columns,
    ascending; detected is the row whose columns all went while its rhs is
    not zero (None if none did), and requeued tells whether it was found
    only when re-queued after the first pass over the rows.  clean[s] holds,
    per route, the strategies with solo truth table s that hit no zero row:
    their products are the columns left.
    """
    routes = (_route_rows(bp, 0), _route_rows(bp, 1))
    zero = [not v for v in table] * 2
    z = tuple(
        tuple(min((r for r in hits if zero[r]), default=_NEVER) for hits in strategies)
        for strategies in routes
    )
    clean = tuple(
        tuple(tuple(st for st in _block(s) if z[route][st] == _NEVER) for route in (0, 1))
        for s in range(4)
    )
    # Zero row j removes the columns whose kill is j: on route 0 every
    # column of a strategy with z == j, on route 1 only those pairing it with
    # a clean route-0 strategy (a route-0 zero row comes first otherwise).
    steps = sorted(
        {j for j in z[0] if j < _NEVER}
        | {j for tau, j in enumerate(z[1]) if j < _NEVER and clean[tau // 64][0]}
    )
    # A row loses its last column at the largest kill among its columns.
    # Those pair each strategy through the row with every strategy of the
    # other route with the same solo truth table, so that largest kill is
    # min(z, the largest z among those).
    zmax = [[max(z[route][st] for st in _block(s)) for s in range(4)] for route in (0, 1)]
    last = [0] * 128 + [max(min(zmax[0][s], zmax[1][s]) for s in range(4))]
    for route in (0, 1):
        for st, hits in enumerate(routes[route]):
            k = min(z[route][st], zmax[1 - route][st // 64])
            for r in hits:
                if k > last[r]:
                    last[r] = k
    nonzero = [r for r in range(128) if not zero[r]] + [128]
    # First pass in row order: a row whose columns all went before it
    # arrives empty.  The lp presolve stops there, but the steps after it
    # remove only columns that miss that row, so lifting through them adds
    # nothing.
    for r in nonzero:
        if last[r] < r:
            return _ToblPresolve(z, clean, tuple(steps), r, False)
    emptied = [r for r in nonzero if last[r] < _NEVER]
    if not emptied:
        return _ToblPresolve(z, clean, tuple(steps), None, False)
    # Re-queue order: row r is queued again at the first step j > r removing
    # one of its columns; within step j by ascending column, then row.
    def queued_at(r):
        route = r // 64
        best = None
        for st, hits in enumerate(routes[route]):
            if r in hits:
                for other in _block(st // 64):
                    sigma, tau = (st, other) if route == 0 else (other, st)
                    kill = min(z[0][sigma], z[1][tau])
                    if r < kill < _NEVER:
                        key = (kill, sigma * 64 + tau % 64, r)
                        if best is None or key < best:
                            best = key
        return best

    detected = min(map(queued_at, emptied))[2]
    return _ToblPresolve(z, clean, tuple(steps), detected, True)


def _strategy_sum(y: dict, hits):
    return sum(y[r] for r in hits if r in y)


def _lift_tobl(pre: _ToblPresolve, bp: Bipartition, y: dict) -> dict:
    """lp._lift_farkas on tobl_problem, over route strategies.

    Column (sigma, tau) aggregates u0(sigma) + u1(tau) + y[128], u being
    the witness summed over a strategy's rows.  So the largest aggregate
    over a step's columns is, per solo truth table, the largest u among the
    strategies the step removes plus the largest u of their partners.  The
    sums run on the witness scaled once to integers.
    """
    routes = (_route_rows(bp, 0), _route_rows(bp, 1))
    scale, w = _integer_scaled(y)
    base = w.get(128, 0)

    def lift(route, partner):
        for j in reversed([j for j in pre.steps if j // 64 == route]):
            m = max(
                (_strategy_sum(w, routes[route][st]) + partner[st // 64] + base
                 for st, k in enumerate(pre.z[route]) if k == j and partner[st // 64] is not None),
                default=0,
            )
            if m > 0:
                w[j] = -m
                y[j] = Fraction(-m, scale)

    # Steps lift in reverse row order, so those on route 1 (rows 64..127)
    # come first.  Their columns pair with clean route-0 strategies, which no
    # step touches; the columns of route-0 steps pair with every route-1
    # strategy, whose rows are all lifted by then.
    lift(1, [max((_strategy_sum(w, routes[0][st]) for st in clean0), default=None)
             for clean0, _ in pre.clean])
    lift(0, [max(_strategy_sum(w, routes[1][tau]) for tau in _block(s)) for s in range(4)])
    return y


def _reading(bp: Bipartition, point) -> tuple | None:
    """The 129 row sums of tobl_problem at a sparse point, given as (lambda
    index, weight) pairs; None when a weight is negative or an index lies
    outside 0..16383."""
    routes = (_route_rows(bp, 0), _route_rows(bp, 1))
    reading = [ZERO] * 129
    for col, v in point:
        if v < 0 or not 0 <= col < 16384:
            return None
        sigma, f2 = divmod(col, 64)
        for r in routes[0][sigma] + routes[1][sigma // 64 * 64 + f2] + (128,):
            reading[r] += v
    return tuple(reading)


def _verify_tobl(cert: LPCertificate, pre: _ToblPresolve, table, bp: Bipartition) -> bool:
    """cert.verify(tobl_problem(box, bp)) on route strategies; a point must
    also stay on the columns the presolve left."""
    rhs = tuple(table) * 2 + (ONE,)
    if cert.feasible:
        point = cert.point_dict()
        return _reading(bp, point.items()) == rhs and all(
            pre.z[0][col // 64] == _NEVER and pre.z[1][col // 4096 * 64 + col % 64] == _NEVER
            for col in point
        )
    y = cert.farkas_dict()
    if any(not 0 <= r < 129 for r in y):
        return False
    _, w = _integer_scaled(y)
    if sum(v * rhs[r] for r, v in w.items()) <= 0:
        return False
    # All 16384 column aggregates are nonpositive iff, per solo truth
    # table, the largest u0 plus the largest u1 plus y[128] is.
    routes = (_route_rows(bp, 0), _route_rows(bp, 1))
    best = [
        [max(_strategy_sum(w, routes[route][st]) for st in _block(s)) for s in range(4)]
        for route in (0, 1)
    ]
    base = w.get(128, 0)
    return all(b0 + b1 + base <= 0 for b0, b1 in zip(*best))


def is_tobl(box: Box3, bp: Bipartition) -> LPCertificate:
    """Feasibility of a shared one-way-signalling model for both directions
    of the bipartition.

    The certificate is the one lp_feasible(tobl_problem(box, bp)) returns,
    row and column ids included, but the presolve, the Farkas lift and the
    verification run on the 2 x 256 route strategies, and the simplex on
    the columns the presolve leaves.
    """
    require_valid(_require3(box, "is_tobl"))
    pre = _tobl_presolve(box.table, bp)
    if pre.detected is not None:
        farkas = _lift_tobl(pre, bp, {pre.detected: ONE})
        cert = LPCertificate(False, None, tuple(sorted(farkas.items())))
    else:
        cert = lp_feasible(_one_way_problem(box.table, bp, pre.clean))
        if not cert.feasible:
            farkas = _lift_tobl(pre, bp, cert.farkas_dict())
            cert = LPCertificate(False, None, tuple(sorted(farkas.items())))
    if not _verify_tobl(cert, pre, box.table, bp):
        raise LPError("certificate failed self-verification")
    return cert


@dataclass(frozen=True)
class ToblModel:
    """Sparse weights over strategy-triple lambda indices for a bipartition."""

    bipartition: Bipartition
    weights: tuple[tuple[int, Fraction], ...]

    def induced_box(self, route: int) -> Box3:
        """Box reproduced by reading every strategy triple along one route."""
        reading = _reading(self.bipartition, self.weights)
        if reading is None:
            raise ValueError("model weights must be nonnegative on lambda indices 0..16383")
        return Box3(reading[64 * route:64 * route + 64])


def verify_model(model: ToblModel, box: Box3) -> bool:
    """Nonnegative weights summing to 1 whose two directional readings both
    reproduce the box exactly."""
    return _reading(model.bipartition, model.weights) == box.table * 2 + (ONE,)


def _tt1(fn) -> int:
    return fn(0) | (fn(1) << 1)


def _tt2(fn) -> int:
    tt = 0
    for i, j in product(BITS, repeat=2):
        tt |= fn(i, j) << (2 * i + j)
    return tt


def class4_tobl_model(bp: Bipartition) -> ToblModel:
    """The uniform two-bit-seed model for the class4 builtin.

    For seed (l0, l1) the solo party outputs l0 + (l0+l1)s on input s.  A
    route whose sender precedes its receiver on the cycle A -> B -> C -> A
    has sender output l0 + l1 + l1*s and receiver output l1 + (l0+s)r, for
    sender input s and receiver input r; a route the other way has l1 +
    (l0+1)s and l0 + (l1+s)(r+1).  (class4 is invariant under the cycle.)
    """
    entries = []
    for l0, l1 in product(BITS, repeat=2):
        routes = []
        for k in (0, 1):  # route k + 1: pair[k] sends
            sender, receiver = bp.pair[k], bp.pair[1 - k]
            if receiver == (sender + 1) % 3:
                f = lambda s: l0 ^ l1 ^ (l1 & s)
                g = lambda s, r: l1 ^ ((l0 ^ s) & r)
            else:
                f = lambda s: l1 ^ ((l0 ^ 1) & s)
                g = lambda s, r: l0 ^ ((l1 ^ s) & (r ^ 1))
            # g's truth table takes the pair's inputs in pair order
            routes.append((_tt1(f), _tt2(lambda i, j: g(i, j) if k == 0 else g(j, i))))
        solo_tt = _tt1(lambda s: l0 ^ ((l0 ^ l1) & s))
        entries.append((lambda_index(solo_tt, *routes), Fraction(1, 4)))
    return ToblModel(bp, tuple(sorted(entries)))
