"""class4's one-way model, written out by hand.

For every bipartition, class4 has a one-way model with weight 1/4 on each of
four strategy triples.  class4_tobl_model returns it as a feasible
certificate of nsboxes.membership.tobl_problem, indexed by lambda_index, the
column layout that the module docstring of nsboxes.membership describes.
"""

from fractions import Fraction
from itertools import product

from nsboxes import Bipartition, LPCertificate

BITS = (0, 1)


def lambda_index(solo_tt: int, r1: tuple[int, int], r2: tuple[int, int]) -> int:
    return solo_tt * 4096 + (r1[0] * 16 + r1[1]) * 64 + (r2[0] * 16 + r2[1])


def _tt1(fn) -> int:
    return fn(0) | (fn(1) << 1)


def _tt2(fn) -> int:
    tt = 0
    for i, j in product(BITS, repeat=2):
        tt |= fn(i, j) << (2 * i + j)
    return tt


def class4_tobl_model(bp: Bipartition) -> LPCertificate:
    """The uniform two-bit-seed model for the class4 builtin, as a feasible
    certificate of tobl_problem(builtin("class4"), bp): weight 1/4 on the
    lambda index of each seed's strategy triple.  It checks as every
    is_tobl certificate does, with cert.verify(tobl_problem(box, bp)).

    For seed (l0, l1) the solo party outputs l0 + (l0+l1)s on input s.  A
    route whose sender precedes its receiver on the cycle A -> B -> C -> A
    has sender output l0 + l1 + l1*s and receiver output l1 + (l0+s)r, for
    sender input s and receiver input r; a route the other way has l1 +
    (l0+1)s and l0 + (l1+s)(r+1).  (class4 is invariant under the cycle.)
    """
    entries = []
    for l0, l1 in product(BITS, repeat=2):
        routes = []
        for k in (0, 1):  # route k: pair[k] sends
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
    return LPCertificate(True, tuple(sorted(entries)), None)
