"""Naive per-wiring evaluation of the wiring map, the reference that the
factored half-table kernel in nsboxes.wiring is tested against.

sources() follows the definition of a wiring entry by entry; nothing is
shared with the kernel but the index conventions.
"""

from fractions import Fraction
from itertools import product

from nsboxes import index2, index3

BITS = (0, 1)


def sources(w):
    """For each of the 16 effective entries, the flat tripartite indices
    whose probabilities are summed into it."""
    solo = w.bipartition.solo
    first, second = w.actors()
    out = [[] for _ in range(16)]
    for sp, w1, w2, xp, ap in product(BITS, repeat=5):
        ins, outs = [0] * 3, [0] * 3
        ins[solo], outs[solo] = xp, ap
        ins[first], outs[first] = (w.alpha >> sp) & 1, w1
        ins[second], outs[second] = (w.beta >> (2 * sp + w1)) & 1, w2
        bout = (w.gamma >> (4 * sp + 2 * w1 + w2)) & 1
        out[index2(ap, bout, xp, sp)].append(index3(*outs, *ins))
    return out


def wire(table, w):
    """Effective 16-entry table of wiring w on a valid tripartite table."""
    return tuple(sum((table[j] for j in js), Fraction(0)) for js in sources(w))


def wire_fixed_inputs(table, w):
    """Second route for type-I wirings: fix both pair inputs per s', then
    group the plain conditional block by the pair's effective output."""
    if not w.is_type_i:
        raise ValueError("fixed-input evaluation needs a type-I wiring")
    solo = w.bipartition.solo
    first, second = w.actors()
    acc = [Fraction(0)] * 16
    for sp, xp in product(BITS, repeat=2):
        ins = [0] * 3
        ins[solo], ins[first], ins[second] = xp, (w.alpha >> sp) & 1, (w.beta >> (2 * sp)) & 1
        for ap, w1, w2 in product(BITS, repeat=3):
            outs = [0] * 3
            outs[solo], outs[first], outs[second] = ap, w1, w2
            bout = (w.gamma >> (4 * sp + 2 * w1 + w2)) & 1
            acc[index2(ap, bout, xp, sp)] += table[index3(*outs, *ins)]
    return tuple(acc)


def canonical_key(w):
    """Position of w in the canonical (bipartition, ordering, alpha, beta,
    gamma) enumeration order."""
    return (w.bipartition.solo, w.ordering, w.alpha, w.beta, w.gamma)
