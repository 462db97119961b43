"""Seeded random boxes shared by the tests."""

from fractions import Fraction

from box_oracle import all_relabelings2, from_entries, relabel
from nsboxes import Box2, builtin, mix


def random_ns_box2(rng):
    """Random point of the bipartite no-signalling polytope: a convex mixture
    of deterministic vertices and relabelled PR boxes."""
    rels = all_relabelings2()
    vertices = []
    for _ in range(rng.randrange(1, 6)):
        if rng.random() < 0.4:
            vertices.append(relabel(builtin("pr"), rng.choice(rels)))
        else:
            ta, tb = rng.randrange(4), rng.randrange(4)
            fn = lambda a, b, x, y: (
                Fraction(1)
                if a == (ta >> x) & 1 and b == (tb >> y) & 1
                else Fraction(0)
            )
            vertices.append(from_entries(Box2, fn))
    raw = [Fraction(rng.randrange(1, 10)) for _ in vertices]
    total = sum(raw)
    return mix(vertices, tuple(v / total for v in raw))
