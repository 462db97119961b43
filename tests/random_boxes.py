"""Seeded random boxes shared by the tests."""

from fractions import Fraction

from box_oracle import Relabeling, all_relabelings2, from_entries, relabel
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


def random_relabeling3(rng):
    return Relabeling(
        rng.choice([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]),
        tuple(rng.randrange(2) for _ in range(3)),
        tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)),
    )


def mixture3(rng, weights):
    """A relabelled extremal class and deterministic tripartite boxes, one
    per further weight, mixed with the given weights."""
    vertices = [relabel(builtin(rng.choice(("class3", "class4", "class44"))), random_relabeling3(rng))]
    for _ in weights[1:]:
        vertices.append(builtin("deterministic(%d,%d,%d)" % tuple(rng.randrange(4) for _ in range(3))))
    return mix(vertices, weights)


def pool_weights(rng):
    """Three weights with large random numerators, as in the benchmark's
    sweep-mixed pool: denominators near 450,000 with no structure."""
    raw = [Fraction(rng.randint(lo, 2 * lo)) for lo in (200_000, 50_000, 50_000)]
    return [w / sum(raw) for w in raw]


def odd_lcm_mixtures(rng):
    """Tripartite mixtures whose integer scales are not powers of 2: weights
    k/7, k/11 and sweep-mixed pool weights."""
    boxes = []
    for den in (7, 11):
        k = rng.randrange(1, den)
        boxes.append(mixture3(rng, [Fraction(k, den), Fraction(den - k, den)]))
    boxes.append(mixture3(rng, [Fraction(1, 7), Fraction(4, 11), 1 - Fraction(1, 7) - Fraction(4, 11)]))
    boxes.append(mixture3(rng, pool_weights(rng)))
    return boxes
