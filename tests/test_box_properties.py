"""Flat-index box operations against the entry-by-entry oracle, and the
relabelling group laws on index permutations."""

import random
from fractions import Fraction
from math import lcm
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

import box_oracle as oracle
from box_oracle import all_relabelings2, from_entries, relabel
from random_boxes import mixture3, odd_lcm_mixtures, pool_weights
from nsboxes import (
    BIPARTITIONS,
    Box2,
    Box3,
    Relabeling,
    Wiring,
    apply_wiring,
    builtin,
    correlator,
    correlator_table,
    dumps,
    enumerate_wirings,
    loads,
    mix,
    validate,
)
from nsboxes.boxes import integer_scaled
from nsboxes.cli import load_table_rows

SEED = 90210
BITS = (0, 1)
PARITY_WIRING = "bp=A|BC order=B,C alpha=2 beta=15 gamma=102"

RELABELINGS3 = tuple(
    Relabeling(perm, flips, (of[0:2], of[2:4], of[4:6]))
    for perm in permutations(range(3))
    for flips in product(BITS, repeat=3)
    for of in product(BITS, repeat=6)
)


def seeded_boxes():
    """Valid boxes (builtins, relabelled extremal boxes mixed with
    deterministic ones) and invalid ones: random rational tables and uniform
    tables with one entry shifted or two entries traded."""
    rng = random.Random(SEED)
    valid = [builtin(n) for n in ("class3", "class4", "class44", "pr", "uniform3", "uniform2")]
    for _ in range(20):
        vertex = relabel(rng.choice(valid[:3]), rng.choice(RELABELINGS3))
        det = builtin("deterministic(%d,%d,%d)" % tuple(rng.randrange(4) for _ in range(3)))
        w = Fraction(rng.randrange(1, 10), 10)
        valid.append(mix([vertex, det], [w, 1 - w]))
    for _ in range(10):
        w = Fraction(rng.randrange(1, 10), 10)
        pr = relabel(builtin("pr"), rng.choice(all_relabelings2()))
        valid.append(mix([pr, builtin("uniform2")], [w, 1 - w]))
    invalid = []
    for cls in (Box3, Box2):
        size = 64 if cls is Box3 else 16
        uniform = Fraction(1, 8 if cls is Box3 else 4)
        for _ in range(30):
            table = [uniform] * size
            kind = rng.randrange(3)
            if kind == 0:
                table = [Fraction(rng.randrange(-2, 5), rng.randrange(1, 9)) for _ in range(size)]
            elif kind == 1:
                i, j = rng.sample(range(size), 2)
                d = Fraction(rng.randrange(1, 5), 16)
                table[i] += d
                table[j] -= d
            else:
                table[rng.randrange(size)] += Fraction(1, 32)
            invalid.append(cls(tuple(table)))
    return valid, invalid


def test_box_operations_match_oracle():
    valid, invalid = seeded_boxes()
    reports = [oracle.validate(b) for b in invalid]
    for field in ("negative_entries", "normalization_failures", "signalling_failures"):
        assert sum(1 for r in reports if getattr(r, field)) >= 10, field
    rng = random.Random(SEED + 1)
    for box in valid + invalid:
        n = box.n_parties
        report = validate(box)
        assert report == oracle.validate(box)
        assert report.is_valid == (box in valid)
        assert dumps(box) == oracle.dumps(box)
        subsets = [ps for k in range(n + 1) for ps in permutations(range(n), k)]
        for parties in subsets:
            for inputs in product(BITS, repeat=len(parties)):
                assert correlator(box, parties, inputs) == oracle.correlator(box, parties, inputs)
        rels = all_relabelings2() if n == 2 else rng.sample(RELABELINGS3, 40)
        for r in rels:
            assert tuple(box.table[j] for j in r.permutation) == oracle.relabel_table(box.table, r)
        if n == 2:
            assert correlator_table(box) == oracle.correlator_table(box)


def large_denominator_boxes():
    """Mixtures of three valid boxes of one arity with 6-digit weights, so
    denominators are large and coprime, each left valid or made invalid: an
    entry set negative, two entries at one input traded (signalling, sums
    kept), or one entry shifted (unnormalized and signalling)."""
    rng = random.Random(SEED + 3)
    valid, _ = seeded_boxes()
    boxes = []
    for k in range(80):
        pool = [b for b in valid if b.n_parties == 2 + k % 2]
        raw = [rng.randint(100_000, 999_999) for _ in range(3)]
        table = list(mix(rng.sample(pool, 3), [Fraction(r, sum(raw)) for r in raw]).table)
        d = Fraction(rng.randint(1, 999_999), rng.randint(100_000, 999_999))
        i = rng.randrange(len(table))
        kind = k // 2 % 4
        if kind == 1:
            table[i] = -d
        elif kind == 2:
            j = i ^ rng.randrange(1, 2 ** (2 + k % 2))  # same inputs, other outputs
            table[i] += d
            table[j] -= d
        elif kind == 3:
            table[i] += d
        boxes.append(type(pool[0])(tuple(table)))
    return boxes


def test_validate_matches_oracle_on_large_denominators():
    boxes = large_denominator_boxes()
    reports = [validate(b) for b in boxes]
    for box, report in zip(boxes, reports):
        expected = oracle.validate(box)
        assert report == expected
        assert report.lines() == expected.lines()
    for field in ("negative_entries", "normalization_failures", "signalling_failures"):
        assert sum(1 for r in reports if getattr(r, field)) >= 10, field
    assert sum(1 for r in reports if r.is_valid) >= 10


def test_integer_view_is_the_table_scaled_by_the_lcm():
    valid, invalid = seeded_boxes()
    for box in valid + invalid + large_denominator_boxes():
        scale, ints = box.scaled
        assert scale == lcm(*(v.denominator for v in box.table))
        assert len(ints) == len(box.table)
        assert all(type(m) is int and Fraction(m, scale) == v for m, v in zip(ints, box.table))
        # a box holds its view from birth, built from its table or not;
        # equality and hashing read the table
        twin = type(box)(box.table)
        assert vars(twin)["scaled"] == box.scaled
        assert twin == box and hash(twin) == hash(box)
        assert twin == type(box)(box.table) and hash(twin) == hash(type(box)(box.table))


def assert_like_fraction_built(box):
    """box equals, hashes like and reprs like the box of the same type built
    from its Fractions, and its view is the one integer_scaled gives."""
    assert box.scaled == integer_scaled(box.table)
    twin = type(box)(box.table)
    assert box == twin and twin == box and not box != twin
    assert hash(box) == hash(twin) and repr(box) == repr(twin)


def test_view_built_boxes_match_fraction_built_ones():
    # loads and apply_wiring build a box from its integer view alone; it must
    # be the box that its own table builds.  Sources: the seeded boxes, valid
    # and invalid, large coprime denominators and sweep-mixed pool mixtures.
    rng = random.Random(SEED + 12)
    valid, invalid = seeded_boxes()
    sources = valid + invalid + large_denominator_boxes() + odd_lcm_mixtures(rng)
    sources += [mixture3(rng, pool_weights(rng)) for _ in range(4)]
    names = ("class3", "class4", "class44", "pr", "uniform3", "uniform2", "deterministic(1,2,3)")
    for box in sources + [builtin(n) for n in names]:
        loaded = loads(dumps(box), check=False)
        assert "table" not in vars(loaded)
        assert_like_fraction_built(loaded)
        assert loaded == box and loaded.scaled == box.scaled
        assert_like_fraction_built(box)
    wirings = [Wiring.parse(e) for e in dict.fromkeys(row.encoding for row in load_table_rows() if row.encoding)]
    wirings += [enumerate_wirings(rng.choice(BIPARTITIONS))[rng.randrange(32768)] for _ in range(12)]
    reduced = 0
    for box in sources:
        if box.n_parties == 3 and validate(box).is_valid:
            for w in wirings:
                eff = apply_wiring(box, w)
                assert "table" not in vars(eff)
                assert_like_fraction_built(eff)
                reduced += eff.scaled[0] < box.scaled[0]
    # the gcd that brings a view to lowest terms: class44 has scale 4, and
    # the PR box it wires to has scale 2
    assert apply_wiring(builtin("class44"), Wiring.parse(PARITY_WIRING)).scaled[0] == 2
    assert reduced >= 100


def inverse(p):
    """The permutation q with q[p[i]] == i."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def composed(p, q):
    """The permutation that relabelling by q, then by p, reads through."""
    return tuple(q[j] for j in p)


def test_bipartite_relabeling_group_laws():
    perms = {r.permutation for r in all_relabelings2()}
    assert len(perms) == 128
    assert all(sorted(p) == list(range(16)) for p in perms)
    for p in perms:
        assert inverse(p) in perms
        assert all(composed(p, q) in perms for q in perms)


def test_tripartite_relabeling_group_laws_on_a_sample():
    perms = {r.permutation for r in RELABELINGS3}
    assert len(perms) == 3072
    assert all(inverse(p) in perms for p in perms)
    rng = random.Random(SEED + 2)
    for _ in range(500):
        r, s = rng.choice(RELABELINGS3), rng.choice(RELABELINGS3)
        assert composed(r.permutation, s.permutation) in perms


def deterministic2(ta, tb):
    return from_entries(Box2, lambda a, b, x, y: int(a == (ta >> x) & 1 and b == (tb >> y) & 1))


def mixtures(vertices):
    """Convex mixtures of up to four vertices with weights r / sum(r)."""
    def mixed(boxes, raw):
        raw = raw[: len(boxes)]
        return mix(boxes, [Fraction(r, sum(raw)) for r in raw])

    return st.builds(
        mixed,
        st.lists(vertices, min_size=1, max_size=4),
        st.lists(st.integers(1, 9), min_size=4, max_size=4),
    )


valid_boxes = mixtures(
    st.builds(relabel, st.just(builtin("pr")), st.sampled_from(all_relabelings2()))
    | st.builds(deterministic2, st.integers(0, 3), st.integers(0, 3))
) | mixtures(
    st.builds(
        relabel,
        st.sampled_from([builtin(n) for n in ("class3", "class4", "class44", "deterministic(1,2,0)")]),
        st.sampled_from(RELABELINGS3),
    )
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(valid_boxes)
def test_dumps_loads_round_trip(box):
    assert validate(box).is_valid
    assert loads(dumps(box)) == box
