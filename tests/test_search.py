"""The wiring search against the per-column-pair sweep of wiring_oracle.

search_max_all scores each distinct column of a (bipartition, ordering)
once, through the closed forms of the orbit maxima and the central
symmetry of the columns; these tests pin the column kernel, the closed
forms against the orbit forms of box_oracle, the half hull, each block's
maxima, and the values and tie-break wirings of the whole search against
the oracle.  They also check the two
bounds the search skips blocks by, that a block skipped as a repeat of a
scored block's column set has that block's maxima, and where the skips fire.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import wiring_oracle as oracle
from box_oracle import dot, from_entries, oracle_orbit_forms, relabel
from nsboxes import (
    BIPARTITIONS,
    Box2,
    Relabeling,
    Wiring,
    builtin,
    chsh_max,
    mix,
    search_max_all,
    uffink_max,
    wiring,
)
from nsboxes.boxes import block_correlators
from nsboxes.wiring import _IMAGES, _block_max, _distinct_columns, _half_hull, _joined, _summands
from random_boxes import mixture3, odd_lcm_mixtures, pool_weights, random_relabeling3
from wiring_oracle import columns as _columns

SEED = 91207
FUNCTIONAL_SETS = (("chsh_max", "uffink_max"), ("chsh_max",), ("uffink_max",))
VERTEX_NAMES = ("class3", "class4", "class44")


def random_relabeling(rng):
    return Relabeling(
        rng.choice(list(permutations(range(3)))),
        tuple(rng.randrange(2) for _ in range(3)),
        tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)),
    )


def random_deterministic(rng):
    return builtin("deterministic(%d,%d,%d)" % tuple(rng.randrange(4) for _ in range(3)))


def seeded_boxes(rng, count):
    """Mixtures of relabelled extremal classes and deterministic boxes."""
    boxes = []
    for _ in range(count):
        parts = [
            relabel(builtin(rng.choice(VERTEX_NAMES)), random_relabeling(rng))
            if rng.random() < 0.6
            else random_deterministic(rng)
            for _ in range(rng.randrange(1, 4))
        ]
        raw = [rng.randrange(1, 10) for _ in parts]
        boxes.append(mix(parts, [Fraction(r, sum(raw)) for r in raw]))
    return boxes


def assert_search_matches_oracle(box):
    # The oracle tracks each functional on its own, so one joint sweep
    # answers every functional set.
    expected = oracle.search_max_all(box)
    for functionals in FUNCTIONAL_SETS:
        got = search_max_all(box, functionals)
        assert list(got) == list(functionals)
        for f in functionals:
            (w, v), (ow, ov) = got[f], expected[f]
            assert (v, w.encode()) == (ov, ow.encode()), (f, functionals)


def test_column_kernel_equals_half_table_correlators():
    rng = random.Random(SEED)
    boxes = [builtin(n) for n in VERTEX_NAMES + ("uniform3",)] + seeded_boxes(rng, 4)
    for box in boxes:
        for table in (box.table, oracle._integer_table(box)[1]):
            for bp in BIPARTITIONS:
                for ordering in (0, 1):
                    first, second = bp.actors(ordering)
                    assert _columns(table, bp.solo, first, second) == [
                        block_correlators(oracle.half_table(table, bp.solo, first, second, h))
                        for h in range(128)
                    ]


def test_distinct_columns_equal_the_first_halves_of_the_128():
    rng = random.Random(SEED + 3)
    names = VERTEX_NAMES + ("uniform3", "deterministic(1,2,0)")
    for box in [builtin(n) for n in names] + seeded_boxes(rng, 4):
        for table in (box.table, oracle._integer_table(box)[1]):
            for bp in BIPARTITIONS:
                for ordering in (0, 1):
                    block = (table, bp.solo, *bp.actors(ordering))
                    assert _distinct_columns(_summands(*block)) == oracle.distinct_columns(*block)


def test_oracle_half_tables_join_to_the_wired_box():
    rng = random.Random(SEED + 1)
    for box in [builtin(n) for n in VERTEX_NAMES] + seeded_boxes(rng, 2):
        for _ in range(40):
            bp, ordering = rng.choice(BIPARTITIONS), rng.randrange(2)
            h0, h1 = rng.randrange(128), rng.randrange(128)
            halves = (oracle.half_table(box.table, bp.solo, *bp.actors(ordering), h) for h in (h0, h1))
            w = Wiring(bp, ordering, *_joined(h0, h1))
            assert oracle._effective(*halves) == oracle.wire(box.table, w), w.encode()


def _random_columns(rng):
    """Two random integer columns c0 = (x0, y0) and c1 = (x1, y1)."""
    return [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(2)]


def _table(c0, c1):
    """The correlator table (E00, E01, E10, E11) of the columns."""
    return (c0[0], c1[0], c0[1], c1[1])


def _closed_forms(c0, c1):
    """(CHSH, Uffink) orbit maxima of the columns, read from chsh_max and
    uffink_max on a table with those correlators."""
    e = _table(c0, c1)
    box = from_entries(Box2, lambda a, b, x, y: (1 + (-1) ** (a + b) * e[2 * x + y]) / Fraction(4))
    return chsh_max(box), uffink_max(box)


def _oracle_maxima(c0, c1):
    """(CHSH, Uffink) maxima of the columns over the oracle's orbit forms."""
    return tuple(oracle.FUNCTIONALS[f][0](_table(c0, c1)) for f in ("chsh_max", "uffink_max"))


def test_orbit_form_split():
    # the oracle's orbit forms are the terms of the closed forms: |CHSH| is
    # |s0 +- d1| and |d0 +- s1|, and the Uffink pairs are s0^2 + d1^2,
    # d0^2 + s1^2 and n0 + n1 +- 2 (x0 x1 - y0 y1)
    chsh_forms, uffink_pairs = oracle_orbit_forms()
    rng = random.Random(SEED + 5)
    for _ in range(200):
        c0, c1 = _random_columns(rng)
        (x0, y0), (x1, y1) = c0, c1
        e = _table(c0, c1)
        s0, d0, s1, d1 = x0 + y0, x0 - y0, x1 + y1, x1 - y1
        n, k = x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1, 2 * (x0 * x1 - y0 * y1)
        assert sorted(abs(dot(c, e)) for c in chsh_forms) == sorted(
            [abs(s0 + d1), abs(s0 - d1), abs(d0 + s1), abs(d0 - s1)]
        )
        assert sorted(dot(p, e) ** 2 + dot(q, e) ** 2 for p, q in uffink_pairs) == sorted(
            [s0 * s0 + d1 * d1, d0 * d0 + s1 * s1, n + k, n - k]
        )
        assert _closed_forms(c0, c1) == _oracle_maxima(c0, c1)


def _inside(p, points):
    """Whether p is a convex combination of the other points (brute force)."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    others = [q for q in points if q != p]
    for a, b in combinations(others, 2):
        if cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b):
            return True
    for a, b, c in combinations(others, 3):
        signs = (cross(a, b, p), cross(b, c, p), cross(c, a, p))
        if cross(a, b, c) != 0 and (min(signs) >= 0 or max(signs) <= 0):
            return True
    return False


def _negated(points):
    return {(-x, -y) for x, y in points}


def test_hull_vertices_brute_force():
    # a block's columns are centrally symmetric, and so are these sets
    rng = random.Random(SEED + 1)
    for size in list(range(1, 5)) * 10 + list(range(5, 12)) * 10:
        points = {(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(size)}
        if rng.random() < 0.3:  # collinear sets
            points = {(x, 2 * x) for x, _ in points}
        points = list(points | _negated(points))
        vertices = {p for p in points if not _inside(p, points)}
        half = _half_hull(points)
        # one point of each +- pair of vertices, (0, 0) counting as a pair
        assert len({frozenset({p, (-p[0], -p[1])}) for p in half}) == len(half)
        assert set(half) | _negated(half) == vertices, points
        full = oracle.hull(points)
        assert len(full) == len(set(full)) and set(full) == vertices, points


def noisy_boxes():
    """p V + (1 - p) uniform3 for V in class3 and class44, at four weights."""
    return [
        mix([builtin(name), builtin("uniform3")], [p, 1 - p])
        for name in ("class3", "class44")
        for p in (Fraction(7, 20), Fraction(1, 2), Fraction(13, 20), Fraction(3, 4))
    ]


def test_search_matches_oracle_on_seeded_mixtures():
    rng = random.Random(SEED + 2)
    boxes = [builtin(n) for n in VERTEX_NAMES + ("uniform3", "deterministic(1,2,0)")]
    for box in boxes + seeded_boxes(rng, 10):
        assert_search_matches_oracle(box)


relabelings3 = st.builds(
    Relabeling,
    st.permutations((0, 1, 2)).map(tuple),
    st.tuples(*[st.integers(0, 1)] * 3),
    st.tuples(*[st.tuples(st.integers(0, 1), st.integers(0, 1))] * 3),
)

# Ties are the hard case for the tie-break: uniform3 and deterministic
# boxes tie across many wirings, and equal weights make more ties.
vertices = st.one_of(
    st.builds(relabel, st.sampled_from([builtin(n) for n in VERTEX_NAMES]), relabelings3),
    st.builds(
        lambda t: builtin("deterministic(%d,%d,%d)" % t),
        st.tuples(*[st.integers(0, 3)] * 3),
    ),
    st.just(builtin("uniform3")),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(vertices, st.integers(1, 3)), min_size=1, max_size=3))
def test_search_matches_oracle_property(parts):
    boxes, raw = zip(*parts)
    assert_search_matches_oracle(mix(list(boxes), [Fraction(r, sum(raw)) for r in raw]))


@pytest.mark.parametrize("k", range(8))
def test_search_matches_oracle_on_pool_entries(k):
    assert_search_matches_oracle(pool_entry(k))


def test_search_matches_oracle_on_noisy_vertices():
    for box in noisy_boxes():
        assert_search_matches_oracle(box)


def test_deterministic_boxes_search_to_the_classical_bounds():
    # every wiring of a deterministic box gives a deterministic bipartite
    # box, and those all have CHSH 2 and Uffink 4 (test_bell)
    for t in range(64):
        got = search_max_all(builtin(f"deterministic({t >> 4},{t >> 2 & 3},{t & 3})"))
        assert (got["chsh_max"][1], got["uffink_max"][1]) == (2, 4)


def _bound_boxes():
    rng = random.Random(SEED + 4)
    names = VERTEX_NAMES + ("uniform3", "deterministic(1,2,0)")
    return [builtin(n) for n in names] + seeded_boxes(rng, 6) + odd_lcm_mixtures(rng)


def test_block_bounds_behind_the_skips():
    # search_max_all stops reading blocks on one inequality: every
    # correlator is at most the scale in size.
    for box in _bound_boxes():
        scale, table = oracle._integer_table(box)
        for bp in BIPARTITIONS:
            for ordering in (0, 1):
                block = (table, bp.solo, *bp.actors(ordering))
                assert all(abs(x) <= scale and abs(y) <= scale for x, y in _columns(*block))


def test_coupled_pairs_share_one_cross_term():
    # the two oracle Uffink pairs whose brackets read both columns are the
    # coupled ones, and the larger of them is n0 + n1 + 2 |x0 x1 - y0 y1|
    coupled = [
        pair for pair in oracle_orbit_forms()[1]
        if any((b[0] or b[2]) and (b[1] or b[3]) for b in pair)
    ]
    assert len(coupled) == 2
    rng = random.Random(SEED + 5)
    for _ in range(200):
        c0, c1 = _random_columns(rng)
        (x0, y0), (x1, y1) = c0, c1
        e = _table(c0, c1)
        values = [dot(p, e) ** 2 + dot(q, e) ** 2 for p, q in coupled]
        assert max(values) == x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1 + 2 * abs(x0 * x1 - y0 * y1)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(wiring, name)

    def counted(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(wiring, name, counted)
    return calls


def pool_entry(k):
    """Entry k of the benchmark's sweep-mixed pool: class44 and two
    deterministic boxes under one fixed relabelling, with large-numerator
    weights seeded by k."""
    r = Relabeling((0, 2, 1), (0, 1, 0), ((0, 0), (0, 0), (0, 1)))
    names = ("class44", "deterministic(1,0,3)", "deterministic(0,1,2)")
    return mix([relabel(builtin(n), r) for n in names], pool_weights(random.Random(11082293 + k)))


def test_skips_fire_where_the_bounds_are_tight(monkeypatch):
    blocks = _count_calls(monkeypatch, "_distinct_columns")
    hulls = _count_calls(monkeypatch, "_half_hull")
    # (blocks whose columns are built, hulls built): class44 reaches CHSH 4
    # and Uffink 8 in its first block and class3 in its second.  Every block
    # read after the bound check has its column set built.  Every later
    # block of class4, uniform3, deterministic(1,2,0) and 3/4 class44 +
    # 1/4 uniform3 repeats the first block's column set, so only the first
    # is scored; a pool entry repeats one of its first two blocks exactly
    # and two more as images under a sign or swap map.  p class3 +
    # (1 - p) uniform3 repeats blocks 2, 1, 1 in blocks 4-6, so three are
    # scored.
    boxes = {name: builtin(name) for name in
             ("class44", "class3", "class4", "uniform3", "deterministic(1,2,0)")}
    boxes["pool entry 0"] = pool_entry(0)
    boxes["3/4 class44"] = mix([builtin("class44"), builtin("uniform3")],
                               [Fraction(3, 4), Fraction(1, 4)])
    for p in (Fraction(7, 20), Fraction(1, 2), Fraction(13, 20), Fraction(3, 4)):
        boxes[f"{p} class3"] = mix([builtin("class3"), builtin("uniform3")], [p, 1 - p])
    expected = {"class44": (1, 1), "class3": (2, 2), "class4": (6, 1), "uniform3": (6, 1),
                "deterministic(1,2,0)": (6, 1), "pool entry 0": (6, 3), "3/4 class44": (6, 1),
                "7/20 class3": (6, 3), "1/2 class3": (6, 3), "13/20 class3": (6, 3),
                "3/4 class3": (6, 3)}
    for name, counts in expected.items():
        blocks.clear()
        hulls.clear()
        search_max_all(boxes[name])
        assert (len(blocks), len(hulls)) == counts, name
    blocks.clear()
    hulls.clear()
    assert search_max_all(builtin("class4"), ()) == {}
    assert (blocks, hulls) == ([], [])
    search_max_all(builtin("class44"), ("chsh_max",))
    assert (len(blocks), hulls) == (1, [])


def _repeat_boxes():
    rng = random.Random(SEED + 6)
    names = VERTEX_NAMES + ("uniform3", "deterministic(1,2,0)")
    boxes = [builtin(n) for n in names] + odd_lcm_mixtures(rng)
    for _ in range(4):
        noisy = relabel(builtin(rng.choice(VERTEX_NAMES)), random_relabeling3(rng))
        k = rng.randrange(1, 4)
        boxes.append(mix([noisy, builtin("uniform3")], [Fraction(k, 4), Fraction(4 - k, 4)]))
        boxes.append(mixture3(rng, pool_weights(rng)))
    return boxes


def _blocks(box):
    """((table, solo, first, second), summands) of each block, in canonical
    order, on the box's integer table."""
    _, table = oracle._integer_table(box)
    for bp in BIPARTITIONS:
        for ordering in (0, 1):
            block = (table, bp.solo, *bp.actors(ordering))
            yield block, _summands(*block)


def _oracle_block(first_half):
    """Both functionals' maxima over all pairs of one block's columns, with
    their first wirings."""
    return {f: oracle.block_max(first_half, f) for f in oracle.FUNCTIONALS}


def _oracle_block_maxima(block):
    return [v for v, _ in _oracle_block(oracle.distinct_columns(*block)).values()]


def test_skipped_blocks_repeat_the_maxima_of_a_scored_block():
    # the search's rule, read on all six blocks: a block whose column set,
    # or an image of it, is a scored block's column set is skipped, else
    # scored
    kinds = set()
    for box in _repeat_boxes():
        scored = {}
        for block, summands in _blocks(box):
            columns = frozenset(_distinct_columns(summands))
            matches = [columns] + [m(columns) for m in _IMAGES]
            found = [(i, scored[k]) for i, k in enumerate(matches) if k in scored]
            if not found:
                scored[columns] = block
                continue
            kinds.add(found[0][0] > 0)
            assert _oracle_block_maxima(block) == _oracle_block_maxima(found[0][1])
    assert kinds == {False, True}  # exact repeats and image repeats both occur


def test_summands_are_centrally_symmetric():
    # and so is each column set: -(p + q) = (-p) + (-q)
    for box in _repeat_boxes():
        for _, summands in _blocks(box):
            for pq in summands:
                for summand in pq:
                    assert {(-x, -y) for x, y in summand} == summand.keys()
            columns = _distinct_columns(summands).keys()
            assert {(-x, -y) for x, y in columns} == columns


def test_column_set_and_its_images_are_its_orbit():
    # so storing a scored block's column set and its three images skips
    # every block whose column set is any sign or swap image of it; the
    # eight maps are written out here, each sign of x and y with and
    # without the swap
    signs_and_swaps = list(product((1, -1), (1, -1), (0, 1)))
    for box in _repeat_boxes():
        for _, summands in _blocks(box):
            columns = frozenset(_distinct_columns(summands))
            orbit = {frozenset((sx * c[swap], sy * c[1 - swap]) for c in columns)
                     for sx, sy, swap in signs_and_swaps}
            assert {columns, *(m(columns) for m in _IMAGES)} == orbit


def _pieces(first_half):
    """Both functionals' block maxima from the oracle's pieces: each end of
    x + y and x - y found by its own pass, and the coupled Uffink maximum
    over the full hull."""
    ends = oracle.extremes(first_half)
    (s, hs), (_, hs_neg) = ends[1, 1]
    (d, hd), (_, hd_neg) = ends[1, -1]
    h_s, h_d = min(hs, hs_neg), min(hd, hd_neg)
    first = min(_joined(h_s, h_d), _joined(h_d, h_s))
    found = [(s * s + d * d, first), oracle.coupled_max(first_half)]
    top = max(v for v, _ in found)
    return {"chsh_max": (s + d, first), "uffink_max": (top, min(abg for v, abg in found if v == top))}


def test_symmetric_block_pieces_equal_the_oracle():
    # one pass for both ends of x + y and x - y, and the coupled Uffink
    # maximum over half the hull, against two passes, the full hull and all
    # pairs of columns
    rng = random.Random(SEED + 8)
    names = VERTEX_NAMES + ("uniform3", "deterministic(1,2,0)")
    boxes = [builtin(n) for n in names] + seeded_boxes(rng, 40) + noisy_boxes()
    for box in boxes + [pool_entry(k) for k in range(8)]:
        for _, summands in _blocks(box):
            first_half = _distinct_columns(summands)
            assert _block_max(first_half, True) == _pieces(first_half) == _oracle_block(first_half)


def test_uffink_block_maxima_equal_all_pairs_of_columns():
    # every block, skipped by the search or not.  A square peaks at both
    # extremes of u . c, whose first halves compete for the first wiring;
    # even mixtures of two deterministic boxes often tell them apart.
    rng = random.Random(SEED + 8)
    halves = [Fraction(1, 2)] * 2
    pairs = [mix([random_deterministic(rng), random_deterministic(rng)], halves) for _ in range(16)]
    for box in pairs + seeded_boxes(rng, 8):
        for _, summands in _blocks(box):
            first_half = _distinct_columns(summands)
            assert _block_max(first_half, True) == _oracle_block(first_half)


def test_sign_and_swap_maps_keep_the_form_maxima():
    # the closed forms on the mapped columns equal the oracle's orbit
    # maxima on the columns themselves
    rng = random.Random(SEED + 7)
    for _ in range(200):
        c0, c1 = _random_columns(rng)
        expected = _oracle_maxima(c0, c1)
        for m in _IMAGES:
            (m0,), (m1,) = m({c0}), m({c1})
            assert _closed_forms(m0, m1) == expected
