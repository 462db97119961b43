import random
from fractions import Fraction

import pytest

import box_oracle
from box_oracle import all_relabelings2, from_entries, relabel
from nsboxes import (
    BIPARTITIONS,
    ArityError,
    Box2,
    GyniWeights,
    IcVerdict,
    InexactValueError,
    ParseError,
    apply_wiring,
    builtin,
    chsh,
    chsh_max,
    correlator_table,
    enumerate_wirings,
    gyni_bound,
    gyni_value,
    k_value,
    parse_gyni_weights,
    uffink,
    uffink_max,
)
from random_boxes import mixture3, pool_weights, random_ns_box2
from sos_identity import _sos_residual, _times, sos_identity_check

SEED = 48611

HALF = Fraction(1, 2)


def test_correlator_table_of_pr():
    assert correlator_table(builtin("pr")) == (1, 1, 1, -1)


def test_chsh_and_uffink_on_pr():
    pr = builtin("pr")
    assert chsh(pr) == 4
    assert uffink(pr) == 8


def test_chsh_fixed_form_is_not_the_orbit_max():
    # relabel PR so the plain functional drops but the orbit max stays at 4
    r = next(
        r for r in all_relabelings2()
        if chsh(relabel(builtin("pr"), r)) == -4
    )
    box = relabel(builtin("pr"), r)
    assert chsh(box) == -4
    assert chsh_max(box) == 4
    assert uffink_max(box) == 8


def oracle_orbit_maxima(box):
    """(max CHSH, max Uffink) over the 128 relabelled tables, each built and
    scored entry by entry in Fractions by the box oracle."""
    correlators = [
        box_oracle.correlator_table(Box2(box_oracle.relabel_table(box.table, r))) for r in all_relabelings2()
    ]
    return (
        max(e[0] + e[1] + e[2] - e[3] for e in correlators),
        max((e[0] + e[2]) ** 2 + (e[1] - e[3]) ** 2 for e in correlators),
    )


def test_orbit_max_matches_brute_force_on_random_boxes():
    # no-signalling mixtures, and unnormalized tables with negative entries
    # and denominators up to 10**6
    rng = random.Random(SEED)
    boxes = [random_ns_box2(rng) for _ in range(40)]
    boxes += [
        Box2(tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(16)))
        for _ in range(30)
    ]
    assert sum(1 for b in boxes if min(b.table) < 0) >= 10
    for box in boxes:
        assert (chsh_max(box), uffink_max(box)) == oracle_orbit_maxima(box)
        # the fixed forms, against the oracle's coefficient vectors
        e = box_oracle.correlator_table(box)
        assert chsh(box) == box_oracle.dot(box_oracle.CHSH, e)
        assert uffink(box) == sum(box_oracle.dot(b, e) ** 2 for b in box_oracle.UFFINK)


def test_uffink_max_bounds_the_square_of_chsh_max():
    # With u = E00 + E10 and v = E01 - E11, CHSH is u + v and Uffink is
    # u^2 + v^2 >= (u + v)^2 / 2 in every relabelling, so chsh_max^2 > 8
    # implies uffink_max > 4: the IC verdict needs only the Uffink test.
    rng = random.Random(SEED + 2)
    boxes = [random_ns_box2(rng) for _ in range(40)]
    sources = [builtin(name) for name in ("class3", "class4", "class44", "uniform3")]
    sources += [mixture3(rng, pool_weights(rng)) for _ in range(4)]
    for box in sources:
        boxes += [apply_wiring(box, rng.choice(enumerate_wirings(rng.choice(BIPARTITIONS)))) for _ in range(25)]
    assert any(chsh_max(box) ** 2 > 8 for box in boxes)
    for box in boxes:
        assert 2 * uffink_max(box) >= chsh_max(box) ** 2
    pr = builtin("pr")
    assert 2 * uffink_max(pr) == chsh_max(pr) ** 2


def test_orbit_max_invariant_under_relabeling():
    rng = random.Random(SEED + 1)
    rels = all_relabelings2()
    for _ in range(25):
        box = random_ns_box2(rng)
        r = rng.choice(rels)
        out = relabel(box, r)
        assert chsh_max(out) == chsh_max(box)
        assert uffink_max(out) == uffink_max(box)


def test_orbit_forms_pinned():
    chsh_forms, uffink_pairs = box_oracle.oracle_orbit_forms()
    assert chsh_forms == ((1, -1, -1, -1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))
    assert uffink_pairs == (
        ((0, 0, 1, -1), (1, 1, 0, 0)),
        ((0, 0, 1, 1), (1, -1, 0, 0)),
        ((0, 1, 0, -1), (1, 0, 1, 0)),
        ((0, 1, 0, 1), (1, 0, -1, 0)),
    )


@pytest.mark.parametrize("name", ["class3", "class44"])
@pytest.mark.parametrize(
    "functional", [chsh, uffink, chsh_max, uffink_max, correlator_table], ids=lambda f: f.__name__
)
def test_bipartite_functionals_reject_tripartite_boxes(functional, name):
    # each used to read the first 16 entries of the 64, or return all 16
    # block correlators
    with pytest.raises(ArityError):
        functional(builtin(name))


def test_uniform_box_scores_zero():
    u = builtin("uniform2")
    assert chsh_max(u) == 0
    assert uffink_max(u) == 0
    assert not IcVerdict.from_values(chsh_max(u), uffink_max(u)).violated


def test_deterministic_boxes_cap_at_classical_bounds():
    for ta in range(4):
        for tb in range(4):
            fn = lambda a, b, x, y: (
                Fraction(1)
                if a == (ta >> x) & 1 and b == (tb >> y) & 1
                else Fraction(0)
            )
            box = from_entries(Box2, fn)
            assert chsh_max(box) == 2
            assert uffink_max(box) == 4


def test_ic_witness_prefers_chsh():
    pr = builtin("pr")
    v = IcVerdict.from_values(chsh_max(pr), uffink_max(pr))
    assert v.violated and v.witness == "chsh" and v.value == 4


def test_ic_witness_uffink_branch():
    # E = (1, 1/3, 1, -1/3) lies in the window where only Uffink is
    # violated: CHSH 8/3 < 2*sqrt(2), and Uffink
    # (E00 + E10)^2 + (E01 - E11)^2 = 4 + 4/9 = 40/9 > 4.
    def fn(a, b, x, y):
        e = [Fraction(1), Fraction(1, 3), Fraction(1), Fraction(-1, 3)][2 * x + y]
        return (1 + (1 if a == b else -1) * e) / 4

    box = from_entries(Box2, fn)
    assert chsh_max(box) ** 2 < 8
    v = IcVerdict.from_values(chsh_max(box), uffink_max(box))
    assert v.violated and v.witness == "uffink" and v.value == Fraction(40, 9)


def _correlator_box(e):
    """The box P(ab|xy) = (1 + (-1)^(a+b) E_xy) / 4, whose correlator table is e."""
    return from_entries(Box2, lambda a, b, x, y: (1 + (-1) ** (a + b) * Fraction(e[2 * x + y])) / 4)


def test_every_closed_form_term_wins_somewhere():
    # Each term of chsh_max and uffink_max is the unique strict maximum on
    # one of these boxes, so a dropped or mistyped term changes a value
    # that the 128-relabelling oracle checks.  With a = b at x = 0 and
    # uniform outputs at x = 1, only the coupled Uffink term reaches 4;
    # E = (1, 1/3, 1, -1/3) is won by the first term of each, and the same
    # profile with y swapped by the second.
    third = Fraction(1, 3)
    boxes = [_correlator_box(e) for e in ((1, 1, 0, 0), (1, third, 1, -third), (third, 1, -third, 1))]
    winners = set()
    for box in boxes:
        x0, x1, y0, y1 = correlator_table(box)
        s0, d0, s1, d1 = x0 + y0, x0 - y0, x1 + y1, x1 - y1
        terms = {
            "chsh": [abs(s0) + abs(d1), abs(d0) + abs(s1)],
            "uffink": [s0 ** 2 + d1 ** 2, d0 ** 2 + s1 ** 2,
                       x0 ** 2 + y0 ** 2 + x1 ** 2 + y1 ** 2 + 2 * abs(x0 * x1 - y0 * y1)],
        }
        for name, values in terms.items():
            if values.count(max(values)) == 1:
                winners.add((name, values.index(max(values))))
        assert (chsh_max(box), uffink_max(box)) == oracle_orbit_maxima(box)
    assert winners == {("chsh", 0), ("chsh", 1), ("uffink", 0), ("uffink", 1), ("uffink", 2)}
    assert (chsh_max(boxes[0]), uffink_max(boxes[0])) == (2, 4)
    assert (chsh_max(boxes[1]), uffink_max(boxes[1])) == (Fraction(8, 3), Fraction(40, 9))


def test_k_value_of_class4():
    assert k_value(builtin("class4")) == -1


def test_k_value_nonnegative_on_deterministic_boxes():
    for t in range(64):
        ta, tb, tc = (t >> 4) & 3, (t >> 2) & 3, t & 3
        box = builtin(f"deterministic({ta},{tb},{tc})")
        assert k_value(box) >= 0


def test_k_value_of_uniform_box():
    # all correlators vanish, so only the constant offset survives
    assert k_value(builtin("uniform3")) == Fraction(15, 2)


def test_sos_identity():
    assert sos_identity_check()


def test_sos_identity_fails_in_the_commuting_order():
    # alpha beta in the first square holds only when A0 and A1 commute:
    # k - (squares) = (A1 - A0A1A0) B1C1 / 2 as operators.  Only X1 differs
    # from _sos_residual's, so the residual is X1'X1 (beta alpha) minus
    # X1'X1 (alpha beta) plus _sos_residual's.
    one, a, b, g, d = ("", "", ""), ("1", "", "0"), ("0", "1", ""), ("0", "0", "0"), ("", "0", "1")
    (gd,) = _times({g: 1}, {d: 1})
    residual = dict(_sos_residual())
    for sign, (x,) in ((1, _times({b: 1}, {a: 1})), (-1, _times({a: 1}, {b: 1}))):
        sq = {x: Fraction(1, 2), gd: Fraction(1, 2), one: -1}
        adjoint = {tuple(w[::-1] for w in m): v for m, v in sq.items()}
        for m, v in _times(adjoint, sq).items():
            residual[m] = residual.get(m, 0) + sign * v
    assert {m: v for m, v in residual.items() if v} == {
        ("1", "1", "1"): Fraction(1, 2),
        ("010", "1", "1"): Fraction(-1, 2),
    }


def test_gyni_uniform_even_parity_weights():
    w = GyniWeights.uniform_even_parity()
    assert gyni_bound(w) == Fraction(1, 4)
    assert sum(w.q) == 1
    assert w.q[0] == Fraction(1, 4) and w.q[1] == 0


def test_gyni_class4_meets_bound_exactly():
    w = GyniWeights.uniform_even_parity()
    assert gyni_value(builtin("class4"), w) == Fraction(1, 4)


def test_gyni_rejects_bipartite_box():
    with pytest.raises(ArityError):
        gyni_value(builtin("pr"), GyniWeights.uniform_even_parity())


def test_gyni_never_beats_bound_on_class4():
    rng = random.Random(SEED + 2)
    box = builtin("class4")
    for _ in range(200):
        raw = [Fraction(rng.randrange(0, 12)) for _ in range(8)]
        total = sum(raw)
        if total == 0:
            continue
        w = GyniWeights(tuple(v / total for v in raw))
        assert gyni_value(box, w) <= gyni_bound(w)


def test_gyni_bound_is_the_best_deterministic_value():
    # a local bound: no-signalling boxes can beat it (1/3 against 1/4 in
    # the canonical game), deterministic ones cannot, and one of them meets it
    boxes = [builtin(f"deterministic({t >> 4},{t >> 2 & 3},{t & 3})") for t in range(64)]
    rng = random.Random(SEED + 3)
    weights = [GyniWeights.uniform_even_parity()]
    while len(weights) < 100:
        raw = [Fraction(rng.randrange(0, 12)) for _ in range(8)]
        if any(raw):
            weights.append(GyniWeights(tuple(v / sum(raw) for v in raw)))
    for w in weights:
        assert gyni_bound(w) == max(gyni_value(box, w) for box in boxes)


def test_gyni_weights_validation():
    with pytest.raises(ArityError):
        GyniWeights(tuple([Fraction(1)] + [Fraction(0)] * 6))  # wrong length
    with pytest.raises(ArityError):
        GyniWeights(Fraction(1, 8) for _ in range(8))  # no length
    with pytest.raises(ValueError):
        GyniWeights(tuple([Fraction(2)] + [Fraction(0)] * 7))  # sum != 1
    with pytest.raises(ValueError):
        GyniWeights(
            tuple([Fraction(3, 2), Fraction(-1, 2)] + [Fraction(0)] * 6)
        )
    # a weights file with such weights is a ParseError
    with pytest.raises(ParseError, match="weights sum to 1/2, not 1"):
        parse_gyni_weights("0 0 0 = 1/2\n")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_gyni_weights("0 0 0 = 3/4\n0 1 1 = 1/2\n1 0 1 = -1/4\n")


def test_gyni_weights_reject_floats():
    with pytest.raises(InexactValueError):
        GyniWeights((0.125,) * 8)
    assert GyniWeights(("0.125",) * 8).q == (Fraction(1, 8),) * 8


def test_gyni_weights_text_round_trip():
    w = GyniWeights.uniform_even_parity()
    text = "".join(f"{x >> 2} {x >> 1 & 1} {x & 1} = {q}\n" for x, q in enumerate(w.q))
    assert parse_gyni_weights(text).q == w.q
    with pytest.raises(ParseError):
        parse_gyni_weights("0 0 = 1/2\n")
    with pytest.raises(ParseError):
        parse_gyni_weights("0 0 0 = 1/2\n0 0 0 = 1/2\n")


# The uniform even-parity game as a weight file: the triples 000, 011, 101, 110.
_EVEN_PARITY = "0 0 0 = 1/4\n0 1 1 = 1/4\n1 0 1 = 1/4\n1 1 0 = 1/4\n"


@pytest.mark.parametrize(
    "text",
    [
        _EVEN_PARITY,
        _EVEN_PARITY.replace(" = ", "="),
        _EVEN_PARITY.replace(" = ", "   =  "),
        "# the canonical game\n\n" + _EVEN_PARITY.replace("\n", "  # entry\n"),
        _EVEN_PARITY.replace("\n", "\r\n"),
        _EVEN_PARITY.replace("1/4", "0.25"),
        _EVEN_PARITY.replace("1/4", "+1/4"),
        "  0  1 1 = 1/4\n1 1 0 = 1/4\t\n1 0 1 =\t1/4\n0 0 0 = 1/4\n0 0 1 = 0\n",
    ],
    ids=["plain", "no-spaces", "wide-spaces", "comments", "crlf", "decimal", "plus", "reordered"],
)
def test_weight_file_respellings_parse_alike(text):
    assert parse_gyni_weights(text) == GyniWeights.uniform_even_parity()


@pytest.mark.parametrize(
    "text, lineno",
    [
        (_EVEN_PARITY.replace("0 1 1", "0\t1 1"), 2),
        (_EVEN_PARITY.replace("1 0 1", "1 01"), 3),
        (_EVEN_PARITY.replace("1 1 0", "1 1"), 4),
        (_EVEN_PARITY.replace("0 0 0 =", "0 0 0"), 1),
        (_EVEN_PARITY + "0 0 1 = 1/0\n", 5),
        (_EVEN_PARITY.replace("0 1 1 = 1/4", "0 1 1 = 1/4 = 1/4"), 2),
        (_EVEN_PARITY + "0 1 1 = 0\n", 5),
    ],
    ids=["tab-between-bits", "token-01", "two-bits", "no-equals", "zero-denominator",
         "second-equals", "duplicate-triple"],
)
def test_malformed_weight_files_name_their_line(text, lineno):
    with pytest.raises(ParseError, match=f"^line {lineno}: "):
        parse_gyni_weights(text)
