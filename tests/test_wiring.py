import random
import runpy
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import box_oracle
import wiring_oracle as oracle
from box_oracle import relabel
from random_boxes import mixture3, odd_lcm_mixtures, random_relabeling3
from nsboxes import (
    BIPARTITIONS,
    ArityError,
    Bipartition,
    Box2,
    ParseError,
    UnknownBuiltinError,
    Wiring,
    apply_wiring,
    builtin,
    chsh_max,
    correlator_table,
    dumps,
    enumerate_wirings,
    mix,
    search_max_all,
    uffink_max,
    validate,
)
from nsboxes import wiring
from nsboxes.boxes import integer_scaled

SEED = 77003

CLASS3_WIRING = "bp=B|AC order=C,A alpha=2 beta=4 gamma=170"
PARITY_WIRING = "bp=A|BC order=B,C alpha=2 beta=15 gamma=102"


def random_wiring(rng):
    return Wiring(
        rng.choice(BIPARTITIONS),
        rng.randrange(2),
        rng.randrange(4),
        rng.randrange(16),
        rng.randrange(256),
    )


def test_bipartition_names():
    assert [bp.name for bp in BIPARTITIONS] == ["A|BC", "B|AC", "C|AB"]
    assert Bipartition.from_name("B|AC") is BIPARTITIONS[1]
    with pytest.raises(ParseError):
        Bipartition.from_name("A|CB")


def test_bipartition_rejects_malformed_fields():
    assert [Bipartition(bp.solo, bp.pair) for bp in BIPARTITIONS] == list(BIPARTITIONS)
    for solo, pair in (
        (0, (1, 1)), (0, (2, 1)), (3, (1, 2)), (0, (1,)), (0, (1, 2, 0)), (1, (1, 2)),
        # equal to 0, 1, 2 but not ints: .name would index with them
        (0.0, (1, 2)), (True, (0, 2)), (2, (0, 1.0)),
        # a pair that is not a tuple: 5 raised a bare TypeError on unpacking,
        # and a list was accepted into an immutable value it cannot hash
        (0, 5), (0, [1, 2]), (0, None),
    ):
        with pytest.raises(ParseError):
            Bipartition(solo, pair)


NAME_PARSERS = {
    "Bipartition.from_name": (Bipartition.from_name, ParseError),
    "Wiring.parse": (Wiring.parse, ParseError),
    "builtin": (builtin, UnknownBuiltinError),
}


@pytest.mark.parametrize("value", [5, None, b"A|BC"], ids=repr)
@pytest.mark.parametrize("parser", NAME_PARSERS)
def test_names_that_are_not_strings_raise_typed_errors(parser, value):
    # each used to raise a bare AttributeError or TypeError from str methods
    parse, error = NAME_PARSERS[parser]
    with pytest.raises(error):
        parse(value)


def test_wiring_rejects_a_bipartition_that_is_not_one():
    # a name used to be accepted, and encode() and apply_wiring then raised a
    # bare AttributeError
    for bp in ("A|BC", (0, (1, 2)), None):
        with pytest.raises(ParseError):
            Wiring(bp, 0, 0, 0, 0)


def test_wiring_rejects_fields_that_are_not_ints():
    # floats and bools in range used to be kept, and encode() printed them
    bp = BIPARTITIONS[0]
    for fields in (
        (0, 1.5, 0, 0), (0, 0, 2.0, 0), (0, 0, 0, True),
        (True, 0, 0, 0), (0.0, 0, 0, 0), (False, 0, 0, 0),
    ):
        with pytest.raises(ParseError):
            Wiring(bp, *fields)


def test_wiring_entry_points_reject_bipartite_boxes():
    with pytest.raises(ArityError):
        apply_wiring(builtin("pr"), Wiring.parse(CLASS3_WIRING))
    with pytest.raises(ArityError):
        search_max_all(builtin("pr"))


def test_wiring_encode_parse_round_trip():
    rng = random.Random(SEED)
    for _ in range(50):
        w = random_wiring(rng)
        assert Wiring.parse(w.encode()) == w


def test_wiring_parse_rejects_malformed():
    for bad in (
        "bp=A|BC order=B,C alpha=2 beta=15",
        "bp=A|BC order=B,A alpha=2 beta=15 gamma=102",
        "bp=A|BC order=B,C alpha=4 beta=15 gamma=102",
        "bp=A|BC order=B,C alpha=2 beta=16 gamma=102",
        "bp=A|BC order=B,C alpha=2 beta=15 gamma=256",
        "bp=A|BC order=B,C alpha=x beta=15 gamma=102",
        "bp=A|BC bp=A|BC order=B,C alpha=2 beta=15 gamma=102",
        "bp=B|AC order=C,A alpha=2 beta=4 gamma=170 gamme=3 foo=bar",
        # int() accepts these; only ASCII decimal digits are integers here.
        "bp=A|BC order=B,C alpha=0_2 beta=15 gamma=1_0_2",
        "bp=A|BC order=B,C alpha=\u0662 beta=15 gamma=102",
        "bp=A|BC order=B,C alpha=2 beta=+15 gamma=102",
        "bp=A|BC order=B,C alpha=2 beta=15 gamma=\uff11\uff10\uff12",
        # one party letter per side of the order field
        "bp=B|AC order=,C alpha=2 beta=15 gamma=102",
        "bp=B|AC order=AB,C alpha=2 beta=15 gamma=102",
        "bp=A|BC order=BC,C alpha=2 beta=15 gamma=102",
    ):
        with pytest.raises(ParseError):
            Wiring.parse(bad)
    for bad, message in (
        ("bp=A|BC order=B,C alpha=2 beta=15 gamma", "bad wiring token"),
        ("bp=A|BC order=B alpha=2 beta=15 gamma=102", "bad order field"),
        ("bp=A|BC order=B,D alpha=2 beta=15 gamma=102", "bad order field"),
    ):
        with pytest.raises(ParseError, match=message):
            Wiring.parse(bad)


def test_enumeration_counts():
    for bp in BIPARTITIONS:
        wirings = enumerate_wirings(bp)
        assert len(wirings) == 2 * 4 * 16 * 256
        type_i = [w for w in wirings if oracle.is_type_i(w)]
        assert len(type_i) == 2 * 4 * 4 * 256
        assert len(wirings) - len(type_i) == 32768 - 8192


def test_enumeration_is_the_canonical_product():
    for bp in BIPARTITIONS:
        assert list(enumerate_wirings(bp)) == [
            Wiring(bp, *abg) for abg in product(range(2), range(4), range(16), range(256))
        ]


def test_enumeration_is_a_read_only_sequence():
    seq = enumerate_wirings(BIPARTITIONS[1])
    assert len(seq) == 32768
    assert seq[-1] == Wiring(BIPARTITIONS[1], 1, 3, 15, 255)
    assert seq[-32768] == seq[0] == Wiring(BIPARTITIONS[1], 0, 0, 0, 0)
    assert seq[4097:4100] == [Wiring(BIPARTITIONS[1], 0, 1, 0, g) for g in (1, 2, 3)]
    assert seq[-2::-16384] == [Wiring(BIPARTITIONS[1], o, 3, 15, 254) for o in (1, 0)]
    for k in (32768, -32769):
        with pytest.raises(IndexError):
            seq[k]
    for k, (ordering, alpha, beta, gamma) in ((0, (0, 0, 0, 0)), (102, (0, 0, 0, 102)),
                                               (18005, (1, 0, 6, 85)),
                                               (32767, (1, 3, 15, 255))):
        w = Wiring(BIPARTITIONS[1], ordering, alpha, beta, gamma)
        assert k == ordering << 14 | alpha << 12 | beta << 8 | gamma
        assert seq.index(w) == k and w in seq
    assert Wiring(BIPARTITIONS[0], 0, 0, 0, 0) not in seq[:4]
    assert not hasattr(seq, "append") and not hasattr(seq, "__setitem__")
    with pytest.raises(ParseError):
        enumerate_wirings("A|BC")


def test_enumeration_builds_each_wiring_on_read(monkeypatch):
    built = []

    class Counted(Wiring):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(wiring, "Wiring", Counted)
    seqs = [enumerate_wirings(bp) for bp in BIPARTITIONS]
    assert built == []
    assert seqs[2][5].encode() == "bp=C|AB order=A,B alpha=0 beta=0 gamma=5" and len(built) == 1
    assert seqs[0][-1] is built[-1] and len(built) == 2
    assert len(seqs[1][10:13]) == 3 and len(built) == 5
    assert next(iter(seqs[1])) is built[-1] and len(built) == 6
    assert all(type(w) is Counted for w in built)


def test_type_i_detection():
    # beta = 12 is s' regardless of w1; beta = 4 reads w1
    w1 = Wiring.parse("bp=A|BC order=B,C alpha=2 beta=12 gamma=102")
    w2 = Wiring.parse(CLASS3_WIRING)
    assert oracle.is_type_i(w1)
    assert not oracle.is_type_i(w2)


def test_class3_effective_correlators():
    eff = apply_wiring(builtin("class3"), Wiring.parse(CLASS3_WIRING))
    assert correlator_table(eff) == (1, 1, 1, 0)
    assert chsh_max(eff) == 3
    assert uffink_max(eff) == 5


def test_parity_class_wires_to_pr():
    eff = apply_wiring(builtin("class44"), Wiring.parse(PARITY_WIRING))
    assert eff.table == builtin("pr").table


def test_effective_boxes_validate():
    rng = random.Random(SEED + 1)
    for name in ("class3", "class4", "class44", "uniform3"):
        box = builtin(name)
        for _ in range(40):
            w = random_wiring(rng)
            report = validate(apply_wiring(box, w))
            assert report.is_valid, (name, w.encode(), report.lines())


def seeded_mixture(rng):
    """class3 under a random relabelling mixed with a deterministic box."""
    r = random_relabeling3(rng)
    det = builtin("deterministic(%d,%d,%d)" % tuple(rng.randrange(4) for _ in range(3)))
    weight = Fraction(rng.randrange(1, 10), 10)
    return mix([relabel(builtin("class3"), r), det], [weight, 1 - weight])


def test_half_table_kernel_matches_oracle():
    rng = random.Random(SEED + 4)
    boxes = [builtin(n) for n in ("class3", "class4", "class44", "uniform3")]
    for box in boxes + [seeded_mixture(rng)]:
        for _ in range(60):
            w = random_wiring(rng)
            assert apply_wiring(box, w).table == oracle.wire(box.table, w), w.encode()


def test_integer_kernel_matches_oracle_on_odd_scales():
    # apply_wiring sums the integer view and divides by its scale once; on
    # scales with odd factors (7, 11, 77 and a sweep-mixed pool mixture's)
    # the result and its file text must be the oracle's exact sums.
    rng = random.Random(SEED + 5)
    for box in odd_lcm_mixtures(rng):
        scale = box.scaled[0]
        assert scale & (scale - 1), f"scale {scale} is a power of 2"
        for _ in range(40):
            w = random_wiring(rng)
            eff = apply_wiring(box, w)
            expected = oracle.wire(box.table, w)
            assert eff.table == expected, w.encode()
            assert dumps(eff) == box_oracle.dumps(Box2(expected)), w.encode()


def test_effective_box_builds_its_table_on_read():
    # apply_wiring builds the box it returns from its integer view alone,
    # reduced to the one integer_scaled gives on the effective table, zero
    # entries included; the table is built on first read.
    rng = random.Random(SEED + 6)
    boxes = [builtin(n) for n in ("class3", "class4", "class44", "uniform3")]
    boxes += [builtin("deterministic(%d,%d,%d)" % t) for t in ((0, 0, 0), (1, 2, 3), (3, 1, 2))]
    boxes += [seeded_mixture(rng) for _ in range(3)] + odd_lcm_mixtures(rng)
    wirings = [Wiring.parse(PARITY_WIRING), Wiring.parse(CLASS3_WIRING)]
    wirings += [random_wiring(rng) for _ in range(30)]
    zeros = 0
    for box in boxes:
        for w in wirings:
            eff = apply_wiring(box, w)
            assert "table" not in vars(eff), w.encode()
            assert eff.scaled == integer_scaled(eff.table), w.encode()
            assert vars(eff)["table"] is eff.table, w.encode()
            zeros += 0 in eff.scaled[1]
    assert zeros >= 100


def test_fixed_input_path_agrees_on_type_i():
    rng = random.Random(SEED + 2)
    for name in ("class3", "class4", "class44"):
        box = builtin(name)
        wirings = [w for w in enumerate_wirings(rng.choice(BIPARTITIONS)) if oracle.is_type_i(w)]
        for w in rng.sample(wirings, 60):
            assert oracle.wire_fixed_inputs(box.table, w) == apply_wiring(box, w).table


def test_derivation_provenance_sums_to_result():
    box = builtin("class3")
    w = Wiring.parse(CLASS3_WIRING)
    result = apply_wiring(box, w).table
    for i, js in enumerate(oracle.sources(w)):
        assert sum((box.table[j] for j in js), Fraction(0)) == result[i]


def test_wiring_of_uniform_keeps_solo_marginal_uniform():
    box = builtin("uniform3")
    rng = random.Random(SEED + 3)
    for _ in range(20):
        w = random_wiring(rng)
        eff = apply_wiring(box, w)
        # gamma may bias the pair output, but the solo side stays uniform
        for xp in (0, 1):
            for yp in (0, 1):
                for ap in (0, 1):
                    row = eff.prob(ap, 0, xp, yp) + eff.prob(ap, 1, xp, yp)
                    assert row == Fraction(1, 2)
    # a balanced gamma keeps the whole table flat
    w = Wiring(BIPARTITIONS[0], 0, 2, 12, 0b10101010)
    eff = apply_wiring(box, w)
    assert set(eff.table) == {Fraction(1, 4)}


def test_search_on_deterministic_box_stays_classical():
    res = search_max_all(builtin("deterministic(1,2,0)"))
    assert res["chsh_max"][1] == 2
    assert res["uffink_max"][1] == 4


def test_search_single_functional_matches_joint_sweep():
    box = builtin("class44")
    w, v = search_max_all(box, ("chsh_max",))["chsh_max"]
    joint = search_max_all(box)
    assert v == 4
    assert joint["chsh_max"] == (w, v)
    assert joint["uffink_max"][1] == 8


def test_search_rejects_unknown_functional():
    with pytest.raises(ParseError):
        search_max_all(builtin("class44"), ("chsh",))


def test_search_tie_break_is_first_in_enumeration_order():
    box = builtin("uniform3")
    w, v = search_max_all(box, ("chsh_max",))["chsh_max"]
    # everything ties at zero, so the very first wiring must win
    assert v == 0
    assert w == Wiring(BIPARTITIONS[0], 0, 0, 0, 0)


# Recorded by an exhaustive per-wiring sweep (perfbench/reference.json).
REFERENCE_SEARCH = {
    "class3": {
        "chsh_max": (4, "bp=A|BC order=C,B alpha=3 beta=6 gamma=85"),
        "uffink_max": (8, "bp=A|BC order=C,B alpha=3 beta=6 gamma=85"),
    },
    "class4": {
        "chsh_max": (2, "bp=A|BC order=B,C alpha=0 beta=0 gamma=20"),
        "uffink_max": (4, "bp=A|BC order=B,C alpha=0 beta=0 gamma=85"),
    },
    "class44": {
        "chsh_max": (4, "bp=A|BC order=B,C alpha=1 beta=3 gamma=102"),
        "uffink_max": (8, "bp=A|BC order=B,C alpha=1 beta=3 gamma=102"),
    },
}


def test_search_matches_exhaustive_reference():
    for name, expected in REFERENCE_SEARCH.items():
        results = search_max_all(builtin(name))
        assert {
            f: (value, w.encode()) for f, (w, value) in results.items()
        } == expected, name


def test_distinct_effective_boxes_covers_search():
    box = builtin("class44")
    seen = oracle.distinct_effective_boxes(box)
    best = max(chsh_max(Box2(t)) for t in seen)
    assert best == 4


def test_distinct_effective_boxes_match_oracle():
    rng = random.Random(SEED + 5)
    for name, count in (("class3", 361), ("class4", 225), ("class44", 361)):
        box = builtin(name)
        seen = oracle.distinct_effective_boxes(box)
        assert len(seen) == count
        for table, w in seen.items():
            assert oracle.wire(box.table, w) == table
        # no wiring earlier in canonical order gives a stored table
        for _ in range(300):
            w = random_wiring(rng)
            first = seen[oracle.wire(box.table, w)]
            assert oracle.canonical_key(first) <= oracle.canonical_key(w)


# The benchmark's evaluator, run from its source and written from the
# documented definitions: it imports nothing from nsboxes, where
# wiring_oracle shares the library's pack and branch kernel.
NAIVE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "naive.py"))


def test_apply_wiring_matches_the_benchmark_evaluator():
    rng = random.Random(SEED + 5)
    for _ in range(150):
        raw = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        box = mixture3(rng, [Fraction(r, sum(raw)) for r in raw])
        spec = (rng.randrange(3), rng.randrange(2), rng.randrange(4), rng.randrange(16), rng.randrange(256))
        w = Wiring(BIPARTITIONS[spec[0]], *spec[1:])
        assert w.encode() == NAIVE["encode"](spec)
        assert apply_wiring(box, w).table == NAIVE["wire"](box.table, spec), w.encode()
