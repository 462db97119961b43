import random
from fractions import Fraction
from itertools import product

import pytest

import box_oracle
from box_oracle import SignallingError, all_relabelings2, from_entries, marginal
from nsboxes import (
    BIPARTITIONS,
    ArityError,
    Box2,
    Box3,
    BoxError,
    GyniWeights,
    InexactValueError,
    IcVerdict,
    InvalidBoxError,
    LPError,
    ParseError,
    Relabeling,
    RelabelingError,
    UnknownBuiltinError,
    apply_wiring,
    builtin,
    correlator,
    dumps,
    enumerate_wirings,
    gyni_bound,
    gyni_value,
    is_local,
    is_tobl,
    k_value,
    load,
    loads,
    local_problem,
    lp_feasible,
    mix,
    require_valid,
    search_max_all,
    tobl_problem,
    validate,
)
from nsboxes import boxes
from nsboxes.bell import parse_gyni_weights
from nsboxes.boxes import pack
from random_boxes import mixture3, odd_lcm_mixtures, pool_weights, random_ns_box2

SEED = 20240917

BUILTIN_NAMES = ["class3", "class4", "class44", "pr", "uniform3", "uniform2"] + [
    f"deterministic({ta},{tb},{tc})" for ta, tb, tc in product(range(4), repeat=3)
]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
EIGHTH = Fraction(1, 8)


def test_flat_index_layout():
    assert pack((0, 0, 0), (0, 0, 0)) == 0
    assert pack((0, 0, 1), (0, 0, 0)) == 1
    assert pack((1, 1, 1), (1, 1, 1)) == 63
    assert pack((0, 0, 0), (1, 0, 0)) == 32
    assert pack((0, 0), (0, 0)) == 0
    assert pack((1, 1), (1, 1)) == 15
    assert pack((0, 1), (1, 0)) == 9
    # prob reads the entry at the documented flat index
    box3, box2 = Box3(tuple(range(64))), Box2(tuple(range(16)))
    for a, b, c, x, y, z in product((0, 1), repeat=6):
        assert box3.prob(a, b, c, x, y, z) == 32 * x + 16 * y + 8 * z + 4 * a + 2 * b + c
    for a, b, x, y in product((0, 1), repeat=4):
        assert box2.prob(a, b, x, y) == 8 * x + 4 * y + 2 * a + b


def test_public_names_resolve():
    import nsboxes
    from nsboxes import boxes, lp, membership

    assert len(set(nsboxes.__all__)) == len(nsboxes.__all__)
    for name in nsboxes.__all__:
        assert hasattr(nsboxes, name), name
    # removed second spellings: of pack, of an LP certificate, of
    # Bipartition.actors, of dict() and of boxes.ONE
    for owner, names in (
        (nsboxes, ("ToblModel", "verify_model", "index2", "index3")),
        (boxes, ("index2", "index3")),
        (membership, ("ToblModel", "verify_model")),
        (nsboxes.Wiring, ("actors",)),
        (nsboxes.LPCertificate, ("point_dict", "farkas_dict")),
        (lp, ("ONE",)),
    ):
        for name in names:
            assert not hasattr(owner, name), name
            assert name not in nsboxes.__all__, name


def test_builtin_tables_are_normalized_and_nonsignalling():
    names = [
        "class3",
        "class4",
        "class44",
        "pr",
        "uniform3",
        "uniform2",
        "deterministic(0,0,0)",
        "deterministic(3,1,2)",
    ]
    for name in names:
        report = validate(builtin(name))
        assert report.is_valid, (name, report.lines())


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltinError):
        builtin("class5")
    # one ASCII digit 0..3 per truth table: no other digit, no padding, no sign
    for name in (
        "deterministic(4,0,0)",
        "deterministic(\u0663,0,0)",
        "deterministic(0003,0,0)",
        "deterministic(00,0,0)",
        "deterministic(+1,0,0)",
        "deterministic(1,0)",
        "deterministic(1,0,0)x",
    ):
        with pytest.raises(UnknownBuiltinError):
            builtin(name)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_equals_oracle(name):
    box = builtin(name)
    oracle = box_oracle.builtin(name)
    assert type(box) is type(oracle)
    assert box.table == oracle.table


@pytest.mark.parametrize("name", [*boxes._BUILTINS, "deterministic(1,2,0)"])
def test_builtin_is_one_shared_box_per_name(name):
    box = builtin(name)
    assert builtin(name) is box
    assert builtin(f" {name}\t") is box


def test_shared_builtins_equal_freshly_built_tables():
    assert builtin(" class3 ") is builtin("class3")
    for name, (cls, relation) in boxes._BUILTINS.items():
        assert boxes._uniform_over(cls, relation) == builtin(name)


def test_unknown_builtin_raises_on_every_call_and_is_never_stored():
    cached = boxes._builtin.cache_info().currsize
    for name in ("class5", "deterministic(4,0,0)", " ", 3, None, b"class3"):
        for _ in range(3):
            with pytest.raises(UnknownBuiltinError):
                builtin(name)
    assert boxes._builtin.cache_info().currsize == cached


def _count_validations(monkeypatch):
    """A counter of the validator's runs, from here on."""
    runs = []
    checks = boxes._validate

    def counted(box):
        runs.append(box)
        return checks(box)

    monkeypatch.setattr(boxes, "_validate", counted)
    return runs


def test_each_box_is_validated_once_across_the_library(monkeypatch):
    runs = _count_validations(monkeypatch)
    box = Box3(builtin("class4").table)  # a new object, not yet validated
    for w in enumerate_wirings(BIPARTITIONS[0])[:10]:
        apply_wiring(box, w)
    search_max_all(box)
    assert all(is_tobl(box, bp).feasible for bp in BIPARTITIONS)
    is_local(box)
    assert len(runs) == 1 and runs[0] is box
    assert validate(box) is box.report


def test_an_invalid_box_is_reported_once(monkeypatch):
    runs = _count_validations(monkeypatch)
    table = list(builtin("uniform3").table)
    table[0] += Fraction(1, 16)
    box = Box3(tuple(table))
    reports = []
    for _ in range(4):
        with pytest.raises(InvalidBoxError) as exc:
            require_valid(box)
        reports.append(exc.value.report)
    assert all(r is reports[0] for r in reports)
    assert reports[0].normalization_failures
    assert len(runs) == 1 and runs[0] is box


def test_class3_defining_entries():
    box = builtin("class3")
    # x = 0 sector: perfect a = b correlation, c uniform and independent.
    assert box.prob(0, 0, 0, 0, 0, 0) == QUARTER
    assert box.prob(0, 0, 1, 0, 0, 0) == QUARTER
    assert box.prob(0, 1, 0, 0, 0, 0) == 0
    # x = 1, z = 0: perfect a = c correlation, b uniform.
    assert box.prob(0, 0, 0, 1, 0, 0) == QUARTER
    assert box.prob(0, 1, 0, 1, 0, 0) == QUARTER
    assert box.prob(1, 0, 0, 1, 0, 0) == 0
    # x = 1, z = 1: three-party parity, sign set by y.
    assert box.prob(0, 0, 0, 1, 0, 1) == QUARTER
    assert box.prob(0, 1, 1, 1, 0, 1) == QUARTER
    assert box.prob(0, 0, 1, 1, 0, 1) == 0
    assert box.prob(0, 0, 0, 1, 1, 1) == 0
    assert box.prob(0, 0, 1, 1, 1, 1) == EIGHTH * 2


def test_class4_entries_never_exceed_one_quarter():
    box = builtin("class4")
    assert set(box.table) == {Fraction(0), QUARTER}
    for v in box.table:
        assert v <= QUARTER


def test_class4_satisfies_its_parity_constraints():
    box = builtin("class4")
    # a0 + b1 = 0 reads: at x=0, y=1 the outputs a and b agree.
    for z in (0, 1):
        for c in (0, 1):
            assert box.prob(0, 1, c, 0, 1, z) == 0
            assert box.prob(1, 0, c, 0, 1, z) == 0
    # a0 + b0 + c0 = 0: even output parity at (0, 0, 0).
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                v = box.prob(a, b, c, 0, 0, 0)
                assert (v == 0) == ((a + b + c) % 2 == 1)
    # a1 + b1 + c1 = 1: odd output parity at (1, 1, 1).
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                v = box.prob(a, b, c, 1, 1, 1)
                assert (v == 0) == ((a + b + c) % 2 == 0)


def test_class44_parity_relation():
    box = builtin("class44")
    for i in range(64):
        a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
        x, y, z = (i >> 5) & 1, (i >> 4) & 1, (i >> 3) & 1
        if (a + b + c) % 2 == (x * y * z):
            assert box.table[i] == QUARTER
        else:
            assert box.table[i] == 0


def test_pr_box_correlators():
    pr = builtin("pr")
    for x in (0, 1):
        for y in (0, 1):
            expected = Fraction(-1) if x == y == 1 else Fraction(1)
            assert correlator(pr, (0, 1), (x, y)) == expected


def test_correlator_rejects_parties_outside_the_box():
    # -1 used to wrap round to party B, 2 to raise a bare IndexError
    for parties in ((-1,), (2,), (0, 3)):
        with pytest.raises(ArityError):
            correlator(builtin("pr"), parties, (0,) * len(parties))


def test_correlator_rejects_inputs_that_are_not_bits_and_repeated_parties():
    # these used to return 0, 0 and 1 on class44
    box = builtin("class44")
    for parties, inputs in (((0,), (2,)), ((0,), (-1,)), ((0,), (1.0,)), ((0,), (True,)),
                            ((0, 0), (0, 1)), ((1, 2, 1), (0, 0, 0)), ((0, 1), (0,))):
        with pytest.raises(ArityError):
            correlator(box, parties, inputs)


def test_deterministic_builtin_follows_truth_tables():
    box = builtin("deterministic(2,1,3)")
    # party A: tt 2 -> a = x; party B: tt 1 -> b = 1 - y; party C: tt 3 -> c = 1.
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                assert box.prob(x, 1 - y, 1, x, y, z) == 1


def test_validate_flags_negative_entry():
    table = list(builtin("uniform2").table)
    table[0] += 1
    table[1] -= 1
    report = validate(Box2(tuple(table)))
    assert not report.is_valid
    assert report.negative_entries
    assert any("negative" in line for line in report.lines())


def test_validate_flags_normalization():
    table = list(builtin("uniform3").table)
    table[0] += Fraction(1, 16)
    report = validate(Box3(tuple(table)))
    assert not report.is_valid
    assert report.normalization_failures


def test_validate_flags_signalling():
    # b copies x: perfectly normalized but signalling from A to B.
    def fn(a, b, x, y):
        return QUARTER * 2 if b == x else Fraction(0)

    report = validate(from_entries(Box2, fn))
    assert not report.is_valid
    assert report.signalling_failures
    parties = {entry[0] for entry in report.signalling_failures}
    assert parties == {"A"}


def test_loads_rejects_garbage():
    with pytest.raises(ParseError):
        loads("box3\n0 0 0 | 0 0 = 1/8\n")
    with pytest.raises(ParseError):
        loads("box2\n0 0 | 0 0 = 1/4\n0 0 | 0 0 = 1/4\n")
    with pytest.raises(ParseError):
        loads("not-a-box\n")
    with pytest.raises(InvalidBoxError):
        loads("box2\n0 0 | 0 0 = 1\n")  # other inputs unnormalized
    with pytest.raises(ParseError):
        loads("box2\n01 0 | 0 0 = 1/2\n", check=False)  # bits are 0 or 1


@pytest.mark.parametrize("value", ["1e-10000000", "1e-5000", "1E+4300", "0.5e-4300", "1_0e-4_300",
                                   "0." + "0" * 4299 + "1"])
def test_values_whose_ints_pass_4300_digits_are_refused(value):
    # Fraction() would take seconds on 1e-10000000, a 33-million-bit
    # denominator, and str() cannot print the 5001-digit one of 1e-5000.
    with pytest.raises(ParseError, match=r"^line 3: value .* has more than 4300 digits"):
        loads(f"box2\n0 0 | 0 0 = 1/2\n1 1 | 0 0 = {value}\n", check=False)
    with pytest.raises(ParseError, match=r"^line 1: value .* has more than 4300 digits"):
        parse_gyni_weights(f"0 0 0 = {value}\n")


def test_values_with_exponents_up_to_4300_digits_still_parse():
    assert loads("box2\n0 0 | 0 0 = 1e-10\n", check=False).table[0] == Fraction(1, 10**10)
    # the largest ints still read: 10**4299 has 4300 digits
    for value, expected in (("1e-4299", Fraction(1, 10**4299)), ("1e4299", Fraction(10**4299)),
                            ("0.5e-4298", Fraction(1, 2 * 10**4298)), ("1e-0_10", Fraction(1, 10**10)),
                            ("0." + "0" * 4298 + "1", Fraction(1, 10**4299))):
        box = loads(f"box2\n0 0 | 0 0 = {value}\n", check=False)
        assert box.table[0] == expected, value
        assert loads(dumps(box), check=False) == box, value
    assert parse_gyni_weights("0 0 0 = 2.5e-1\n0 1 1 = 25e-2\n1 0 1 = 0.025e1\n1 1 0 = 1/4\n").q[3] == Fraction(1, 4)


def _parsed(parse, text, check):
    """(type, table) of the parsed box, or (exception type, message)."""
    try:
        box = parse(text, check=check)
    except Exception as exc:
        return type(exc), str(exc)
    return type(box), box.table


def _respelled(box):
    """dumps(box) with each entry line spelled one of nine other ways the
    format allows, and comments, blank lines and CRLF endings between."""
    spellings = (
        lambda o, i, v: f"{o}|{i}={v}",
        lambda o, i, v: f"  {o}   |   {i}   =   {v}  ",
        lambda o, i, v: f"{o.replace(' ', '   ')} | {i}= {v} # trailing comment",
        lambda o, i, v: f"{o} | {i} = {v} #",
        lambda o, i, v: f"{o} | {i} = \t{v}\t",
        lambda o, i, v: f"{o} | {i} = +{v}",
        lambda o, i, v: f"{o} | {i} = {v.numerator * 10}/{v.denominator * 10}",
        lambda o, i, v: f"{o} | {i} = {v.numerator}_0/{v.denominator}0",
        lambda o, i, v: f"{o} | {i} = {float(v)!r}" if v.denominator in (1, 2, 4, 8) else f"{o} | {i} = {v}",
    )
    head, *lines = dumps(box).splitlines()
    out = ["# a comment before the header", "", f"{head}  # the header"]
    for k, line in enumerate(lines):
        bits, value = line.split(" = ")
        o, i = bits.split(" | ")
        out.append(spellings[k % len(spellings)](o, i, Fraction(value)))
        if k % 4 == 0:
            out += ["", "   # comment only", "#"]
    return "\r\n".join(out) + "\n"


def test_loads_matches_line_parser_oracle():
    rng = random.Random(SEED + 9)
    boxes = [builtin(n) for n in ("class3", "class4", "class44", "pr", "uniform3", "uniform2")]
    boxes += odd_lcm_mixtures(rng) + [random_ns_box2(rng) for _ in range(4)]
    boxes += [mixture3(rng, pool_weights(rng)) for _ in range(4)]
    texts = [dumps(box) for box in boxes] + [_respelled(box) for box in boxes]
    texts += [
        "box2\n0 0 | 0 0 = 1/4\n0 1 | 0 0 = 0.25\n1 0 | 0 0 = +1/4\n1 1 | 0 0 = 1_0/40\n",
        "box2\n0 0 | 0 0 =  1/4 \n0 1 | 0 0 = \u0661/\u0664\n",  # Arabic-Indic digits
        "box2\n\n#\n0 0|0 0=1\n",
    ]
    malformed = [
        "box3\n01 0 | 0 0 0 = 1/4\n",
        "box3\n0 0 | 0 0 = 1/4\n",
        "box2\n0 0 0 0 = 1/4\n",
        "box2\n0 0 | 0 0 1/4\n",
        "box2\n0 0 | 0 0 = 1/0\n",
        "box2\n0 0 | 0 0 = abc\n",
        "box2\n0 0 | 0 0 = 1/4 = 1/4\n",
        "box2\n0 0 | 0 0 =\n",
        "box2\n0 0 | 0 0 = 1/4\n0  0 | 0 0 = 1/4\n",
        "box2\n0\t0 | 0 0 = 1/4\n",
        "box2\n0 2 | 0 0 = 1/4\n",
        "box2\n| 0 0 = 1/4\n",
        "box2\nbox2\n",
        "",
        "# only a comment\n\n",
        "box4\n0 0 | 0 0 = 1\n",
        "box2\n0 0 | 0 0 = -1/4\n",
        "box2\n0 0 | 0 0 = 1\n",
    ]
    for text in texts + malformed:
        for check in (True, False):
            assert _parsed(loads, text, check) == _parsed(box_oracle.loads, text, check), text
    for box in boxes:
        assert loads(_respelled(box)) == box
    for text in malformed:
        assert _parsed(loads, text, True)[0] in (ParseError, InvalidBoxError), text


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: loads(5), ParseError),
        (lambda: loads(b"box2\n"), ParseError),
        (lambda: parse_gyni_weights(5), ParseError),
        (lambda: Box3(5), ArityError),
        (lambda: Box3(x for x in [1] * 64), ArityError),
        (lambda: Box3((Fraction(1, 64),) * 63), ArityError),
        (lambda: Box2(None), ArityError),
        (lambda: correlator(builtin("pr"), 5, (0,)), ArityError),
        (lambda: correlator(builtin("pr"), (0,), 0), ArityError),
        (lambda: correlator(5, (0,), (0,)), ArityError),
        (lambda: mix(builtin("pr"), [1]), ArityError),
        (lambda: mix([], []), ArityError),
        (lambda: mix([5], [1]), ArityError),
        (lambda: mix([builtin("class44"), builtin("pr")], [HALF, HALF]), ArityError),
        (lambda: apply_wiring(builtin("class44"), "bp=A|BC order=B,C alpha=2 beta=15 gamma=102"),
         ParseError),
        (lambda: gyni_value(builtin("class4"), 5), ParseError),
        (lambda: gyni_bound(5), ParseError),
        (lambda: validate(5), ArityError),
        (lambda: dumps(5), ArityError),
        (lambda: local_problem(5), ArityError),
        (lambda: tobl_problem(5, BIPARTITIONS[0]), ArityError),
        (lambda: lp_feasible(5), LPError),
        (lambda: k_value(builtin("pr")), ArityError),
        (lambda: IcVerdict.from_values(1.5, 2), InexactValueError),
        (lambda: search_max_all(builtin("class4"), (f for f in ["chsh_max"])), ParseError),
        (lambda: search_max_all(builtin("class4"), "chsh_max"), ParseError),
        (lambda: search_max_all(builtin("class4"), None), ParseError),
        (lambda: search_max_all(builtin("class4"), 5), ParseError),
    ],
    ids=["loads-int", "loads-bytes", "gyni-weights-int", "box3-int", "box3-generator",
         "box3-63-entries", "box2-none", "correlator-parties-int", "correlator-inputs-int",
         "correlator-box-int", "mix-one-box", "mix-no-boxes", "mix-int-box", "mix-arities",
         "apply-wiring-str", "gyni-value-int", "gyni-bound-int", "validate-int", "dumps-int",
         "local-problem-int", "tobl-problem-int", "lp-feasible-int", "k-value-box2",
         "ic-verdict-float", "search-generator", "search-str", "search-none", "search-int"],
)
def test_wrong_argument_types_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_load_rejects_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.box"
    path.write_bytes(b"box2\n\xff\xfe\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load(path)


def test_round_trip_all_builtins():
    for name in ("class3", "class4", "class44", "pr", "uniform3", "uniform2"):
        box = builtin(name)
        again = loads(dumps(box))
        assert again.table == box.table
        assert type(again) is type(box)


def test_dumps_is_canonical():
    box = builtin("class4")
    assert dumps(box) == dumps(loads(dumps(box)))
    lines = dumps(box).splitlines()
    assert lines[0] == "box3"
    # ascending flat order, only nonzero entries
    assert len(lines) == 1 + sum(1 for v in box.table if v)


def test_marginal_pair_of_class3_is_uniform_on_x0():
    box = builtin("class3")
    pair = marginal(box, (0, 1))
    assert isinstance(pair, Box2)
    # tracing C out of class3 leaves a = b perfectly correlated at x = 0
    assert pair.prob(0, 0, 0, 0) == HALF
    assert pair.prob(1, 1, 0, 1) == HALF
    assert pair.prob(0, 1, 0, 0) == 0


def test_marginal_single_party_uniform():
    box = builtin("class4")
    for party in (0, 1, 2):
        m = marginal(box, (party,))
        assert m == (HALF, HALF, HALF, HALF)


def test_marginal_raises_when_traced_input_matters():
    # a = x * y makes A's marginal depend on y once B is traced out.
    def fn(a, b, x, y):
        return HALF if a == x * y else Fraction(0)

    box = from_entries(Box2, fn)
    with pytest.raises(SignallingError):
        marginal(box, (0,))


def test_mix_linearity_against_marginal():
    b1 = builtin("class4")
    b2 = builtin("uniform3")
    w = (Fraction(1, 3), Fraction(2, 3))
    mixed = mix((b1, b2), w)
    lhs = marginal(mixed, (0, 1))
    rhs = mix((marginal(b1, (0, 1)), marginal(b2, (0, 1))), w)
    assert lhs.table == rhs.table


def test_mix_rejects_bad_weights():
    b = builtin("uniform2")
    with pytest.raises(ValueError):
        mix((b, b), (HALF, HALF + 1))
    with pytest.raises(ValueError):
        mix((b, b), (Fraction(3, 2), Fraction(-1, 2)))


def test_box2_rejects_floats():
    with pytest.raises(InexactValueError):
        Box2((0.1,) * 8 + (0.15,) * 8)
    exact = Box2(("0.1",) * 8 + ("0.15",) * 8)
    assert exact.table[0] == Fraction(1, 10)
    assert exact.table[8] == Fraction(3, 20)


def test_box3_rejects_floats():
    with pytest.raises(InexactValueError):
        Box3((0.125,) * 64)
    assert Box3(("1/8",) * 64).table == builtin("uniform3").table


# Each value that is not an exact number, with the error Fraction() raises
# on it (None where the value is refused before Fraction() sees it).
NOT_EXACT = {1j: TypeError, None: TypeError, "abc": ValueError, "1/0": ZeroDivisionError, True: None}
EXACT_ENTRY_POINTS = {
    "Box2": lambda v: Box2((v,) * 16),
    "Box3": lambda v: Box3((v,) * 64),
    "mix": lambda v: mix([builtin("pr")], [v]),
    "GyniWeights": lambda v: GyniWeights((v,) * 8),
}


@pytest.mark.parametrize("value", NOT_EXACT, ids=repr)
@pytest.mark.parametrize("entry", EXACT_ENTRY_POINTS)
def test_values_that_are_not_exact_numbers_raise_typed_errors(entry, value):
    with pytest.raises(InexactValueError) as exc:
        EXACT_ENTRY_POINTS[entry](value)
    cause = NOT_EXACT[value]
    assert type(exc.value.__cause__) is cause if cause else exc.value.__cause__ is None


def test_mix_rejects_float_weights():
    b = builtin("uniform2")
    with pytest.raises(InexactValueError):
        mix((b, b), (0.5, 0.5))
    assert mix((b, b), ("0.5", 1 - HALF)).table == b.table


def permuted(box, r):
    """The box relabeled by r, its table read through r.permutation."""
    return type(box)(tuple(box.table[j] for j in r.permutation))


def test_relabeling_group_structure():
    rng = random.Random(SEED)
    rels = all_relabelings2()
    assert len(rels) == 128
    by_permutation = {r.permutation: r for r in rels}
    box = builtin("pr")
    for _ in range(25):
        r = rng.choice(rels)
        s = rng.choice(rels)
        # relabelling by s, then by r, reads the table through s after r
        composed = tuple(s.permutation[j] for j in r.permutation)
        assert permuted(permuted(box, s), r).table == tuple(box.table[j] for j in composed)
        # the inverse permutation is a relabelling, and it undoes r
        undo = by_permutation[tuple(sorted(range(16), key=r.permutation.__getitem__))]
        assert permuted(permuted(box, r), undo).table == box.table


def test_relabeling_rejects_non_permutation():
    # relabelling PR by this would give a local box with chsh_max 0
    for perm in ((0, 0), (0, 2), (1,), (0, 1, 2, 3), (0.0, 1.0)):
        n = len(perm)
        with pytest.raises(RelabelingError):
            Relabeling(perm, (0,) * n, ((0, 0),) * n)
    assert issubclass(RelabelingError, BoxError)


def test_relabeling_rejects_mismatched_field_lengths():
    for flips, outs in (
        ((0,), ((0, 0), (0, 0))),
        ((0, 0, 0), ((0, 0), (0, 0))),
        ((0, 0), ((0, 0),)),
        ((0, 0), ((0, 0), (0, 0, 1))),
        ((0, 0), ((0, 0), 1)),
    ):
        with pytest.raises(RelabelingError):
            Relabeling((1, 0), flips, outs)


def test_relabeling_rejects_flips_outside_bits():
    for flips, outs in (
        ((0, 2), ((0, 0), (0, 0))),
        ((0, -1), ((0, 0), (0, 0))),
        ((0, 0), ((0, 2), (0, 0))),
        ((0, 1.0), ((0, 0), (0, 0))),
        ((0, True), ((0, 0), (0, 0))),
        ((0, 0), ((False, 0), (0, 0))),
    ):
        with pytest.raises(RelabelingError):
            Relabeling((1, 0), flips, outs)


def test_relabeling_rejects_fields_that_are_not_tuples():
    # a list field used to give a frozen Relabeling that hash() rejected,
    # and a party_perm of 5 a bare TypeError
    for perm, flips, outs in (
        ([1, 0], (0, 0), ((0, 0), (0, 0))),
        ((1, 0), [0, 0], ((0, 0), (0, 0))),
        ((1, 0), (0, 0), [(0, 0), (0, 0)]),
        ((1, 0), (0, 0), ((0, 0), [0, 0])),
        (5, (0, 0), ((0, 0), (0, 0))),
        ((1, 0), 0, ((0, 0), (0, 0))),
        ((1, 0), (0, 0), None),
        ("10", (0, 0), ((0, 0), (0, 0))),
    ):
        with pytest.raises(RelabelingError):
            Relabeling(perm, flips, outs)
    r = Relabeling((1, 0), (0, 0), ((0, 0), (0, 0)))
    assert {r: 1}[Relabeling((1, 0), (0, 0), ((0, 0), (0, 0)))] == 1


def test_relabel_preserves_validity_and_entry_multiset():
    rng = random.Random(SEED + 1)
    rels = all_relabelings2()
    box = builtin("pr")
    for _ in range(20):
        r = rng.choice(rels)
        out = permuted(box, r)
        assert validate(out).is_valid
        assert sorted(out.table) == sorted(box.table)


def test_relabel_party_swap_on_tripartite():
    box = builtin("class3")
    cyc = Relabeling((1, 2, 0), (0, 0, 0), ((0, 0), (0, 0), (0, 0)))
    out = permuted(box, cyc)
    # the image puts party A's behaviour on party B
    for a, b, c, x, y, z in (
        (0, 0, 0, 0, 0, 0),
        (1, 0, 1, 1, 0, 1),
        (0, 1, 1, 0, 1, 1),
    ):
        assert out.prob(b, c, a, y, z, x) == box.prob(a, b, c, x, y, z)


def test_class4_fixed_by_cyclic_permutation():
    box = builtin("class4")
    cyc = Relabeling((1, 2, 0), (0, 0, 0), ((0, 0), (0, 0), (0, 0)))
    assert permuted(box, cyc).table == box.table


def test_random_mixtures_stay_valid():
    rng = random.Random(SEED + 2)
    vertices = [builtin(f"deterministic({a},{b},{c})")
                for a, b, c in [(0, 0, 0), (1, 2, 3), (3, 3, 3), (2, 0, 1)]]
    vertices += [builtin("class4"), builtin("class44"), builtin("uniform3")]
    for _ in range(30):
        k = rng.randrange(2, 5)
        picks = [rng.choice(vertices) for _ in range(k)]
        raw = [Fraction(rng.randrange(1, 9)) for _ in range(k)]
        total = sum(raw)
        mixed = mix(picks, tuple(v / total for v in raw))
        assert validate(mixed).is_valid
