import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

import lp_oracle
from box_oracle import relabel
from class4_model import class4_tobl_model, lambda_index
from nsboxes import (
    BIPARTITIONS,
    ArityError,
    InexactValueError,
    LPProblem,
    ParseError,
    Relabeling,
    builtin,
    chsh_max,
    is_local,
    is_tobl,
    local_problem,
    lp_feasible,
    mix,
    tobl_problem,
)
from nsboxes import membership
from nsboxes.boxes import integer_scaled
from nsboxes.lp import LPCertificate, LPError
from random_boxes import odd_lcm_mixtures, random_ns_box2

SEED = 31415


def decode_lambda(idx: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """lambda_index inverted: (solo_tt, (f1, g1), (f2, g2))."""
    solo_tt, rest = divmod(idx, 4096)
    r1, r2 = divmod(rest, 64)
    return solo_tt, divmod(r1, 16), divmod(r2, 16)


def test_lambda_index_round_trip():
    rng = random.Random(SEED)
    for _ in range(100):
        solo_tt = rng.randrange(4)
        r1 = (rng.randrange(4), rng.randrange(16))
        r2 = (rng.randrange(4), rng.randrange(16))
        idx = lambda_index(solo_tt, r1, r2)
        assert 0 <= idx < 16384
        assert decode_lambda(idx) == (solo_tt, r1, r2)


def test_deterministic_boxes_are_local():
    for t in (0, 21, 47, 63):
        ta, tb, tc = (t >> 4) & 3, (t >> 2) & 3, t & 3
        cert = is_local(builtin(f"deterministic({ta},{tb},{tc})"))
        assert cert.feasible
        assert len(cert.point) == 1


def test_uniform_boxes_are_local():
    assert is_local(builtin("uniform3")).feasible
    assert is_local(builtin("uniform2")).feasible


def test_pr_is_not_local_and_certificate_verifies():
    pr = builtin("pr")
    cert = is_local(pr)
    assert not cert.feasible
    assert cert.verify(local_problem(pr))


def test_isotropic_mixture_threshold():
    # visibility t of PR against uniform noise: local exactly when
    # chsh_max = 4t <= 2, so the boundary sits at t = 1/2
    pr, noise = builtin("pr"), builtin("uniform2")
    at = mix((pr, noise), (Fraction(1, 2), Fraction(1, 2)))
    above = mix((pr, noise), (Fraction(1, 2) + Fraction(1, 100), Fraction(49, 100)))
    assert is_local(at).feasible
    assert not is_local(above).feasible


def test_local_iff_chsh_max_within_two():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        box = random_ns_box2(rng)
        assert is_local(box).feasible == (chsh_max(box) <= 2)


def test_tripartite_nonlocal_builtins():
    assert not is_local(builtin("class3")).feasible
    assert not is_local(builtin("class4")).feasible
    assert not is_local(builtin("class44")).feasible


def test_class4_tobl_all_bipartitions():
    box = builtin("class4")
    for bp in BIPARTITIONS:
        cert = is_tobl(box, bp)
        assert cert.feasible, bp.name
        assert cert.verify(tobl_problem(box, bp))


def test_class44_tobl_infeasible_with_farkas():
    box = builtin("class44")
    cert = is_tobl(box, BIPARTITIONS[0])
    assert not cert.feasible
    assert cert.farkas
    assert cert.verify(tobl_problem(box, BIPARTITIONS[0]))


def test_is_tobl_rejects_bipartite_input():
    with pytest.raises(ArityError):
        is_tobl(builtin("pr"), BIPARTITIONS[0])


def test_tobl_rejects_a_bipartition_that_is_not_one():
    # a name used to raise a bare AttributeError from the column builder
    for bp in ("A|BC", (0, (1, 2)), None):
        with pytest.raises(ParseError):
            tobl_problem(builtin("class4"), bp)
        with pytest.raises(ParseError):
            is_tobl(builtin("class4"), bp)


def test_class4_model_verifies_on_every_bipartition():
    box = builtin("class4")
    lambdas = {
        "A|BC": (546, 7309, 9681, 15230),
        "B|AC": (2312, 4852, 9303, 16299),
        "C|AB": (546, 7309, 9681, 15230),
    }
    for bp in BIPARTITIONS:
        model = class4_tobl_model(bp)
        assert model.feasible and model.farkas is None
        assert tuple(idx for idx, _ in model.point) == lambdas[bp.name]
        assert all(w == Fraction(1, 4) for _, w in model.point)
        problem = tobl_problem(box, bp)
        assert model.verify(problem)
        # both directional readings reproduce the box
        reading = problem.columns.row_sums(model.point)
        assert reading[:64] == reading[64:128] == box.table


def test_verify_model_rejects_wrong_box():
    bp = BIPARTITIONS[0]
    model = class4_tobl_model(bp)
    assert not model.verify(tobl_problem(builtin("class44"), bp))
    assert not model.verify(tobl_problem(builtin("uniform3"), bp))


def test_verify_model_rejects_bad_weights():
    bp = BIPARTITIONS[0]
    unnormalized = LPCertificate(True, class4_tobl_model(bp).point[:3], None)
    assert not unnormalized.verify(tobl_problem(builtin("class4"), bp))


def test_model_lists_each_index_once():
    # With its last weight listed twice the class4 model's weights sum to
    # 5/4, yet read through dict() they would verify.
    point = class4_tobl_model(BIPARTITIONS[0]).point
    with pytest.raises(LPError):
        LPCertificate(True, point + point[-1:], None)
    for key in (True, 0.0, "0", None):
        with pytest.raises(LPError):
            LPCertificate(True, ((key, Fraction(1, 4)), *point[1:]), None)


def test_verify_model_rejects_indices_outside_lambda_range():
    # shifted by -16384, decode_lambda would wrap each index onto a real
    # strategy triple; by +16384 it would index past the route strategies
    bp = BIPARTITIONS[0]
    problem = tobl_problem(builtin("class4"), bp)
    for shift in (-16384, 16384):
        shifted = tuple((idx + shift, w) for idx, w in class4_tobl_model(bp).point)
        assert not LPCertificate(True, shifted, None).verify(problem)
        assert problem.columns.row_sums(shifted) is None


def test_lp_weights_for_class4_form_a_valid_model():
    # the solver's feasible point and the two-bit-seed model are two
    # certificates of one problem, with the same reading
    box = builtin("class4")
    for bp in BIPARTITIONS:
        problem = tobl_problem(box, bp)
        cert, model = is_tobl(box, bp), class4_tobl_model(bp)
        assert cert.verify(problem) and model.verify(problem)
        assert problem.columns.row_sums(cert.point) == problem.columns.row_sums(model.point)


def test_local_box_is_tobl_everywhere():
    det = builtin("deterministic(2,1,3)")
    for bp in BIPARTITIONS:
        assert is_tobl(det, bp).feasible


def test_tobl_problem_shape():
    problem = tobl_problem(builtin("class4"), BIPARTITIONS[1])
    assert problem.num_vars == 16384
    assert len(problem.rows) == 129
    # normalization row touches every column
    assert len(problem.rows[128][0]) == 16384
    assert problem.rows[128][1] == 1


EXTREMAL = ("class3", "class4", "class44")

# Between them, the first ONE_WAY_CASES cases from this seed reach every
# outcome of the one-way LP (asserted below).  The seed was picked for that
# among seeds whose cases each leave at most 64 columns after presolve,
# which keeps the oracle's dense phase 1 short.
ONE_WAY_SEED = 1479
ONE_WAY_CASES = 4


def seeded_one_way_cases():
    """Relabelled extremal boxes and mixtures of two, each with a random
    bipartition."""
    rng = random.Random(ONE_WAY_SEED)
    for _ in range(ONE_WAY_CASES):
        vertices = [
            relabel(
                builtin(rng.choice(EXTREMAL)),
                Relabeling(
                    tuple(rng.sample((0, 1, 2), 3)),
                    tuple(rng.randrange(2) for _ in range(3)),
                    tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)),
                ),
            )
            for _ in range(rng.randint(1, 2))
        ]
        raw = [rng.randint(1, 4) for _ in vertices]
        yield mix(vertices, [Fraction(r, sum(raw)) for r in raw]), rng.choice(BIPARTITIONS)


def test_factored_tobl_matches_expanded_lp():
    # is_tobl solves the one-way LP on its column families; the row-form
    # oracle on the expanded 16384 columns must give the same certificate
    # byte for byte, through each outcome.
    cases = [(builtin(name), bp) for name in EXTREMAL for bp in BIPARTITIONS]
    cases += seeded_one_way_cases()
    outcomes = set()
    for box, bp in cases:
        problem = tobl_problem(box, bp)
        want, outcome = lp_oracle.solve(LPProblem(problem.num_vars, problem.rows))
        assert is_tobl(box, bp).to_text() == want.to_text(), bp.name
        outcomes.add(outcome)
    assert outcomes == {"arrival", "re-queue", "phase-1 farkas", "feasible"}


def test_one_way_solve_never_expands_rows():
    # The expansion holds 16384 x 17 entries; the solver and the check work
    # on the families and leave the rows unbuilt.
    for name in ("class4", "class44"):
        problem = tobl_problem(builtin(name), BIPARTITIONS[0])
        cert = lp_feasible(problem)
        assert cert.verify(problem)
        assert "rows" not in vars(problem)


def test_problems_take_the_integer_view_of_their_right_hand_side():
    # tobl_problem and local_problem take the view from box.scaled; it must
    # be the one integer_scaled gives on the right-hand side itself, and
    # reading it must leave the rows unbuilt.
    rng = random.Random(SEED)
    det = builtin("deterministic(2,0,1)")
    scale14 = mix((builtin("class44"), det), (Fraction(2, 7), Fraction(5, 7)))
    assert scale14.scaled[0] == 14
    boxes3 = [builtin(name) for name in ("class3", "class4", "class44", "uniform3")]
    boxes3 += [builtin("deterministic(%d,%d,%d)" % t) for t in product(range(4), repeat=3)]
    boxes3 += [scale14] + odd_lcm_mixtures(rng)  # k/7, k/11 and sweep-mixed pool weights
    boxes2 = [builtin("pr"), builtin("uniform2")] + [random_ns_box2(rng) for _ in range(4)]
    problems = [tobl_problem(box, bp) for box in boxes3 for bp in BIPARTITIONS]
    problems += [local_problem(box) for box in boxes3 + boxes2]
    for problem in problems:
        assert problem.scaled == integer_scaled(problem.rhs)
        assert "rows" not in vars(problem)


def test_local_columns_are_built_once_per_party_count():
    for names, vertices in ((("pr", "uniform2"), 16),
                            (("class3", "class44", "uniform3", "deterministic(1,2,3)"), 64)):
        first, *rest = (local_problem(builtin(name)).columns for name in names)
        assert (first.num_vars, first.num_rows, len(first.families[0].lefts)) == (vertices, vertices + 1, vertices)
        assert all(columns is first for columns in rest)


def test_local_solve_never_expands_rows(monkeypatch):
    solved = []

    def spy(problem):
        solved.append(problem)
        return lp_feasible(problem)

    monkeypatch.setattr(membership, "lp_feasible", spy)
    for name in ("pr", "class44", "uniform3"):
        cert = is_local(builtin(name))
        assert cert.verify(solved[-1])
        assert "rows" not in vars(solved[-1])
    assert len(solved) == 3


def test_factored_verification_rejects_tampered_certificates():
    bp = BIPARTITIONS[1]
    for name in ("class4", "class44"):
        box = builtin(name)
        problem = tobl_problem(box, bp)
        rows = LPProblem(problem.num_vars, problem.rows)
        cert = is_tobl(box, bp)
        assert cert.verify(problem) and cert.verify(rows)
        if cert.feasible:
            (col, w), *rest = cert.point
            forged = [
                ((col, w / 2), *rest),  # breaks the rows col hits
                ((col + 1, w), *rest),  # moves weight to another column
            ]
            forged = [LPCertificate(True, point, None) for point in forged]
        else:
            (row, y), *rest = cert.farkas
            forged = [
                LPCertificate(False, None, tuple((r, -v) for r, v in cert.farkas)),
                LPCertificate(False, None, ((row, y + 1), *rest)),
            ]
        for bad in forged:
            assert not bad.verify(problem)
            assert not bad.verify(rows)


@pytest.mark.parametrize(
    "value", [0.25, True, "1/4", Decimal("0.25")], ids=["float", "bool", "str", "Decimal"]
)
def test_inexact_model_weights_rejected(value):
    # With float weights 0.25 the class4 model would verify; a weight must
    # be an int or a Fraction.
    point = class4_tobl_model(BIPARTITIONS[0]).point
    with pytest.raises(InexactValueError):
        LPCertificate(True, tuple((idx, value) for idx, _ in point), None)
