import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

import lp_oracle
from box_oracle import Relabeling, relabel
from class4_model import class4_tobl_model, lambda_index
from nsboxes import (
    BIPARTITIONS,
    ArityError,
    InexactValueError,
    ParseError,
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
from nsboxes.lp import LPCertificate, LPError, SparseProblem, _presolve
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
        reading = problem.row_sums(model.point)
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
        assert problem.row_sums(shifted) is None


def test_lp_weights_for_class4_form_a_valid_model():
    # the solver's feasible point and the two-bit-seed model are two
    # certificates of one problem, with the same reading
    box = builtin("class4")
    for bp in BIPARTITIONS:
        problem = tobl_problem(box, bp)
        cert, model = is_tobl(box, bp), class4_tobl_model(bp)
        assert cert.verify(problem) and model.verify(problem)
        assert problem.row_sums(cert.point) == problem.row_sums(model.point)


def test_local_box_is_tobl_everywhere():
    det = builtin("deterministic(2,1,3)")
    for bp in BIPARTITIONS:
        assert is_tobl(det, bp).feasible


def test_tobl_problem_shape():
    expanded = lp_oracle.expanded(tobl_problem(builtin("class4"), BIPARTITIONS[1]))
    rows = expanded.rows
    assert expanded.num_vars == 16384
    assert len(rows) == 129
    # normalization row touches every column
    assert len(rows[128][0]) == 16384
    assert rows[128][1] == 1


EXTREMAL = ("class3", "class4", "class44")

# Between them, the first ONE_WAY_CASES cases from this seed reach every
# outcome of the one-way LP (asserted below).  The seed was picked for that
# among seeds whose cases each leave at most 64 columns after presolve,
# which keeps the oracle's dense phase 1 short.
ONE_WAY_SEED = 1479
ONE_WAY_CASES = 4


def seeded_one_way_cases(count=ONE_WAY_CASES):
    """Relabelled extremal boxes and mixtures of two, each with a random
    bipartition."""
    rng = random.Random(ONE_WAY_SEED)
    for _ in range(count):
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
    # is_tobl, which solves the marginal form, must give the verdict of the
    # row-form oracle on tobl_problem's 16384 expanded columns, through each
    # of the oracle's outcomes, with a certificate of tobl_problem.  The
    # entries depend on the bipartition only, so the expansion's columns
    # (cached by lp_oracle) and their column index are built once per
    # bipartition, and each case states its own right-hand side on them.
    cases = [(builtin(name), bp) for name in EXTREMAL for bp in BIPARTITIONS]
    cases += seeded_one_way_cases()
    outcomes = set()
    row_forms = {}
    for box, bp in cases:
        problem = tobl_problem(box, bp)
        expanded = lp_oracle.expanded(problem)
        if bp not in row_forms:
            row_forms[bp] = lp_oracle.column_index(expanded)
        want, outcome = lp_oracle.solve(expanded, row_forms[bp])
        cert = is_tobl(box, bp)
        assert cert.feasible == want.feasible and cert.verify(problem), bp.name
        outcomes.add(outcome)
    assert outcomes == {"arrival", "re-queue", "phase-1 farkas", "feasible"}


def test_one_way_solve_never_expands_rows(monkeypatch):
    # tobl_problem's expansion holds 16384 x 17 entries.  is_tobl solves
    # only the 512-column marginal form, without reading its rows, and
    # verify checks the lifted certificate on the route strategies.
    solved = []

    def spy(problem):
        solved.append(problem)
        return lp_feasible(problem)

    monkeypatch.setattr(membership, "lp_feasible", spy)
    for name in ("class4", "class44"):
        problem = tobl_problem(builtin(name), BIPARTITIONS[0])
        assert is_tobl(builtin(name), BIPARTITIONS[0]).verify(problem)
        assert "rows" not in vars(problem) and "rows" not in vars(solved[-1])
    assert [p.num_vars for p in solved] == [512, 512]


MARGINAL_CASES = 8


def marginal_cases():
    """The builtins on every bipartition, uniform3 on one (its oracle solve
    takes seconds), and seeded one-way cases."""
    cases = [(builtin(name), bp) for name in EXTREMAL for bp in BIPARTITIONS]
    return cases + [(builtin("uniform3"), BIPARTITIONS[0])] + list(seeded_one_way_cases(MARGINAL_CASES))


def test_marginal_lp_matches_row_form_oracle():
    # The marginal form is a plain system: lp_feasible and the row-form
    # oracle give the same certificate byte for byte, through each outcome.
    # is_tobl lifts it: a witness (y, z) as y with sum z on row 128.
    outcomes = set()
    for box, bp in marginal_cases():
        problem = membership._marginal_problem(box, bp)
        want, outcome = lp_oracle.solve(lp_oracle.row_problem(problem.num_vars, problem.rows))
        cert = lp_feasible(problem)
        assert cert.to_text() == want.to_text(), bp.name
        lifted = is_tobl(box, bp)
        assert lifted.feasible == cert.feasible and lifted.verify(tobl_problem(box, bp))
        if not cert.feasible:
            y = dict(cert.farkas)
            y[128] = sum(v for r, v in cert.farkas if r >= 128)
            assert lifted.farkas == tuple((r, v) for r, v in sorted(y.items()) if r <= 128 and v)
        outcomes.add(outcome)
    assert outcomes == {"arrival", "re-queue", "phase-1 farkas", "feasible"}


def sparse_marginal(rng, total):
    """1-8 positive values summing to total at ascending indices below 64."""
    raw = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
    return list(zip(sorted(rng.sample(range(64), len(raw))), (total * r / sum(raw) for r in raw)))


def test_coupling_reproduces_both_marginals_within_the_support_bound():
    rng = random.Random(SEED + 2)
    tight = 0
    for _ in range(300):
        total = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        a, c = sparse_marginal(rng, total), sparse_marginal(rng, total)
        cells = membership._coupling(a, c)
        assert all(w > 0 for *_, w in cells)
        assert [(i, j) for i, j, _ in cells] == sorted({(i, j) for i, j, _ in cells})
        for k, marginal in ((0, a), (1, c)):
            sums = {}
            for cell in cells:
                sums[cell[k]] = sums.get(cell[k], 0) + cell[2]
            assert sorted(sums.items()) == marginal
        assert len(cells) <= len(a) + len(c) - 1
        tight += len(cells) == len(a) + len(c) - 1
    assert tight >= 100
    assert membership._coupling([], []) == []


def test_marginal_witness_lifted_after_a_presolve_detection():
    # On class44 the marginal LP's presolve empties row 57, and the witness
    # carries the multipliers of the steps before it.  Lifted, it is the
    # row-form oracle's certificate on tobl_problem's expansion byte for
    # byte.
    box = builtin("class44")
    for bp in BIPARTITIONS:
        problem = membership._marginal_problem(box, bp)
        pre = _presolve(problem)
        assert pre.detected == 57 and pre.steps
        cert = lp_feasible(problem)
        assert {pre.detected} < {r for r, _ in cert.farkas} <= {pre.detected} | {r for r, *_ in pre.steps}
        lifted = is_tobl(box, bp)
        assert lifted.verify(tobl_problem(box, bp))
        assert lifted.to_text() == lp_oracle.solve(lp_oracle.expanded(tobl_problem(box, bp)))[0].to_text()


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
        assert (first.num_vars, first.num_rows) == (vertices, vertices + 1)
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
        rows = lp_oracle.expanded(problem)
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


def extremal_one_way_certificates():
    """((box, bp), certificate) for is_tobl on the extremal builtins: the 9
    one-way certificates that test_lp.PINNED_CERTIFICATES pins."""
    return [((builtin(name), bp), is_tobl(builtin(name), bp)) for name in EXTREMAL for bp in BIPARTITIONS]


def largest_aggregate(problem, w):
    """The largest column aggregate of a witness, over tobl_problem's
    expanded columns."""
    return max(lp_oracle.expanded(problem).columns.column_sums(w))


def test_one_way_check_rejects_each_breach():
    # The pinned extremal certificates verify on tobl_problem's check, and
    # each breach of one fails it: for a point, a lambda index outside
    # 0..16383, a negative weight or one weight moved to another triple;
    # for a witness, a row outside 0..128, y.b <= 0 with every aggregate
    # still nonpositive, or a largest route-0 plus route-1 sum of 1 with
    # y.b still positive.  Row 128 is in every column, so moving its
    # multiplier moves every aggregate and y.b (b_128 = 1) alike.
    kinds = set()
    for (box, bp), cert in extremal_one_way_certificates():
        problem = tobl_problem(box, bp)
        assert cert.verify(problem)
        kinds.add(cert.feasible)
        if cert.feasible:
            (col, w), *rest = cert.point
            moved = next(c for c in range(16384) if c not in dict(cert.point))
            breaches = [((16384, w), *rest), ((-1, w), *rest), ((col, -w), *rest), ((moved, w), *rest)]
            assert all(not LPCertificate(True, tuple(sorted(p)), None).verify(problem) for p in breaches)
        else:
            y = dict(cert.farkas)
            dot = sum(v * b for v, b in zip((y.get(r, 0) for r in range(129)), problem.rhs))
            top = largest_aggregate(problem, y)
            assert dot > 0 and top <= 0
            for row in (129, -1):
                assert not LPCertificate(False, None, tuple(sorted({**y, row: 1}.items()))).verify(problem)
            for shift, verdict in ((-dot, False), (-top, True), (1 - top, False)):
                moved = {**y, 128: y.get(128, 0) + shift}
                assert LPCertificate(False, None, tuple(sorted(moved.items()))).verify(problem) is verdict
    assert kinds == {True, False}


ONE_WAY_CHECK_SEED = 2024


def test_one_way_check_agrees_with_its_expansion():
    # tobl_problem's check never builds a column: a witness passes iff,
    # per solo truth table, its largest route-0 sum plus its largest
    # route-1 sum is nonpositive.  Seeded witnesses, their largest
    # aggregate moved to -1, 0 or 1 through row 128, are checked against a
    # right-hand side B = 100 y below row 128 and B_128 = 1, so y.B > 0 and
    # the aggregates decide; the check agrees with the plain one on the
    # 16384 expanded columns, and among the witnesses it accepts are some
    # whose largest route-0 and route-1 sums, over different solo truth
    # tables, add to more than 0.  Seeded points near a feasible pinned
    # certificate agree too.
    rng = random.Random(ONE_WAY_CHECK_SEED)
    accepted = crossed = rejected = 0
    points = [0, 0]  # rejected, accepted
    for bp in BIPARTITIONS:
        for _ in range(40):
            y = {r: rng.choice((-3, -2, -1, 1, 2, 3)) for r in rng.sample(range(128), 6)}
            problem = membership.OneWayProblem(bp, (1, tuple(100 * y.get(r, 0) for r in range(128)) + (1,)))
            y[128] = rng.choice((-1, 0, 1)) - largest_aggregate(problem, y)
            witness = LPCertificate(False, None, tuple(sorted((r, v) for r, v in y.items() if v)))
            verdict = witness.verify(problem)
            assert verdict == witness.verify(lp_oracle.expanded(problem))
            if verdict:
                accepted += 1
                u = membership._marginal_columns(bp).column_sums(y)
                crossed += max(max(u[k:k + 64]) for k in range(0, 512, 128)) + max(
                    max(u[k + 64:k + 128]) for k in range(0, 512, 128)) > 0
            else:
                rejected += 1
    for (box, bp), cert in extremal_one_way_certificates():
        problem = tobl_problem(box, bp)
        for _ in range(20 if cert.feasible else 0):
            point = dict(cert.point)
            col = rng.choice(list(point))
            other = rng.randrange(-2, 16386)
            point[other] = point.get(other, 0) + rng.choice((0, point[col], -point[col]))
            point[col] -= rng.choice((0, point[col]))
            candidate = LPCertificate(True, tuple(sorted(point.items())), None)
            verdict = candidate.verify(problem)
            assert verdict == candidate.verify(lp_oracle.expanded(problem))
            points[verdict] += 1
    assert accepted >= 20 and crossed >= 10 and rejected >= 20, (accepted, crossed, rejected)
    assert min(points) >= 5, points


@pytest.mark.parametrize(
    "value", [0.25, True, "1/4", Decimal("0.25")], ids=["float", "bool", "str", "Decimal"]
)
def test_inexact_model_weights_rejected(value):
    # With float weights 0.25 the class4 model would verify; a weight must
    # be an int or a Fraction.
    point = class4_tobl_model(BIPARTITIONS[0]).point
    with pytest.raises(InexactValueError):
        LPCertificate(True, tuple((idx, value) for idx, _ in point), None)
