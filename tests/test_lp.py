import hashlib
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from box_oracle import relabel
from nsboxes import (
    BIPARTITIONS,
    InexactValueError,
    Relabeling,
    builtin,
    is_local,
    is_tobl,
    local_problem,
    mix,
    tobl_problem,
)
from nsboxes.boxes import integer_scaled
from nsboxes.lp import (
    ColumnFamilies,
    Family,
    FamilyProblem,
    LPCertificate,
    LPError,
    LPProblem,
    _phase1,
    _presolve,
    lp_feasible,
)

F = Fraction


def solve(num_vars, rows):
    problem = LPProblem(
        num_vars,
        tuple((tuple(entries), F(rhs)) for entries, rhs in rows),
    )
    return problem, lp_feasible(problem)


def test_trivial_feasible():
    problem, cert = solve(2, [(((0, 1), (1, 1)), 1)])
    assert cert.feasible
    assert cert.verify(problem)
    assert sum(dict(cert.point).values()) == 1


def test_trivial_infeasible_negative_rhs():
    # x0 + x1 = -1 has no nonnegative solution
    problem, cert = solve(2, [(((0, 1), (1, 1)), -1)])
    assert not cert.feasible
    assert cert.verify(problem)


def test_empty_row_with_nonzero_rhs():
    problem, cert = solve(1, [((), 1), (((0, 1),), 2)])
    assert not cert.feasible
    assert cert.verify(problem)


def test_zero_rhs_presolve_kills_columns():
    # x0 + x1 = 0 forces both to zero, leaving x2 = 1
    problem, cert = solve(
        3,
        [
            (((0, 1), (1, 1)), 0),
            (((0, 1), (2, 1)), 1),
        ],
    )
    assert cert.feasible
    assert cert.verify(problem)
    assert dict(cert.point) == {2: F(1)}


def test_presolve_cascade_reaches_infeasibility():
    # first row kills x0; second then kills x1; third needs one of them
    problem, cert = solve(
        2,
        [
            (((0, 1),), 0),
            (((0, -1), (1, 1)), 0),
            (((0, 1), (1, 1)), 1),
        ],
    )
    assert not cert.feasible
    assert cert.verify(problem)


def test_mixed_sign_zero_row_is_not_eliminated():
    # x0 - x1 = 0 constrains without forcing zeros
    problem, cert = solve(
        2,
        [
            (((0, 1), (1, -1)), 0),
            (((0, 1), (1, 1)), 2),
        ],
    )
    assert cert.feasible
    assert cert.verify(problem)
    assert dict(cert.point)[0] == dict(cert.point)[1] == F(1)


def test_redundant_rows_are_tolerated():
    rows = [
        (((0, 1), (1, 1)), 1),
        (((0, 1), (1, 1)), 1),
        (((0, 2), (1, 2)), 2),
    ]
    problem, cert = solve(2, rows)
    assert cert.feasible
    assert cert.verify(problem)


def test_inconsistent_duplicate_rows():
    problem, cert = solve(2, [(((0, 1), (1, 1)), 1), (((0, 1), (1, 1)), 2)])
    assert not cert.feasible
    assert cert.verify(problem)


def test_fractional_solution():
    # x0 + 2 x1 = 1, 3 x0 + x1 = 1 -> x0 = 1/5, x1 = 2/5
    problem, cert = solve(
        2,
        [
            (((0, 1), (1, 2)), 1),
            (((0, 3), (1, 1)), 1),
        ],
    )
    assert cert.feasible
    assert dict(cert.point) == {0: F(1, 5), 1: F(2, 5)}


def test_column_out_of_range_rejected():
    with pytest.raises(LPError):
        LPProblem(1, ((((1, F(1)),), F(1)),))


def test_certificate_text_formats():
    _, cert = solve(2, [(((0, 1), (1, 1)), 1)])
    text = cert.to_text()
    assert text.splitlines()[0] == "feasible"
    _, bad = solve(2, [(((0, 1), (1, 1)), -1)])
    lines = bad.to_text().splitlines()
    assert lines[0] == "infeasible"
    assert all("=" in line for line in lines[1:])


def test_verify_rejects_tampered_certificates():
    problem, cert = solve(2, [(((0, 1), (1, 1)), 1)])
    forged = LPCertificate(True, ((0, F(2)),), None)
    assert not forged.verify(problem)
    problem2, cert2 = solve(2, [(((0, 1), (1, 1)), -1)])
    flipped = LPCertificate(False, None, tuple((i, -v) for i, v in cert2.farkas))
    assert not flipped.verify(problem2)
    # a column or row outside the problem, next to a valid certificate
    for outside in (-1, 2):
        assert not LPCertificate(True, tuple(sorted(((0, 1), (outside, 1)))), None).verify(problem)
        assert not LPCertificate(False, None, cert2.farkas + ((outside + 2, 1),)).verify(problem2)
    # Right-hand sides of denominators 3, 6 and 7, lcm 42: the points
    # x = (1/3 - t, t, 1/6 - t, t - 1/42) solve the rows, and are
    # nonnegative for 1/42 <= t <= 1/6.
    problem3, cert3 = solve(4, [(((0, 1), (1, 1)), F(1, 3)), (((1, 1), (2, 1)), F(1, 6)),
                                (((2, 1), (3, 1)), F(1, 7))])
    assert cert3.feasible and cert3.verify(problem3)
    (col, v), *rest = cert3.point
    assert not LPCertificate(True, ((col, v + F(1, 84)), *rest), None).verify(problem3)
    assert not LPCertificate(True, ((0, F(1, 3)), (2, F(1, 6)), (3, F(-1, 42))), None).verify(problem3)


def random_problem(rng, feasible):
    """Random system with a planted nonnegative solution, or that solution's
    rows plus one deliberately contradicted copy."""
    n = rng.randrange(3, 9)
    m = rng.randrange(2, 7)
    x = [F(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(n)]
    rows = []
    for _ in range(m):
        entries = []
        for j in range(n):
            if rng.random() < 0.5:
                entries.append((j, F(rng.randrange(-4, 5))))
        rhs = sum(coeff * x[j] for j, coeff in entries)
        rows.append((tuple(entries), rhs))
    if not feasible:
        # resum the first row against a shifted target to break it; adding a
        # fresh always-positive row keeps the contradiction detectable
        entries, rhs = rows[0]
        if not entries:
            entries = ((0, F(1)),)
            rhs = x[0]
        rows[0] = (entries, rhs)
        rows.append((entries, rhs + 1))
    return LPProblem(n, tuple(rows))


def test_random_systems_self_verify():
    rng = random.Random(90125)
    for k in range(60):
        problem = random_problem(rng, feasible=True)
        cert = lp_feasible(problem)
        assert cert.feasible, k
        assert cert.verify(problem)


def test_random_infeasible_systems_produce_farkas():
    rng = random.Random(90126)
    for k in range(60):
        problem = random_problem(rng, feasible=False)
        cert = lp_feasible(problem)
        assert not cert.feasible, k
        assert cert.verify(problem)


def test_degenerate_single_variable_chain():
    # long equality chain pinning every variable
    n = 12
    rows = [(((i, F(1)), (i + 1, F(-1))), F(0)) for i in range(n - 1)]
    rows.append((tuple((i, F(1)) for i in range(n)), F(1)))
    problem = LPProblem(n, tuple(rows))
    cert = lp_feasible(problem)
    assert cert.feasible
    assert cert.verify(problem)
    assert all(v == F(1, n) for _, v in cert.point)


def test_float_coefficient_rejected():
    with pytest.raises(InexactValueError):
        LPProblem(2, ((((0, 1), (1, 0.5)), F(1)),))


def test_float_rhs_rejected():
    with pytest.raises(InexactValueError):
        LPProblem(2, ((((0, 1), (1, 1)), 0.1),))


@pytest.mark.parametrize(
    "value", [True, "1", Decimal(1), 1j], ids=["bool", "str", "Decimal", "complex"]
)
def test_inexact_values_rejected(value):
    # Only int and Fraction are exact: a bool is not taken as 0 or 1, and a
    # str is not parsed.
    with pytest.raises(InexactValueError):
        LPProblem(2, ((((0, 1), (1, value)), F(1)),))
    with pytest.raises(InexactValueError):
        LPProblem(2, ((((0, 1), (1, 1)), value),))


def test_column_repeated_in_a_row_rejected():
    # x0 + x0 = 0, x0 + x1 = 1 is feasible at x1 = 1, but the presolve
    # counts the live entries of a row, so a repeated column used to empty
    # the second row while x1 was still live.
    with pytest.raises(LPError):
        LPProblem(2, ((((0, 1), (0, 1)), 0), (((0, 1), (1, 1)), 1)))


def basis_feasible(problem):
    """Brute-force oracle: A x = b, x >= 0 is feasible iff some set of
    linearly independent columns solves it with nonnegative values (a basic
    feasible solution), the empty set included when b = 0."""
    n, m = problem.num_vars, len(problem.rows)
    dense = [[F(0)] * n for _ in range(m)]
    for i, (entries, _) in enumerate(problem.rows):
        for col, coeff in entries:
            dense[i][col] += coeff
    b = [F(rhs) for _, rhs in problem.rows]
    for size in range(min(m, n) + 1):
        for cols in combinations(range(n), size):
            x = solve_columns(dense, b, cols)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def solve_columns(dense, b, cols):
    """x with sum_k dense[:, cols[k]] x_k = b, or None when those columns are
    dependent or the system is inconsistent."""
    aug = [[row[c] for c in cols] + [rhs] for row, rhs in zip(dense, b)]
    k = len(cols)
    for c in range(k):
        p = next((i for i in range(c, len(aug)) if aug[i][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i, row in enumerate(aug):
            if i != c and row[c]:
                aug[i] = [v - row[c] * w for v, w in zip(row, aug[c])]
    if any(row[k] for row in aug[k:]):
        return None
    return [aug[c][k] for c in range(k)]


def presolve_row(rng, n):
    """A zero-rhs row whose coefficients share one sign, so presolve
    eliminates it and fixes its columns to zero."""
    sign = rng.choice((1, -1))
    return (tuple((j, F(sign * rng.randrange(1, 3))) for j in range(n) if rng.random() < 0.4), F(0))


def small_system(rng):
    n = rng.randrange(1, 6)
    m = rng.randrange(1, 5)
    rows = []
    for _ in range(m):
        if rng.random() < 0.35:
            rows.append(presolve_row(rng, n))
        else:
            entries = tuple((j, F(rng.randrange(-2, 3))) for j in range(n) if rng.random() < 0.7)
            rows.append((entries, F(rng.randrange(-2, 3))))
    return LPProblem(n, tuple(rows))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_lp_feasible_agrees_with_basis_enumeration(rng):
    problem = small_system(rng)
    cert = lp_feasible(problem)
    assert cert.feasible == basis_feasible(problem)
    assert cert.verify(problem)


def test_farkas_witnesses_lifted_through_presolve_cascades():
    # Witnesses found on the reduced system, or seeded on a row that presolve
    # emptied, need multipliers on eliminated rows; only the lift adds them.
    rng = random.Random(2718)
    lifted_phase1 = lifted_early = 0
    for _ in range(300):
        problem = small_system(rng)
        pre = _presolve(problem)
        cert = lp_feasible(problem)
        assert cert.feasible == basis_feasible(problem)
        assert cert.verify(problem)
        if pre.detected is not None:
            lifted_early += len(cert.farkas) > 1
        elif not cert.feasible:
            lifted_phase1 += not {row for row, _, _ in pre.steps}.isdisjoint(dict(cert.farkas))
    assert lifted_phase1 >= 10
    assert lifted_early >= 10


# Beale's degenerate LP (the form in Bertsimas and Tsitsiklis, Example 3.6),
# which cycles under the largest-coefficient rule: minimise
# -3/4 x3 + 20 x4 - 1/2 x5 + 6 x6 over slacks x0, x1, x2.  Its optimum is
# -5/4, so "objective + x7 = t" is feasible exactly for t >= -5/4.
BEALE = [
    (((0, 1), (3, F(1, 4)), (4, -8), (5, -1), (6, 9)), 0),
    (((1, 1), (3, F(1, 2)), (4, -12), (5, F(-1, 2)), (6, 3)), 0),
    (((2, 1), (5, 1)), 1),
]
BEALE_OBJECTIVE = ((3, F(-3, 4)), (4, 20), (5, F(-1, 2)), (6, 6), (7, 1))


def test_beale_cycling_example_terminates_under_bland():
    for target, feasible in ((F(-5, 4), True), (F(-5, 4) - F(1, 100), False), (F(0), True)):
        problem, cert = solve(8, BEALE + [(BEALE_OBJECTIVE, target)])
        assert cert.feasible is feasible
        assert basis_feasible(problem) is feasible
        assert cert.verify(problem)


# The first 20 systems of this stream whose phase-1 ratio test ties, seven of
# them between a structural and an artificial variable; Bland's leaving rule
# alone decides their pivot paths.
TIE_SEED = 1
TIE_CASES = (59, 140, 148, 164, 206, 257, 436, 458, 472, 509, 511, 530, 547, 548, 597, 630, 700, 785, 841, 846)

# First 16 hex digits of the sha256 of each certificate's to_text().  They
# pin the pivot path: a change to the entering or leaving rule changes
# some certificate even where both answers still verify.
PINNED_CERTIFICATES = {
    "tobl class3 A|BC": "3938a0bfd9cc7d61",
    "tobl class3 B|AC": "e8747fd4eae209ac",
    "tobl class3 C|AB": "da3c82ed5dcda3bf",
    "tobl class4 A|BC": "62834348313c418a",
    "tobl class4 B|AC": "8c0928e375f87c1b",
    "tobl class4 C|AB": "62834348313c418a",
    "tobl class44 A|BC": "ef31febc608397b1",
    "tobl class44 B|AC": "9401dcbe435a2a5f",
    "tobl class44 C|AB": "2b361b24ff0659a2",
    "local class3": "e8747fd4eae209ac",
    "local class4": "525322b10f621ffa",
    "local class44": "2f207a5468e60354",
    "local pr": "9f9e5fc86b9e31e7",
    "beale -5/4": "3cb512894ed9f393",
    "beale -63/50": "d0dca4845633fda8",
    "beale 0": "34aec28f0116eadb",
    "tie 59": "dd471834e9f6c1a7",
    "tie 140": "cda46f926695a301",
    "tie 148": "c874958f3bb7ebd7",
    "tie 164": "6b9bc4859dcc47b4",
    "tie 206": "e639075ae35be507",
    "tie 257": "99d3f6f1c927363e",
    "tie 436": "8e113382c8746357",
    "tie 458": "54a9350690c9082e",
    "tie 472": "3104cccd1b4ff04a",
    "tie 509": "29f5ca95a1b34070",
    "tie 511": "160d2fe4914c294c",
    "tie 530": "34aec28f0116eadb",
    "tie 547": "9992514c76b0c884",
    "tie 548": "6a4cd126d72f7aaf",
    "tie 597": "f0f7c22df6fd4c7f",
    "tie 630": "ad2405fb573477d2",
    "tie 700": "664c9102eb5f6df2",
    "tie 785": "5aa3fd0f6fbc064b",
    "tie 841": "677c1cbfddbb9dfe",
    "tie 846": "77b18e2997a8e65f",
}


def pinned_certificates():
    certs = {}
    for name in ("class3", "class4", "class44"):
        for bp in BIPARTITIONS:
            certs[f"tobl {name} {bp.name}"] = is_tobl(builtin(name), bp)
    for name in ("class3", "class4", "class44", "pr"):
        certs[f"local {name}"] = is_local(builtin(name))
    for target in (F(-5, 4), F(-5, 4) - F(1, 100), F(0)):
        certs[f"beale {target}"] = lp_feasible(LPProblem(8, tuple(BEALE + [(BEALE_OBJECTIVE, target)])))
    rng = random.Random(TIE_SEED)
    systems = [small_system(rng) for _ in range(max(TIE_CASES) + 1)]
    for k in TIE_CASES:
        certs[f"tie {k}"] = lp_feasible(systems[k])
    return {key: hashlib.sha256(cert.to_text().encode()).hexdigest()[:16] for key, cert in certs.items()}


def test_certificates_pinned():
    assert pinned_certificates() == PINNED_CERTIFICATES


# What the presolve does on each membership LP of the builtins: its step
# count, then the row it detects or the rows it leaves and the live left and
# right strategies of each family.  A presolve that reorders its rows or
# steps fails here on the LP and the count that moved.
PRESOLVE_TRACES = {
    "tobl class3 A|BC": "49 steps, detected at row 121",
    "tobl class3 B|AC": "17 steps, detected at row 57",
    "tobl class3 C|AB": "44 steps, 65 active rows, live (2, 1) (2, 1) (2, 1) (2, 1)",
    "tobl class4 A|BC": "48 steps, 65 active rows, live (1, 1) (1, 1) (1, 1) (1, 1)",
    "tobl class4 B|AC": "48 steps, 65 active rows, live (1, 1) (1, 1) (1, 1) (1, 1)",
    "tobl class4 C|AB": "48 steps, 65 active rows, live (1, 1) (1, 1) (1, 1) (1, 1)",
    "tobl class44 A|BC": "21 steps, detected at row 57",
    "tobl class44 B|AC": "21 steps, detected at row 57",
    "tobl class44 C|AB": "21 steps, detected at row 57",
    "local class3": "17 steps, detected at row 57",
    "local class4": "17 steps, detected at row 57",
    "local class44": "17 steps, detected at row 57",
    "local pr": "7 steps, detected at row 13",
}


def presolve_trace(problem):
    pre = _presolve(problem)
    if pre.detected is not None:
        return f"{len(pre.steps)} steps, detected at row {pre.detected}"
    live = " ".join(str(tuple(bin(mask).count("1") for mask in sides)) for sides in pre.live)
    return f"{len(pre.steps)} steps, {len(pre.active_rows)} active rows, live {live}"


@pytest.mark.parametrize("key", PRESOLVE_TRACES)
def test_presolve_trace_pinned(key):
    model, name, *bp = key.split()
    box = builtin(name)
    if model == "tobl":
        problem = tobl_problem(box, next(b for b in BIPARTITIONS if b.name == bp[0]))
    else:
        problem = local_problem(box)
    assert presolve_trace(problem) == PRESOLVE_TRACES[key]


def rescaled(rng, problem):
    """The same feasibility question with each column scaled by a positive
    fraction and each row by a nonzero one, so coefficients and right-hand
    sides get assorted denominators that differ from row to row."""
    col_scale = [F(rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(problem.num_vars)]
    rows = []
    for entries, rhs in problem.rows:
        r = F(rng.choice((1, -1)) * rng.randrange(1, 12), rng.randrange(1, 12))
        rows.append((tuple((col, r * coeff * col_scale[col]) for col, coeff in entries), r * rhs))
    return LPProblem(problem.num_vars, tuple(rows))


def live_columns(problem, pre):
    """The columns the presolve left: per family, its live left strategies
    times its live right strategies."""
    return {
        fam.base + i * len(fam.rights) + j
        for fam, (left_live, right_live) in zip(problem.columns.families, pre.live)
        for i in range(len(fam.lefts)) if left_live >> i & 1
        for j in range(len(fam.rights)) if right_live >> j & 1
    }


def expanded(problem, keep=None):
    """The LPProblem of a problem's column families, over the columns in
    keep only when given."""
    entries = [[] for _ in problem.rhs]
    for fam in problem.columns.families:
        for i, left in enumerate(fam.lefts):
            for j, right in enumerate(fam.rights):
                col = fam.base + i * len(fam.rights) + j
                if keep is None or col in keep:
                    for row, coeff in left + right:
                        entries[row].append((col, coeff))
    return LPProblem(problem.num_vars, tuple(zip(map(tuple, entries), problem.rhs)))


def phase1_agrees_with_oracle(problem):
    """_phase1 and the dense Fraction phase 1, run on the columns the
    presolve left, give equal dicts; returns "feasible" or "farkas", or None
    when the presolve decides alone."""
    pre = _presolve(problem)
    if pre.detected is not None:
        return None
    got = _phase1(problem, pre)
    reduced = expanded(problem, live_columns(problem, pre))
    assert got == lp_oracle.phase1(reduced, [True] * problem.num_vars, pre.active_rows)
    return "feasible" if got[1] is None else "farkas"


def test_phase1_matches_fraction_oracle_on_generic_systems():
    # The stream of TIE_CASES as it is (integers, negative right-hand sides,
    # ratio-test ties) and rescaled: one lcm for all rows keeps the pivot
    # path, where a scale per row or a skipped row update would not.
    rng = random.Random(TIE_SEED)
    scale_rng = random.Random(TIE_SEED + 1)
    outcomes = {}
    for k in range(max(TIE_CASES) + 1):
        problem = small_system(rng)
        for kind, system in (("integer", problem), ("fractional", rescaled(scale_rng, problem))):
            outcome = phase1_agrees_with_oracle(system)
            assert lp_feasible(system).to_text() == lp_oracle.solve(system)[0].to_text()
            outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    assert all(outcomes[kind, outcome] >= 150 for kind in ("integer", "fractional")
               for outcome in ("feasible", "farkas")), outcomes


def relabelled(rng, name):
    return relabel(
        builtin(name),
        Relabeling(
            tuple(rng.sample((0, 1, 2), 3)),
            tuple(rng.randrange(2) for _ in range(3)),
            tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3)),
        ),
    )


def six_digit_mixture(rng):
    """A relabelled extremal box mixed with 0-2 deterministic boxes, with
    weights of 6-digit numerators as in the benchmark's mixed workload."""
    boxes = [relabelled(rng, rng.choice(("class3", "class4", "class44")))]
    boxes += [builtin("deterministic({},{},{})".format(*(rng.randrange(4) for _ in range(3))))
              for _ in range(rng.randrange(3))]
    raw = [rng.randint(lo, 2 * lo) for lo in (200_000, 50_000, 50_000)[:len(boxes)]]
    return mix(boxes, [F(r, sum(raw)) for r in raw])


# The one-way cases are kept to reduced LPs of at most MAX_ONE_WAY_COLUMNS
# columns, as the dense oracle takes seconds on a few hundred.
MIX_SEED = 7
MAX_ONE_WAY_COLUMNS = 80


def test_phase1_matches_fraction_oracle_on_membership_lps():
    rng = random.Random(MIX_SEED)
    one_way = local = 0
    outcomes = set()
    while one_way < 10 or local < 10:
        box = six_digit_mixture(rng)
        bp = rng.choice(BIPARTITIONS)
        if local < 10:
            # Noise gives full support, so the presolve leaves the LP whole.
            a, b = rng.randint(100_000, 999_999), rng.randint(100_000, 999_999)
            noisy = mix((box, builtin("uniform3")), (F(a, a + b), F(b, a + b)))
            outcome = phase1_agrees_with_oracle(local_problem(noisy))
            local += outcome is not None
            outcomes.add(("local", outcome))
        problem = tobl_problem(box, bp)
        pre = _presolve(problem)
        if one_way < 10 and pre.detected is None:
            if len(live_columns(problem, pre)) <= MAX_ONE_WAY_COLUMNS:
                outcome = phase1_agrees_with_oracle(problem)
                one_way += outcome is not None
                outcomes.add(("one-way", outcome))
    assert {("local", "feasible"), ("local", "farkas"), ("one-way", "feasible")} <= outcomes


def coefficient(rng, sign):
    return F(sign * rng.randrange(1, 4), rng.randrange(1, 4))


def family_system(rng):
    """2-3 families of 1-4 strategies per side over 3-6 rows: each family
    splits the rows into left rows below a cut and right rows above it.
    Each family row gets one sign for all its coefficients or, one time in
    three, signs drawn per entry, so zero rows are same-sign, mixed-sign,
    or same-sign once other steps remove their mixed entries.  About a
    third of the right-hand sides are zero."""
    m = rng.randrange(3, 7)
    families = []
    base = 0
    for _ in range(rng.randrange(2, 4)):
        cut = rng.randrange(1, m)
        sides = []
        for rows in (range(cut), range(cut, m)):
            signs = {r: rng.choice((1, -1)) for r in rows}
            mixed = {r for r in rows if rng.random() < 1 / 3}
            sides.append(tuple(
                tuple((r, coefficient(rng, rng.choice((1, -1)) if r in mixed else signs[r]))
                      for r in rows if rng.random() < 0.5)
                for _ in range(rng.randrange(1, 5))
            ))
        families.append(Family(base, *sides))
        base += len(sides[0]) * len(sides[1]) + rng.randrange(2)
    rhs = tuple(F(0) if rng.random() < 1 / 3 else F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(m))
    return FamilyProblem(ColumnFamilies(base, m, tuple(families)), integer_scaled(rhs))


FAMILY_SEED = 4242


def test_family_systems_match_row_form_oracle_on_their_expansion():
    # The one-way LP has only +1 coefficients; these families put
    # mixed-sign fractional rows inside a family, and rows that families
    # share on different sides.
    rng = random.Random(FAMILY_SEED)
    outcomes = {}
    spanning = requeued_steps = 0
    for _ in range(400):
        problem = family_system(rng)
        rows = LPProblem(problem.num_vars, problem.rows)
        cert = lp_feasible(problem)
        want, outcome = lp_oracle.solve(rows)
        assert cert.to_text() == want.to_text()
        assert cert.verify(problem) and cert.verify(rows)
        assert lp_feasible(rows).to_text() == cert.to_text()
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        steps = _presolve(problem).steps
        assert [(r, s) for r, s, _ in steps] == [(r, s) for r, s, _ in lp_oracle.presolve(rows)[2]]
        spanning += any(len(parts) > 1 for _, _, parts in steps)
        # The first pass takes rows in order; a step on a row at or below
        # the one before it was taken when that row was queued again.
        requeued_steps += any(b <= a for (a, *_), (b, *_) in zip(steps, steps[1:]))
    assert all(outcomes.get(k, 0) >= 10 for k in ("arrival", "re-queue", "phase-1 farkas", "feasible")), outcomes
    assert spanning >= 10
    assert requeued_steps >= 10


def scaled_system(problem, rhs_factor, coeff_factor):
    """problem with its right-hand side times rhs_factor and every
    coefficient times coeff_factor."""
    families = tuple(
        Family(fam.base, *(tuple(tuple((r, c * coeff_factor) for r, c in strategy) for strategy in side)
                           for side in (fam.lefts, fam.rights)))
        for fam in problem.columns.families
    )
    return FamilyProblem(ColumnFamilies(problem.num_vars, problem.columns.num_rows, families),
                         integer_scaled(v * rhs_factor for v in problem.rhs))


@pytest.mark.parametrize("k", [3, F(7, 2), F(1, 6)], ids=["3", "7/2", "1/6"])
def test_solution_scales_with_b_and_inversely_with_a(k):
    # Phase 1 scales b and A by separate factors: b times k must give k
    # times the point, A times k the point over k, and both the same
    # pivots, so the same witness.
    rng = random.Random(FAMILY_SEED + 1)
    outcomes = set()
    for _ in range(100):
        problem = family_system(rng)
        cert = lp_feasible(problem)
        outcomes.add(cert.feasible)
        for rhs_factor, coeff_factor, point_factor in ((k, 1, k), (1, k, 1 / F(k))):
            got = lp_feasible(scaled_system(problem, rhs_factor, coeff_factor))
            if cert.feasible:
                assert got.point == tuple((col, v * point_factor) for col, v in cert.point)
            else:
                assert got.farkas == cert.farkas
    assert outcomes == {True, False}


def test_presolve_requeues_rows_of_a_dead_right_before_rows_of_a_later_left():
    # Row 3 kills family 0's one right, so columns 0 = (left 0, right 0) and
    # 1 = (left 1, right 0) die in that order: waiting row 2 (right 0's)
    # comes back before waiting row 1 (left 1's), and each is then a step.
    problem = FamilyProblem(ColumnFamilies(5, 4, (
        Family(0, (((0, 1),), ((1, -1),)), (((2, -1), (3, 1)),)),
        Family(2, (((2, 1),),), ((),)),
        Family(3, (((1, 1),),), ((),)),
        Family(4, (((0, 1),),), ((),)),
    )), (1, (1, 0, 0, 0)))
    steps = [(r, s) for r, s, _ in _presolve(problem).steps]
    assert steps == [(3, 1), (2, 1), (1, 1)]
    assert steps == [(r, s) for r, s, _ in lp_oracle.presolve(LPProblem(5, problem.rows))[2]]
    assert lp_feasible(problem).point == ((4, 1),)


@pytest.mark.parametrize("name", ["class3", "class4", "class44", "pr", "uniform3"])
def test_local_presolve_requeues_rows_as_the_row_form_oracle(name):
    problem = local_problem(builtin(name))
    rows = LPProblem(problem.num_vars, problem.rows)
    steps = _presolve(problem).steps
    assert [(r, s) for r, s, _ in steps] == [(r, s) for r, s, _ in lp_oracle.presolve(rows)[2]]


def test_family_structure_is_validated():
    with pytest.raises(LPError):  # a left row after a right row
        Family(0, (((2, 1),),), (((1, 1),),))
    with pytest.raises(LPError):  # rows not ascending
        Family(0, (((1, 1), (0, 1)),), ((),))
    with pytest.raises(LPError):
        Family(0, (((0, 0),),), ((),))
    with pytest.raises(InexactValueError):
        Family(0, (((0, 0.5),),), ((),))
    fam = Family(0, (((0, 1),), ((1, 1),)), (((2, 1),),))
    with pytest.raises(LPError):  # overlapping families
        ColumnFamilies(4, 3, (fam, Family(1, (((0, 1),),), ((),))))
    with pytest.raises(LPError):  # row out of range
        ColumnFamilies(2, 2, (fam,))
    with pytest.raises(LPError):  # column out of range
        ColumnFamilies(1, 3, (fam,))
    columns = ColumnFamilies(2, 3, (fam,))
    assert FamilyProblem(columns, (2, (1, 2, 0))).rhs == (F(1, 2), 1, 0)
    # the right-hand side is its integer view (beta, B) in lowest terms
    for view in ((F(1), F(1), F(1)), (1,), (1, (1, 1, 1), 1), [1, (1, 1, 1)], (1, [1, 1, 1]), (1, 1)):
        with pytest.raises(LPError):  # not a pair (beta, B) with B a tuple
            FamilyProblem(columns, view)
    for view in ((0, (0, 0, 0)), (-1, (1, 1, 1)), (1, (1, 1)), (2, (2, 4, 0)), (6, (2, 4, 0))):
        with pytest.raises(LPError):  # beta < 1, a row missing, not in lowest terms
            FamilyProblem(columns, view)
    for view in ((1, (1, 1, 1.0)), (1, (1, True, 1)), (F(1), (1, 1, 1)), (True, (1, 1, 1)), (1, (F(1), 1, 1))):
        with pytest.raises(InexactValueError):
            FamilyProblem(columns, view)


@pytest.mark.parametrize(
    "value", [0.5, True, "1", Decimal(1), 1j], ids=["float", "bool", "str", "Decimal", "complex"]
)
def test_inexact_certificate_values_rejected(value):
    # x0 + x1 = 1 would verify at (1/2, 1/2); a float or a bool must not
    # stand in for an exact value, in a point or in a Farkas witness.
    with pytest.raises(InexactValueError):
        LPCertificate(True, ((0, value), (1, F(1, 2))), None)
    with pytest.raises(InexactValueError):
        LPCertificate(False, None, ((0, value),))


def test_row_problem_is_one_family():
    # LPProblem builds the FamilyProblem whose one family's lefts are the
    # columns; its rows read back as the nonzero entries, columns ascending.
    problem = LPProblem(3, ((((2, F(1)), (0, 0), (1, F(-2))), F(1)), (((0, 3),), 0)))
    assert isinstance(problem, FamilyProblem)
    (fam,) = problem.columns.families
    assert (fam.base, fam.lefts, fam.rights) == (0, (((1, 3),), ((0, F(-2)),), ((0, F(1)),)), ((),))
    assert problem.rhs == (F(1), 0)
    assert problem.rows == ((((1, F(-2)), (2, F(1))), F(1)), (((0, 3),), 0))
    assert problem == LPProblem(3, problem.rows)
    assert problem != LPProblem(3, ((((1, F(-2)), (2, F(1))), F(2)), (((0, 3),), 0)))


def test_row_problem_states_its_integer_view():
    # LPProblem states its right-hand sides by integer_scaled of them, so
    # equal values give equal problems whatever their spelling, and rhs
    # reads them back as Fractions.
    entries = (((0, 1),), ((0, 1), (1, 1)), ((1, -1),), ((0, 2),))
    problem = LPProblem(2, tuple(zip(entries, (F(1, 3), 0, F(-1, 2), 2))))
    assert problem.scaled == (6, (2, 0, -3, 12))
    assert problem.rhs == (F(1, 3), 0, F(-1, 2), 2)
    assert all(type(v) is Fraction for v in problem.rhs)
    assert problem == LPProblem(2, tuple(zip(entries, (F(2, 6), F(0), F(-2, 4), F(4, 2)))))
    assert LPProblem(0, ()).scaled == (1, ())
    # the sign of a row detected empty comes from B
    assert lp_feasible(LPProblem(1, (((), F(-1, 3)),))).farkas == ((0, -1),)


@pytest.mark.parametrize("key", [True, 0.0, "0", None], ids=["bool", "float", "str", "None"])
def test_certificate_keys_must_be_ints(key):
    # A bool would pass for a column (True as column 1), and the others
    # would reach verify and raise a bare TypeError there.
    with pytest.raises(LPError):
        LPCertificate(True, ((key, F(1, 2)), (2, F(1, 2))), None)
    with pytest.raises(LPError):
        LPCertificate(False, None, ((key, F(1)),))
    # a verdict spelled as text, pairs that are not (key, value) pairs, and
    # verify on something that is not a problem used to be accepted or raise
    # a bare TypeError, ValueError or AttributeError
    with pytest.raises(LPError):
        LPCertificate(str(key), ((0, 1),), None)
    for pairs in ((key,), ((key,),), ((0, 1, key),)):
        with pytest.raises(LPError):
            LPCertificate(True, pairs, None)
    with pytest.raises(LPError):
        LPCertificate(True, ((0, 1),), None).verify(key)
    # only None means absent: 0, "" and False used to read as no pairs
    for absent in (0, "", False):
        with pytest.raises(LPError):
            LPCertificate(True, absent, None)
        with pytest.raises(LPError):
            LPCertificate(False, None, absent)
    # a certificate carries only its own kind of vector: a feasible one with
    # a witness, or an infeasible one with a point, used to construct, and
    # to_text dropped the other vector
    for other in (((0, 1),), ()):
        with pytest.raises(LPError):
            LPCertificate(True, ((0, 1),), other)
        with pytest.raises(LPError):
            LPCertificate(False, other, ((0, 1),))


@pytest.mark.parametrize(
    "index", [True, 1.0, 0.5, "1", None], ids=["bool", "integral float", "float", "str", "None"]
)
def test_lp_indices_must_be_ints(index):
    # True used to be read as column or row 1, and the others raised a bare
    # TypeError when the problem was built or solved.
    with pytest.raises(LPError):
        LPProblem(2, ((((index, 1),), 1),))
    with pytest.raises(LPError):
        Family(0, (((index, 1),),), ((),))
    # the same for the number of columns, and rows or entries that are not a
    # tuple of pairs
    with pytest.raises(LPError):
        LPProblem(index, ((((0, 1),), 1),))
    for rows in (index, ((index, 1),), (((index,), 1),)):
        with pytest.raises(LPError):
            LPProblem(1, rows)


def test_certificate_keys_listed_once():
    # verify reads the pairs through dict(), which keeps the last value of a
    # repeated key: ((0, 0), (0, 1)) would verify on x0 + x1 = 1 while its
    # text lists column 0 twice.
    problem, _ = solve(2, [(((0, 1), (1, 1)), 1)])
    assert LPCertificate(True, ((0, 1),), None).verify(problem)
    with pytest.raises(LPError):
        LPCertificate(True, ((0, 0), (0, 1)), None)
    with pytest.raises(LPError):
        LPCertificate(False, None, ((0, -1), (0, 1)))
