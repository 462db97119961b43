"""Acceptance gate: one test per shipped guarantee, all exact arithmetic.

Run with -v for one pass/fail line per criterion.
"""

import random
from fractions import Fraction

from nsboxes import (
    BIPARTITIONS,
    Box2,
    GyniWeights,
    builtin,
    chsh_max,
    correlator_table,
    gyni_bound,
    gyni_value,
    is_local,
    is_tobl,
    k_value,
    search_max_all,
    tobl_problem,
    uffink_max,
    validate,
)
from box_oracle import Relabeling, all_relabelings2, relabel
from class4_model import class4_tobl_model
from nsboxes.cli import load_table_rows
from random_boxes import random_ns_box2
from sos_identity import sos_identity_check
from wiring_oracle import distinct_effective_boxes

SEED = 60601

ROW_ENCODINGS = {row.cls: row.encoding for row in load_table_rows()}


def test_criterion_1_class3_wiring_values():
    from nsboxes import Wiring, apply_wiring

    eff = apply_wiring(builtin("class3"), Wiring.parse(ROW_ENCODINGS[3]))
    assert correlator_table(eff) == (1, 1, 1, 0)
    assert chsh_max(eff) == 3
    assert uffink_max(eff) == 5


def test_criterion_2_class44_wiring_yields_pr():
    from nsboxes import Wiring, apply_wiring

    eff = apply_wiring(builtin("class44"), Wiring.parse(ROW_ENCODINGS[44]))
    assert eff.table == builtin("pr").table
    assert chsh_max(eff) == 4
    assert uffink_max(eff) == 8


def test_criterion_3_class4_exhaustive_search_stays_local():
    box = builtin("class4")
    distinct = distinct_effective_boxes(box)
    effective = [Box2(t) for t in distinct]
    assert max(chsh_max(b) for b in effective) == 2
    assert max(uffink_max(b) for b in effective) == 4
    for b in effective:
        assert is_local(b).feasible
    # the search API reports the same maxima with its own sweep
    results = search_max_all(box)
    assert results["chsh_max"][1] == 2
    assert results["uffink_max"][1] == 4


def test_criterion_4_quantum_witness_values():
    assert k_value(builtin("class4")) == -1
    for t in range(64):
        ta, tb, tc = (t >> 4) & 3, (t >> 2) & 3, t & 3
        assert k_value(builtin(f"deterministic({ta},{tb},{tc})")) >= 0
    assert sos_identity_check()


def test_criterion_5_class4_one_way_models():
    box = builtin("class4")
    for bp in BIPARTITIONS:
        cert = is_tobl(box, bp)
        assert cert.feasible, bp.name
        problem = tobl_problem(box, bp)
        assert cert.verify(problem)
        # the two-bit-seed model is a second certificate of the same LP
        model = class4_tobl_model(bp)
        assert model.verify(problem)
        reading = problem.row_sums(model.point)
        assert reading[:64] == reading[64:128] == box.table


def test_criterion_6_class44_one_way_infeasible():
    box = builtin("class44")
    bp = BIPARTITIONS[0]
    cert = is_tobl(box, bp)
    assert not cert.feasible
    assert cert.farkas
    assert cert.verify(tobl_problem(box, bp))


def test_criterion_7_gyni_bound():
    box = builtin("class4")
    canonical = GyniWeights.uniform_even_parity()
    assert gyni_value(box, canonical) == gyni_bound(canonical) == Fraction(1, 4)
    rng = random.Random(SEED)
    checked = 0
    while checked < 1000:
        raw = [Fraction(rng.randrange(0, 16)) for _ in range(8)]
        total = sum(raw)
        if total == 0:
            continue
        weights = GyniWeights(tuple(v / total for v in raw))
        assert gyni_value(box, weights) <= gyni_bound(weights)
        checked += 1


def test_criterion_8_local_iff_chsh_within_two():
    for name in ("pr", "uniform2"):
        box = builtin(name)
        assert is_local(box).feasible == (chsh_max(box) <= 2)
    rng = random.Random(SEED + 1)
    for _ in range(500):
        box = random_ns_box2(rng)
        assert is_local(box).feasible == (chsh_max(box) <= 2)


def test_criterion_9_structural_properties():
    # every wiring of every tripartite builtin yields a valid bipartite box
    names = ("class3", "class4", "class44", "uniform3", "deterministic(1,2,3)")
    for name in names:
        box = builtin(name)
        for table in distinct_effective_boxes(box):
            report = validate(Box2(table))
            assert report.is_valid, (name, report.lines())
    # orbit functionals are relabeling invariants
    rng = random.Random(SEED + 2)
    rels = all_relabelings2()
    for _ in range(200):
        box = random_ns_box2(rng)
        image = relabel(box, rng.choice(rels))
        assert chsh_max(image) == chsh_max(box)
        assert uffink_max(image) == uffink_max(box)
    # the parity-constrained class is fixed by cycling the parties
    cyc = Relabeling((1, 2, 0), (0, 0, 0), ((0, 0), (0, 0), (0, 0)))
    assert relabel(builtin("class4"), cyc).table == builtin("class4").table
