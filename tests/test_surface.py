"""The package's public names, and the names that the benchmark set-up and
the CI smoke runs reach.  A removal that would break perfbench/run.py's
set-up fails here, not in a benchmark run."""

import pytest

import nsboxes
from nsboxes import bell, boxes, cli, lp, membership, wiring

PUBLIC = [
    "ArityError",
    "BIPARTITIONS",
    "Bipartition",
    "Box2",
    "Box3",
    "BoxError",
    "GyniWeights",
    "IcVerdict",
    "InexactValueError",
    "InvalidBoxError",
    "LPCertificate",
    "LPError",
    "LPProblem",
    "ParseError",
    "Relabeling",
    "RelabelingError",
    "UnknownBuiltinError",
    "ValidationReport",
    "Wiring",
    "apply_wiring",
    "builtin",
    "chsh",
    "chsh_max",
    "correlator",
    "correlator_table",
    "dump",
    "dumps",
    "enumerate_wirings",
    "gyni_bound",
    "gyni_value",
    "is_local",
    "is_tobl",
    "k_value",
    "load",
    "loads",
    "local_problem",
    "lp_feasible",
    "mix",
    "parse_gyni_weights",
    "require_valid",
    "search_max_all",
    "tobl_problem",
    "uffink",
    "uffink_max",
    "validate",
]

# What only tests used; it lives in tests/ (box_oracle, class4_model,
# sos_identity, wiring_oracle) or is gone.
REMOVED = [
    "SignallingError",
    "all_relabelings2",
    "class4_tobl_model",
    "dumps_gyni_weights",
    "ic_witness",
    "lambda_index",
    "marginal",
    "relabel",
    "sos_identity_check",
    "_sos_residual",
    "_times",
    "_tt1",
    "_tt2",
]

MODULES = [nsboxes, bell, boxes, cli, lp, membership, wiring]

# (owner, attribute) pairs that perfbench/run.py and the CI workflow read,
# and those that perfbench/spans.py wraps in traced runs (a name it cannot
# find it skips, and its spans then read 0).
REACHED = [
    (wiring, "BIPARTITIONS"),
    (wiring, "enumerate_wirings"),
    (bell, "chsh_max"),
    (boxes, "builtin"),
    (membership, "local_problem"),
    (membership, "tobl_problem"),
    (membership, "lp_feasible"),
    (lp.LPCertificate, "verify"),
    (lp.FamilyProblem, "rows"),
    (cli, "main"),
    (nsboxes, "dump"),
    (nsboxes, "mix"),
    *((cli, name) for name in (
        "dumps", "validate", "apply_wiring", "search_max_all", "is_local", "is_tobl",
    )),
    (boxes, "validate"),
    *((bell, name) for name in ("chsh", "uffink", "uffink_max", "k_value", "gyni_value")),
]


def test_public_names_pinned():
    assert sorted(nsboxes.__all__) == PUBLIC
    assert all(hasattr(nsboxes, name) for name in PUBLIC)


def test_test_only_names_left_the_package():
    for name in REMOVED:
        assert not any(hasattr(module, name) for module in MODULES), name
    assert not hasattr(boxes.Box3, "from_function")
    assert not hasattr(wiring.Wiring, "is_type_i")


@pytest.mark.parametrize("owner, name", REACHED, ids=lambda v: getattr(v, "__name__", v))
def test_names_the_benchmark_and_ci_reach_exist(owner, name):
    assert hasattr(owner, name)


def test_benchmark_wiring_set_up_runs():
    # perfbench/run.py's set-up calls enumerate_wirings on each bipartition,
    # and perfbench/spans.py counts a traced call's wirings with len().
    assert [len(wiring.enumerate_wirings(bp)) for bp in wiring.BIPARTITIONS] == [32768] * 3
