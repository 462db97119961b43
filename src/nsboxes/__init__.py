"""Exact-arithmetic toolkit for tripartite no-signalling boxes.

Boxes are tables of rational conditional probabilities.  The package builds
the standard extremal examples, wires two parties of a tripartite box into
an effective bipartite box, evaluates Bell functionals over the full
relabelling orbit, and decides membership in the local and one-way
time-ordered sets by exact linear programming with checkable certificates.
"""

from .bell import (
    GyniWeights,
    IcVerdict,
    chsh,
    chsh_max,
    correlator_table,
    gyni_bound,
    gyni_value,
    k_value,
    parse_gyni_weights,
    uffink,
    uffink_max,
)
from .boxes import (
    ArityError,
    Box2,
    Box3,
    BoxError,
    InexactValueError,
    InvalidBoxError,
    ParseError,
    UnknownBuiltinError,
    ValidationReport,
    builtin,
    correlator,
    dump,
    dumps,
    load,
    loads,
    mix,
    require_valid,
    validate,
)
from .lp import LPCertificate, LPError, lp_feasible
from .membership import is_local, is_tobl, local_problem, tobl_problem
from .wiring import (
    BIPARTITIONS,
    Bipartition,
    Wiring,
    apply_wiring,
    enumerate_wirings,
    search_max_all,
)

__version__ = "0.1.0"

__all__ = [
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
    "ParseError",
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
