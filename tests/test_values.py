"""The value types: fields, equality, hashing, repr, construction and
immutability of every `boxes._Value` subclass, and what importing the CLI
loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nsboxes
from nsboxes import builtin, dumps, loads, validate
from nsboxes.bell import GyniWeights, IcVerdict
from nsboxes.boxes import Box2, Box3, ValidationReport, _Table, _Value
from nsboxes.cli import TableRow
from nsboxes.lp import ColumnFamilies, Family, FamilyProblem, LPCertificate
from nsboxes.wiring import Bipartition, Wiring

BP = Bipartition(0, (1, 2))
FAMILY = Family(0, (((0, 1),), ((1, 1),)), (((2, 1),),))
COLUMNS = ColumnFamilies(2, 3, (FAMILY,))

# class -> (field names, field values); the values are as __post_init__
# leaves them, so the fields read back as given.
CASES = {
    Box3: (("table",), (builtin("class3").table,)),
    Box2: (("table",), (builtin("pr").table,)),
    ValidationReport: (
        ("negative_entries", "normalization_failures", "signalling_failures"),
        ((((0, 0), (0, 0), Fraction(-1, 2)),), (((0, 0), Fraction(1, 2)),), ()),
    ),
    Family: (("base", "lefts", "rights"), (0, (((0, 1),), ((1, 1),)), (((2, 1),),))),
    ColumnFamilies: (("num_vars", "num_rows", "families"), (2, 3, (FAMILY,))),
    FamilyProblem: (("columns", "scaled"), (COLUMNS, (2, (1, 1, 2)))),
    LPCertificate: (("feasible", "point", "farkas"), (False, None, ((0, Fraction(-1, 2)), (3, 1)))),
    Bipartition: (("solo", "pair"), (0, (1, 2))),
    Wiring: (("bipartition", "ordering", "alpha", "beta", "gamma"), (BP, 1, 2, 15, 102)),
    IcVerdict: (("violated", "witness", "value"), (True, "chsh", Fraction(3))),
    GyniWeights: (("q",), (GyniWeights.uniform_even_parity().q,)),
    TableRow: (("cls", "encoding", "chsh", "uffink"), (3, "bp=A|BC order=C,B alpha=3 beta=6 gamma=85", "3", "9/2")),
}
TYPES = list(CASES)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_type_has_a_case():
    assert set(_subclasses(_Value)) - {_Table} == set(CASES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_value_contract(cls):
    names, values = CASES[cls]
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values
    twin = cls(*values)
    assert twin is not x and twin == x and not twin != x and hash(twin) == hash(x)
    # the hash dataclasses gave, so set and dict orders stay as they were
    assert hash(x) == hash(values)
    assert x != values and not x == values
    other = TYPES[(TYPES.index(cls) + 1) % len(TYPES)]
    assert x != other(*CASES[other][1])
    assert cls(**dict(zip(names, values))) == x
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == x
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    names, values = CASES[cls]
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="takes"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, extra=1)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_values_are_immutable(cls):
    names, values = CASES[cls]
    x = cls(*values)
    # vars(x) adds what is not a field, such as a box's integer view
    for name in {*names, *vars(x), "other"}:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values


def test_literal_reprs():
    """Error messages embed these; the texts are the dataclass ones."""
    assert repr(BP) == "Bipartition(solo=0, pair=(1, 2))"
    assert repr(Wiring(*CASES[Wiring][1])) == (
        "Wiring(bipartition=Bipartition(solo=0, pair=(1, 2)), ordering=1, alpha=2, beta=15, gamma=102)")
    assert repr(LPCertificate(*CASES[LPCertificate][1])) == (
        "LPCertificate(feasible=False, point=None, farkas=((0, Fraction(-1, 2)), (3, 1)))")


def test_normalised_fields_and_cached_properties_fill():
    box = Box2(list(map(str, builtin("pr").table)))
    assert box == builtin("pr") and type(box.table) is tuple
    assert vars(box)["scaled"] == (2, (1, 0, 0, 1) * 3 + (0, 1, 1, 0))
    # a box read from a file holds its view alone until its table is read
    loaded = loads(dumps(box))
    for x, name in ((box, "report"), (loaded, "table")):
        assert name not in vars(x)
        value = getattr(x, name)
        assert vars(x)[name] is value
    assert loaded.table == box.table
    assert box.report is validate(box) and box.report.is_valid
    problem = FamilyProblem(*CASES[FamilyProblem][1])
    assert "rhs" not in vars(problem)
    assert problem.rhs == (Fraction(1, 2), Fraction(1, 2), 1) and vars(problem)["rhs"] is problem.rhs
    assert GyniWeights(["1/4", 0, 0, "1/4", 0, "1/4", "1/4", 0]) == GyniWeights.uniform_even_parity()


def test_importing_the_cli_loads_neither_dataclasses_importlib_resources_nor_pathlib():
    """In a fresh interpreter without site, whose .pth files may import
    importlib.resources or pathlib first: files are opened by path strings,
    and no value type generates code at import."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import nsboxes.cli; print(*sorted(set(sys.modules) - before))")
    src = str(Path(nsboxes.__file__).resolve().parent.parent)
    added = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True,
                           check=True, timeout=60).stdout.split()
    assert "nsboxes.cli" in added
    assert not {"dataclasses", "importlib.resources", "pathlib"} & set(added)
