"""Command line surface.

Subcommands: validate, eval, wire, search, membership, table1.  Box arguments
are file paths or `builtin:<name>` pseudo-paths.  Every printed value is an
exact rational (`num/den`, plain integer when the denominator is 1); runs are
deterministic, including search tie-breaking.

Exit codes: 0 success, 1 domain failure (invalid box, wrong arity), 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from . import bell
from .boxes import (
    Box3,
    BoxError,
    ParseError,
    UnknownBuiltinError,
    _read_text,
    _require2,
    _require3,
    builtin,
    dumps,
    load,
    require_valid,
    validate,
)
from .lp import LPError
from .membership import is_local, is_tobl
from .wiring import Bipartition, Wiring, apply_wiring, search_max_all

_BUILTIN_PREFIX = "builtin:"


def _load_box(ref: str):
    """Box from a file path or a builtin: pseudo-path; no validation yet."""
    if ref.startswith(_BUILTIN_PREFIX):
        return builtin(ref[len(_BUILTIN_PREFIX):])
    path = Path(ref)
    if not path.is_file():
        raise ParseError(f"no such box file: {ref}")
    return load(path, check=False)


def _box_stem(ref: str) -> str:
    """A default certificate's stem: a box file's stem, or the name that
    builtin() resolves, stripped, with unsafe characters as '_'."""
    if ref.startswith(_BUILTIN_PREFIX):
        name = ref[len(_BUILTIN_PREFIX):].strip()
        return re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    return Path(ref).stem


def _write(path, text: str) -> None:
    """Write an output file; an unwritable path is a usage error (exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc.strerror or exc}") from exc


def _verdict_text(v: bell.IcVerdict) -> str:
    if not v.violated:
        return "no witness"
    return "IC violated (CHSH)" if v.witness == "chsh" else "IC violated (Uffink)"


def cmd_validate(args) -> int:
    box = _load_box(args.box)
    report = validate(box)
    if report.is_valid:
        print(f"valid box{box.n_parties}")
        return 0
    for line in report.lines():
        print(line)
    return 1


def cmd_eval(args) -> int:
    if args.q is not None and args.functional != "gyni":
        raise _Usage("--q applies to --functional gyni only")
    box = _load_box(args.box)
    require_valid(box)
    functional = args.functional
    if functional in ("chsh", "chsh-max", "uffink", "uffink-max"):
        print(getattr(bell, functional.replace("-", "_"))(_require2(box, functional)))
        return 0
    if functional == "k":
        print(bell.k_value(_require3(box, "k")))
        return 0
    # gyni
    box = _require3(box, "gyni")
    if args.q is None:
        weights = bell.GyniWeights.uniform_even_parity()
    else:
        qpath = Path(args.q)
        if not qpath.is_file():
            raise ParseError(f"no such weights file: {args.q}")
        weights = bell.parse_gyni_weights(_read_text(qpath))
    value = bell.gyni_value(box, weights)
    bound = bell.gyni_bound(weights)
    print(f"value = {value}")
    print(f"bound = {bound}")
    print("violation" if value > bound else "no violation")
    return 0


def cmd_wire(args) -> int:
    box = _require3(_load_box(args.box), "wire")
    wiring = Wiring.parse(args.wiring)
    eff = apply_wiring(box, wiring)
    chsh_v, uffink_v = bell.chsh_max(eff), bell.uffink_max(eff)
    verdict = bell.IcVerdict.from_values(chsh_v, uffink_v)
    summary = f"chsh_max = {chsh_v}, uffink_max = {uffink_v}, {_verdict_text(verdict)}"
    text = dumps(eff)
    if args.out is not None:
        _write(args.out, text)
        print(summary)
    else:
        # Keep stdout parseable as a box file: the summary rides along as a
        # comment line.
        sys.stdout.write(text)
        print(f"# {summary}")
    return 0


def cmd_search(args) -> int:
    box = _require3(_load_box(args.box), "search")
    names = (
        ("chsh_max", "uffink_max")
        if args.functional == "both"
        else (args.functional.replace("-", "_"),)
    )
    results = search_max_all(box, names)
    parts = [f"{name} = {results[name][1]}" for name in names]
    if args.functional == "both":
        verdict = bell.IcVerdict.from_values(
            results["chsh_max"][1], results["uffink_max"][1]
        )
        parts.append(_verdict_text(verdict))
    print(", ".join(parts))
    for name in names:
        print(f"{name} wiring: {results[name][0].encode()}")
    return 0


def cmd_membership(args) -> int:
    if args.bipartition is not None and args.model != "tobl":
        raise _Usage("--bipartition applies to --model tobl only")
    box = _load_box(args.box)
    if args.model == "ns":
        report = validate(box)
        feasible = report.is_valid
        cert_text = "feasible\n" if feasible else (
            "infeasible\n" + "".join(line + "\n" for line in report.lines())
        )
        suffix = "ns"
    else:
        if args.model == "local":
            cert = is_local(box)
            suffix = "local"
        else:
            try:
                if args.bipartition is None:
                    raise _Usage("--model tobl requires --bipartition")
                bp = Bipartition.from_name(args.bipartition)
            except (_Usage, ParseError):
                require_valid(box)  # an invalid box is reported first (exit 1)
                raise
            cert = is_tobl(_require3(box, "tobl"), bp)
            suffix = f"tobl.{bp.name.replace('|', '-')}"
        feasible = cert.feasible
        cert_text = cert.to_text()
    cert_path = (
        Path(args.certificate)
        if args.certificate is not None
        else Path(f"{_box_stem(args.box)}.{suffix}.cert")
    )
    _write(cert_path, cert_text)
    print("feasible" if feasible else "infeasible")
    print(f"certificate: {cert_path}")
    return 0


@dataclass(frozen=True)
class TableRow:
    """One row of the bundled violation table; recorded values stay verbatim
    strings ('-' where absent) so the report echoes them untouched.  The
    TSV's formula, aprime and bprime columns are not read."""

    cls: int
    encoding: str | None
    chsh: str
    uffink: str


@cache
def load_table_rows() -> tuple[TableRow, ...]:
    """The rows of the packaged table1.tsv, read once per process; the
    rows are frozen, so every caller shares them."""
    text = resources.files("nsboxes").joinpath("table1.tsv").read_text()
    rows = []
    header = None
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = fields
            continue
        cls, _formula, _aprime, _bprime, encoding, chsh, uffink = fields
        rows.append(TableRow(int(cls), None if encoding == "-" else encoding, chsh, uffink))
    return tuple(rows)


# ASCII digits only, as in Wiring.parse (\d takes any script's digits).
_CLASS_FILE_RE = re.compile(r"class([0-9]+)\.box")

_TABLE_HEADER = "class\twiring\tchsh\tuffink\tpaper_chsh\tpaper_uffink\tflag"


def _collect_boxes(boxes_dir: str | None, classes) -> dict[int, Box3]:
    """The boxes to report, by class: the builtins, or each classNN.box in
    boxes_dir.  A file whose class has no row in `classes`, or that names
    the same class as another file (class07.box and class7.box), is a
    ParseError."""
    if boxes_dir is None:
        return {
            3: builtin("class3"),
            4: builtin("class4"),
            44: builtin("class44"),
        }
    root = Path(boxes_dir)
    if not root.is_dir():
        raise _Usage(f"no such directory: {boxes_dir}")
    paths = {}
    for path in sorted(root.iterdir()):
        m = _CLASS_FILE_RE.fullmatch(path.name)
        if not m:
            continue
        cls = int(m.group(1))
        if cls not in classes:
            raise ParseError(f"{path}: table1.tsv has no class {cls}")
        if cls in paths:
            raise ParseError(f"{paths[cls]} and {path} both name class {cls}")
        paths[cls] = path
    return {cls: load(path, check=False) for cls, path in paths.items()}


def _flag(computed: Fraction, recorded: str, threshold_exceeded: bool) -> str:
    """Compare one computed value with its recorded counterpart.

    A recorded '-' asserts no violation by that functional, so a computed
    value past the violation threshold contradicts it.
    """
    if recorded == "-":
        return ">" if threshold_exceeded else "ok"
    ref = Fraction(recorded)
    if computed == ref:
        return "ok"
    return ">" if computed > ref else "<"


def _table1_line(row: TableRow, box: Box3) -> str:
    if row.encoding is not None:
        eff = apply_wiring(box, Wiring.parse(row.encoding))
        chsh_v = bell.chsh_max(eff)
        uffink_v = bell.uffink_max(eff)
        wiring_text = row.encoding
    else:
        results = search_max_all(box)
        chsh_v = results["chsh_max"][1]
        uffink_v = results["uffink_max"][1]
        wiring_text = "search"
    chsh_broken, uffink_broken = bell._ic_bounds_broken(chsh_v, uffink_v)
    flags = {_flag(chsh_v, row.chsh, chsh_broken), _flag(uffink_v, row.uffink, uffink_broken)}
    flags.discard("ok")
    flag = "ok" if not flags else ("!=" if len(flags) == 2 else flags.pop())
    return f"{row.cls}\t{wiring_text}\t{chsh_v}\t{uffink_v}\t{row.chsh}\t{row.uffink}\t{flag}"


def cmd_table1(args) -> int:
    rows = load_table_rows()
    boxes = _collect_boxes(args.boxes, {row.cls for row in rows})
    # Every row is built before any is printed, so a box that fails leaves
    # stdout empty.
    lines = [_TABLE_HEADER]
    for row in rows:
        if row.cls in boxes:
            lines.append(_table1_line(row, _require3(boxes[row.cls], f"class {row.cls}")))
    print("\n".join(lines))
    return 0


class _Usage(Exception):
    """Usage-level failure discovered after argparse (exit 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsboxes",
        description="Exact manipulation of tripartite no-signalling boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a box file")
    p.add_argument("box", help="box file or builtin:<name>")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a functional on a box")
    p.add_argument("box", help="box file or builtin:<name>")
    p.add_argument(
        "--functional",
        required=True,
        choices=["chsh", "chsh-max", "uffink", "uffink-max", "k", "gyni"],
    )
    p.add_argument("--q", help="guess-your-neighbour weights file (gyni only)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wire", help="apply a wiring to a tripartite box")
    p.add_argument("box", help="box file or builtin:<name>")
    p.add_argument("--wiring", required=True, help="wiring encoding string")
    p.add_argument("--out", help="write the effective box here instead of stdout")
    p.set_defaults(func=cmd_wire)

    p = sub.add_parser("search", help="maximize a functional over all wirings")
    p.add_argument("box", help="box file or builtin:<name>")
    p.add_argument(
        "--functional",
        default="both",
        choices=["chsh-max", "uffink-max", "both"],
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("membership", help="exact LP membership tests")
    p.add_argument("box", help="box file or builtin:<name>")
    p.add_argument("--model", required=True, choices=["local", "ns", "tobl"])
    p.add_argument("--bipartition", help="A|BC, B|AC or C|AB (tobl only)")
    p.add_argument("--certificate", help="certificate output path")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("table1", help="violation report over known classes")
    p.add_argument(
        "--boxes",
        help="directory of classNN.box files; default: built-in classes only",
    )
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_Usage, ParseError, UnknownBuiltinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoxError, LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
