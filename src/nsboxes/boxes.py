"""Exact conditional-probability boxes for two and three binary-input parties.

A tripartite box stores the 64 probabilities P(abc|xyz) with every party
holding one input bit and one output bit; a bipartite box stores the 16
probabilities P(ab|xy).  All values are `fractions.Fraction`, nothing in this
package ever touches floating point.

Index conventions used everywhere (inputs most significant, parties in order
A, B, C):

    Box3 flat index = 32*x + 16*y + 8*z + 4*a + 2*b + c
    Box2 flat index =  8*x +  4*y + 2*a + b

Outputs map to dichotomic observables as 0 -> +1, 1 -> -1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat

BITS = (0, 1)
PARTY_NAMES = "ABC"

ZERO = Fraction(0)
ONE = Fraction(1)


class BoxError(Exception):
    """Base class for errors raised by the box layer."""


class ArityError(BoxError):
    """Table length or party count does not match the box type."""


class InvalidBoxError(BoxError):
    """A box required to be a valid no-signalling box is not.

    Carries the offending ValidationReport as `.report`.
    """

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(report.lines()) or "invalid box")


class SignallingError(BoxError):
    """A marginal is ill defined because it depends on a traced input."""


class ContradictionError(BoxError):
    """A constraint set admits no output for some input assignment."""


class ParseError(BoxError):
    """A box or weight file does not follow the documented format."""


class UnknownBuiltinError(BoxError):
    """Requested builtin box name is not recognized."""


class InexactValueError(BoxError):
    """A float was given where an exact value is needed."""


def exact_values(values) -> tuple[Fraction, ...]:
    """Fractions of ints, Fractions or decimal strings.

    Floats are refused: Fraction(0.1) is the binary expansion
    3602879701896397/36028797018963968, not 1/10.
    """
    values = tuple(values)
    if any(map(isinstance, values, repeat(float))):
        bad = next(v for v in values if isinstance(v, float))
        raise InexactValueError(f"inexact float value {bad!r}; pass a Fraction, an int or a string")
    return tuple(map(Fraction, values))


def index3(a: int, b: int, c: int, x: int, y: int, z: int) -> int:
    return 32 * x + 16 * y + 8 * z + 4 * a + 2 * b + c


def index2(a: int, b: int, x: int, y: int) -> int:
    return 8 * x + 4 * y + 2 * a + b


# Index weights per party: _IN_W[n][party], _OUT_W[n][party].
_IN_W = {2: (8, 4), 3: (32, 16, 8)}
_OUT_W = {2: (2, 1), 3: (4, 2, 1)}


def pack(outs: tuple[int, ...], ins: tuple[int, ...]) -> int:
    """Flat index of an (outputs, inputs) assignment for either arity."""
    n = len(outs)
    iw, ow = _IN_W[n], _OUT_W[n]
    return sum(ins[p] * iw[p] + outs[p] * ow[p] for p in range(n))


@dataclass(frozen=True)
class Box3:
    """Tripartite box: 64 exact probabilities P(abc|xyz)."""

    table: tuple[Fraction, ...]

    n_parties = 3

    def __post_init__(self):
        if len(self.table) != 64:
            raise ArityError(f"Box3 needs 64 entries, got {len(self.table)}")
        object.__setattr__(self, "table", exact_values(self.table))

    def prob(self, a: int, b: int, c: int, x: int, y: int, z: int) -> Fraction:
        return self.table[index3(a, b, c, x, y, z)]

    @classmethod
    def from_function(cls, fn) -> "Box3":
        """Build from fn(a, b, c, x, y, z) -> value."""
        tab = [ZERO] * 64
        for x, y, z, a, b, c in product(BITS, repeat=6):
            tab[index3(a, b, c, x, y, z)] = fn(a, b, c, x, y, z)
        return cls(tuple(tab))


@dataclass(frozen=True)
class Box2:
    """Bipartite box: 16 exact probabilities P(ab|xy)."""

    table: tuple[Fraction, ...]

    n_parties = 2

    def __post_init__(self):
        if len(self.table) != 16:
            raise ArityError(f"Box2 needs 16 entries, got {len(self.table)}")
        object.__setattr__(self, "table", exact_values(self.table))

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        return self.table[index2(a, b, x, y)]

    @classmethod
    def from_function(cls, fn) -> "Box2":
        """Build from fn(a, b, x, y) -> value."""
        tab = [ZERO] * 16
        for x, y, a, b in product(BITS, repeat=4):
            tab[index2(a, b, x, y)] = fn(a, b, x, y)
        return cls(tuple(tab))


Box = Box3 | Box2


def _prob(box: Box, outs: tuple[int, ...], ins: tuple[int, ...]) -> Fraction:
    return box.table[pack(outs, ins)]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three validity checks, with offending indices.

    negative_entries:        ((outputs, inputs, value), ...)
    normalization_failures:  ((inputs, total), ...)
    signalling_failures:     ((party, rest_outputs, rest_inputs, v0, v1), ...)
                             where v0/v1 are the rest-marginal for the named
                             party's input set to 0/1.
    """

    arity: int
    negative_entries: tuple
    normalization_failures: tuple
    signalling_failures: tuple

    @property
    def is_valid(self) -> bool:
        return not (
            self.negative_entries
            or self.normalization_failures
            or self.signalling_failures
        )

    def lines(self) -> list[str]:
        out = []
        for outs, ins, v in self.negative_entries:
            out.append(f"negative entry P{outs}|{ins} = {v}")
        for ins, total in self.normalization_failures:
            out.append(f"normalization failed at inputs {ins}: total {total}")
        for party, outs, ins, v0, v1 in self.signalling_failures:
            out.append(
                f"signalling by party {party}: rest marginal at outputs {outs}, "
                f"inputs {ins} is {v0} for input 0 but {v1} for input 1"
            )
        return out


def validate(box: Box) -> ValidationReport:
    """Check positivity, per-input normalization and no-signalling."""
    n = box.n_parties
    negative = []
    norm = []
    signalling = []
    for ins in product(BITS, repeat=n):
        total = ZERO
        for outs in product(BITS, repeat=n):
            v = _prob(box, outs, ins)
            if v < 0:
                negative.append((outs, ins, v))
            total += v
        if total != 1:
            norm.append((ins, total))
    # Party p cannot signal: the marginal over p's output must not depend on
    # p's input, for every assignment of the other parties.
    for p in range(n):
        rest = tuple(q for q in range(n) if q != p)
        for r_outs in product(BITS, repeat=n - 1):
            for r_ins in product(BITS, repeat=n - 1):
                vals = []
                for xp in BITS:
                    ins = [0] * n
                    outs = [0] * n
                    ins[p] = xp
                    for slot, q in enumerate(rest):
                        ins[q] = r_ins[slot]
                        outs[q] = r_outs[slot]
                    s = ZERO
                    for op in BITS:
                        outs[p] = op
                        s += _prob(box, tuple(outs), tuple(ins))
                    vals.append(s)
                if vals[0] != vals[1]:
                    signalling.append(
                        (PARTY_NAMES[p], r_outs, r_ins, vals[0], vals[1])
                    )
    return ValidationReport(n, tuple(negative), tuple(norm), tuple(signalling))


def require_valid(box: Box) -> Box:
    """Raise InvalidBoxError unless box passes full validation."""
    report = validate(box)
    if not report.is_valid:
        raise InvalidBoxError(report)
    return box


def marginal(box: Box, parties: tuple[int, ...]):
    """Trace out the complement of `parties`.

    Returns a Box2 when two parties are kept (slots in the order given) or a
    4-tuple indexed by 2*x + a for a single party.  Raises SignallingError if
    the traced-out inputs influence the result, in which case no marginal
    exists.
    """
    n = box.n_parties
    if len(set(parties)) != len(parties) or not all(0 <= p < n for p in parties):
        raise ArityError(f"bad party subset {parties} for arity {n}")
    traced = tuple(q for q in range(n) if q not in parties)
    k = len(parties)
    tab = {}
    for k_outs in product(BITS, repeat=k):
        for k_ins in product(BITS, repeat=k):
            ref = None
            for t_ins in product(BITS, repeat=len(traced)):
                ins = [0] * n
                outs = [0] * n
                for slot, p in enumerate(parties):
                    ins[p] = k_ins[slot]
                    outs[p] = k_outs[slot]
                for slot, q in enumerate(traced):
                    ins[q] = t_ins[slot]
                s = ZERO
                for t_outs in product(BITS, repeat=len(traced)):
                    for slot, q in enumerate(traced):
                        outs[q] = t_outs[slot]
                    s += _prob(box, tuple(outs), tuple(ins))
                if ref is None:
                    ref = s
                elif s != ref:
                    raise SignallingError(
                        f"marginal over parties {parties} ill defined: traced "
                        f"inputs {t_ins} change it at outputs {k_outs}, "
                        f"inputs {k_ins}"
                    )
            tab[(k_outs, k_ins)] = ref
    if k == 2:
        flat = [ZERO] * 16
        for (outs, ins), v in tab.items():
            flat[index2(outs[0], outs[1], ins[0], ins[1])] = v
        return Box2(tuple(flat))
    if k == 1:
        flat = [ZERO] * 4
        for (outs, ins), v in tab.items():
            flat[2 * ins[0] + outs[0]] = v
        return tuple(flat)
    raise ArityError(f"keep one or two parties, got {len(parties)}")


def correlator(box: Box, parties: tuple[int, ...], inputs: tuple[int, ...]) -> Fraction:
    """Expectation of the product of (-1)^output over `parties`.

    `inputs` fixes the named parties' inputs; the remaining inputs are set to
    0, which cannot matter for a valid no-signalling box.
    """
    n = box.n_parties
    if len(parties) != len(inputs):
        raise ArityError("parties and inputs must have equal length")
    ins = [0] * n
    for p, xp in zip(parties, inputs):
        ins[p] = xp
    total = ZERO
    for outs in product(BITS, repeat=n):
        v = _prob(box, outs, tuple(ins))
        if v:
            sign = -1 if sum(outs[p] for p in parties) % 2 else 1
            total += sign * v
    return total


@dataclass(frozen=True)
class Relabeling:
    """Local symmetry: permute parties, flip inputs, flip outputs per input.

    party_perm[i] is the old party whose role the new slot i takes over;
    input_flips[i] is XORed onto slot i's input; output_flips[i][v] is XORed
    onto slot i's output when its (new) input is v.
    """

    party_perm: tuple[int, ...]
    input_flips: tuple[int, ...]
    output_flips: tuple[tuple[int, int], ...]

    @property
    def n_parties(self) -> int:
        return len(self.party_perm)

    @classmethod
    def identity(cls, n: int) -> "Relabeling":
        return cls(tuple(range(n)), (0,) * n, ((0, 0),) * n)

    def inverse(self) -> "Relabeling":
        n = self.n_parties
        inv = [0] * n
        for i, p in enumerate(self.party_perm):
            inv[p] = i
        flips = tuple(self.input_flips[inv[j]] for j in range(n))
        outs = tuple(
            (
                self.output_flips[inv[j]][0 ^ flips[j]],
                self.output_flips[inv[j]][1 ^ flips[j]],
            )
            for j in range(n)
        )
        return Relabeling(tuple(inv), flips, outs)

    def compose(self, inner: "Relabeling") -> "Relabeling":
        """Relabeling equivalent to applying `inner` first, then self."""
        n = self.n_parties
        perm = tuple(inner.party_perm[self.party_perm[j]] for j in range(n))
        flips = tuple(
            self.input_flips[j] ^ inner.input_flips[self.party_perm[j]]
            for j in range(n)
        )
        outs = tuple(
            (
                self.output_flips[j][0]
                ^ inner.output_flips[self.party_perm[j]][0 ^ self.input_flips[j]],
                self.output_flips[j][1]
                ^ inner.output_flips[self.party_perm[j]][1 ^ self.input_flips[j]],
            )
            for j in range(n)
        )
        return Relabeling(perm, flips, outs)


def relabel(box: Box, r: Relabeling) -> Box:
    """Apply a relabeling; preserves validity and the multiset of entries."""
    n = box.n_parties
    if r.n_parties != n:
        raise ArityError("relabeling arity does not match box")
    tab = [ZERO] * len(box.table)
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            old_ins = [0] * n
            old_outs = [0] * n
            for i in range(n):
                p = r.party_perm[i]
                old_ins[p] = ins[i] ^ r.input_flips[i]
                old_outs[p] = outs[i] ^ r.output_flips[i][ins[i]]
            tab[pack(outs, ins)] = _prob(box, tuple(old_outs), tuple(old_ins))
    return type(box)(tuple(tab))


_RELABELINGS2 = None


def all_relabelings2() -> tuple[Relabeling, ...]:
    """The full 128-element bipartite relabeling group."""
    global _RELABELINGS2
    if _RELABELINGS2 is None:
        out = []
        for perm in ((0, 1), (1, 0)):
            for flips in product(BITS, repeat=2):
                for of in product(BITS, repeat=4):
                    out.append(
                        Relabeling(perm, flips, ((of[0], of[1]), (of[2], of[3])))
                    )
        _RELABELINGS2 = tuple(out)
    return _RELABELINGS2


def mix(boxes, weights) -> Box:
    """Convex combination of same-arity boxes; weights must sum to 1."""
    boxes = list(boxes)
    weights = exact_values(weights)
    if not boxes or len(boxes) != len(weights):
        raise ArityError("need matching nonempty box and weight lists")
    cls = type(boxes[0])
    if any(type(b) is not cls for b in boxes):
        raise ArityError("cannot mix boxes of different arity")
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError(f"mixture weights sum to {sum(weights)}, not 1")
    size = len(boxes[0].table)
    tab = [ZERO] * size
    for b, w in zip(boxes, weights):
        if w:
            for i, v in enumerate(b.table):
                if v:
                    tab[i] += w * v
    return cls(tuple(tab))


@dataclass(frozen=True)
class ConstraintSet:
    """Parity constraints on outputs, each gated on specific inputs.

    Each constraint is (pairs, parity) with pairs a frozenset of
    (party, input) tuples; it applies at an input triple when every listed
    party holds the listed input, and then requires the XOR of the listed
    parties' outputs to equal parity.
    """

    constraints: tuple[tuple[frozenset, int], ...]

    def __post_init__(self):
        frozen = []
        for pairs, parity in self.constraints:
            pairs = frozenset((int(p), int(i)) for p, i in pairs)
            for p, i in pairs:
                if not (0 <= p < 3 and i in BITS):
                    raise ArityError(f"bad constraint pair ({p}, {i})")
            frozen.append((pairs, int(parity) & 1))
        object.__setattr__(self, "constraints", tuple(frozen))


def build_from_constraints(cs: ConstraintSet) -> Box3:
    """Uniform distribution over constraint-satisfying outputs per input.

    Inputs with no applicable constraint get the uniform distribution over
    all eight outputs.  Raises ContradictionError if some input triple has
    applicable constraints that no output satisfies.
    """
    tab = [ZERO] * 64
    for ins in product(BITS, repeat=3):
        applicable = [
            (pairs, parity)
            for pairs, parity in cs.constraints
            if all(ins[p] == i for p, i in pairs)
        ]
        sat = []
        for outs in product(BITS, repeat=3):
            ok = all(
                sum(outs[p] for p, _ in pairs) % 2 == parity
                for pairs, parity in applicable
            )
            if ok:
                sat.append(outs)
        if not sat:
            raise ContradictionError(
                f"no output satisfies the constraints applicable at inputs {ins}"
            )
        w = Fraction(1, len(sat))
        for outs in sat:
            tab[pack(outs, ins)] = w
    return Box3(tuple(tab))


# The five output-parity relations defining the class4 builtin: in subscript
# notation a0+b1 = 0, b0+c1 = 0, c0+a1 = 0, a0+b0+c0 = 0, a1+b1+c1 = 1.
CLASS4_CONSTRAINTS = ConstraintSet(
    (
        (frozenset({(0, 0), (1, 1)}), 0),
        (frozenset({(1, 0), (2, 1)}), 0),
        (frozenset({(2, 0), (0, 1)}), 0),
        (frozenset({(0, 0), (1, 0), (2, 0)}), 0),
        (frozenset({(0, 1), (1, 1), (2, 1)}), 1),
    )
)


def _class3_entry(a, b, c, x, y, z) -> Fraction:
    t = 1
    if x == 0:
        t += (-1) ** (a + b)
    if x == 1 and z == 0:
        t += (-1) ** (a + c)
    if x == 1 and z == 1:
        t += (-1) ** (a + b + c) * (1 if y == 0 else -1)
    return Fraction(t, 8)


_DETERMINISTIC_RE = re.compile(r"^deterministic\((\d+),(\d+),(\d+)\)$")


def builtin(name: str) -> Box:
    """Named reference boxes.

    class3         correlations switch with A's input between an AB and an
                   AC/ABC pattern (extremal tripartite no-signalling box)
    class4         uniform over outputs satisfying the five parity relations
                   of CLASS4_CONSTRAINTS (extremal, wiring-local)
    class44        a + b + c = x*y*z, entries 0 or 1/4 (extremal)
    pr             bipartite a + b = x*y, entries 0 or 1/2
    uniform3       all 64 entries 1/8
    uniform2       all 16 entries 1/4
    deterministic(ta,tb,tc)
                   product box with per-party response truth tables 0..3
    """
    name = name.strip()
    if name == "class3":
        return Box3.from_function(_class3_entry)
    if name == "class4":
        return build_from_constraints(CLASS4_CONSTRAINTS)
    if name == "class44":
        return Box3.from_function(
            lambda a, b, c, x, y, z: Fraction(1, 4) if (a ^ b ^ c) == (x & y & z) else ZERO
        )
    if name == "pr":
        return Box2.from_function(
            lambda a, b, x, y: Fraction(1, 2) if (a ^ b) == (x & y) else ZERO
        )
    if name == "uniform3":
        return Box3((Fraction(1, 8),) * 64)
    if name == "uniform2":
        return Box2((Fraction(1, 4),) * 16)
    m = _DETERMINISTIC_RE.match(name)
    if m:
        tts = tuple(int(g) for g in m.groups())
        if any(t > 3 for t in tts):
            raise UnknownBuiltinError(f"response truth tables must be 0..3: {name}")
        return Box3.from_function(
            lambda a, b, c, x, y, z: (
                ONE
                if (a, b, c) == tuple((tts[p] >> i) & 1 for p, i in enumerate((x, y, z)))
                else ZERO
            )
        )
    raise UnknownBuiltinError(f"unknown builtin box {name!r}")


# File format: header line "box3" or "box2", then one line per nonzero entry,
#     a b c | x y z = num/den
# with outputs left of the bar and inputs right of it.  '#' starts a comment,
# unlisted entries are zero.

_ENTRY_RE = re.compile(r"^([01 ]+)\|([01 ]+)=(.+)$")


def dumps(box: Box) -> str:
    """Serialize in canonical order (ascending flat index, nonzero only)."""
    n = box.n_parties
    lines = [f"box{n}"]
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            v = _prob(box, outs, ins)
            if v:
                lines.append(
                    "%s | %s = %s"
                    % (" ".join(map(str, outs)), " ".join(map(str, ins)), v)
                )
    return "\n".join(lines) + "\n"


def loads(text: str, check: bool = True) -> Box:
    """Parse the box file format; with check=True require full validity."""
    header = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            if line not in ("box2", "box3"):
                raise ParseError(f"line {lineno}: expected box2 or box3 header")
            header = line
            continue
        m = _ENTRY_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: cannot parse entry {raw!r}")
        outs, ins = m.group(1).split(), m.group(2).split()
        n = 3 if header == "box3" else 2
        if len(outs) != n or len(ins) != n or any(t not in ("0", "1") for t in outs + ins):
            raise ParseError(f"line {lineno}: expected {n} output and input bits")
        outs, ins = tuple(map(int, outs)), tuple(map(int, ins))
        try:
            value = Fraction(m.group(3).strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad value {m.group(3).strip()!r}") from exc
        key = (outs, ins)
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate entry for {key}")
        entries[key] = value
    if header is None:
        raise ParseError("empty box file")
    n = 3 if header == "box3" else 2
    tab = [ZERO] * (64 if n == 3 else 16)
    for (outs, ins), v in entries.items():
        tab[pack(outs, ins)] = v
    box = (Box3 if n == 3 else Box2)(tuple(tab))
    if check:
        require_valid(box)
    return box


def load(path, check: bool = True) -> Box:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), check=check)


def dump(box: Box, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(box))
