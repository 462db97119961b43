"""Exact conditional-probability boxes for two and three binary-input parties.

A tripartite box stores the 64 probabilities P(abc|xyz) with every party
holding one input bit and one output bit; a bipartite box stores the 16
probabilities P(ab|xy).  Tables hold `fractions.Fraction`s; each box also
keeps, built on first use, one integer view of its table, `(scale, ints)`
with `scale` the lcm of the denominators (`Box3.scaled`).  Validation, the
orbit maxima in `bell` and the wiring search read that view, so they add and
compare ints, and turn a result back into a `Fraction` only at the end.
Nothing in this package ever touches floating point.

A box is immutable, so what is derived from its table is derived once per
box object: its integer view, and its `ValidationReport` (`box.report`),
which `validate` returns and `require_valid` reads.  Likewise `builtin`
builds each named box once per process and returns that one box to every
caller.

Index conventions used everywhere (inputs most significant, parties in order
A, B, C):

    Box3 flat index = 32*x + 16*y + 8*z + 4*a + 2*b + c
    Box2 flat index =  8*x +  4*y + 2*a + b

Outputs map to dichotomic observables as 0 -> +1, 1 -> -1.

This module is the one place that knows that layout.  Per arity it keeps
each party's index weights and the (outputs, inputs) decoded for every flat
index; validation, correlators and serialization read entries by
flat index through these, or flip one party's bits on the weights.  A
relabeling is a permutation of flat indices (`Relabeling.permutation`), so
applying one is a single pass over the table.  `block_correlators` gives the
correlators of the last two parties, which `bell` and the wiring sweep share.
"""

from __future__ import annotations

import re
from functools import cache, cached_property, partial
from fractions import Fraction
from math import lcm
from operator import attrgetter
from pathlib import Path

BITS = (0, 1)
PARTY_NAMES = "ABC"

ZERO = Fraction(0)


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


class ParseError(BoxError):
    """A box file, weight file or wiring is malformed, or an argument that
    should be a wiring, a bipartition or GyniWeights is not one."""


class UnknownBuiltinError(BoxError):
    """Requested builtin box name is not recognized."""


class InexactValueError(BoxError):
    """A value that is not an exact number was given where one is needed:
    anything but an int, a Fraction, a Decimal or a string that Fraction()
    parses, floats and bools included, and in an LP problem or certificate
    anything but an int or a Fraction."""


def _exact(v) -> Fraction:
    """Fraction(v) for an int, a Fraction, a Decimal or a string Fraction()
    parses; InexactValueError, chained from Fraction's error, otherwise."""
    if isinstance(v, float):
        raise InexactValueError(f"inexact float value {v!r}; pass a Fraction, an int or a string")
    if isinstance(v, bool):
        raise InexactValueError(f"bool value {v!r} is not a number; pass a Fraction, an int or a string")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InexactValueError(f"{v!r} is not an exact number: {exc}") from exc


def exact_values(values) -> tuple[Fraction, ...]:
    """Fractions of ints, Fractions, Decimals or decimal strings; a Fraction
    passes through as it is.

    Anything else raises InexactValueError, floats included: Fraction(0.1) is
    the binary expansion 3602879701896397/36028797018963968, not 1/10.
    Bools are refused too, so True never stands for 1.
    """
    return tuple(v if type(v) is Fraction else _exact(v) for v in values)


def integer_scaled(values) -> tuple[int, tuple[int, ...]]:
    """(scale, ints) with scale the lcm of the denominators of the int or
    Fraction values and ints[i] = values[i] * scale: ints of the same signs
    and order, whose sums compare as the values' sums times scale."""
    values = tuple(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def _bits(value: int, width: int) -> tuple[int, ...]:
    """The low `width` bits of value, most significant first."""
    return tuple((value >> (width - 1 - k)) & 1 for k in range(width))


# Per arity n (2 or 3 parties): index weights per party, _IN_W[n][party]
# and _OUT_W[n][party]; the (outputs, inputs) of each flat index; and the
# flat indices in (outputs, inputs) lexicographic order, in which reports
# and errors list entries.
_ARITIES = (2, 3)
_IN_W = {n: tuple(1 << (2 * n - 1 - p) for p in range(n)) for n in _ARITIES}
_OUT_W = {n: tuple(1 << (n - 1 - p) for p in range(n)) for n in _ARITIES}
_ENTRIES = {
    n: tuple((_bits(i, n), _bits(i >> n, n)) for i in range(4 ** n)) for n in _ARITIES
}
_OUTS_MAJOR = {n: tuple(sorted(range(4 ** n), key=_ENTRIES[n].__getitem__)) for n in _ARITIES}


def pack(outs: tuple[int, ...], ins: tuple[int, ...]) -> int:
    """Flat index of an (outputs, inputs) assignment for either arity."""
    n = len(outs)
    iw, ow = _IN_W[n], _OUT_W[n]
    return sum(ins[p] * iw[p] + outs[p] * ow[p] for p in range(n))


def block_correlators(table) -> tuple:
    """t0 - t1 - t2 + t3 over each consecutive block of four entries.

    The two lowest bits of a flat index are the outputs of the last two
    parties, so this is their correlator at each assignment of the higher
    bits: (E00, E01, E10, E11) of a Box2 table.  Exact in the type of the
    entries.
    """
    return tuple(
        table[i] - table[i + 1] - table[i + 2] + table[i + 3] for i in range(0, len(table), 4)
    )


class _Value:
    """Base of the package's immutable value types.

    A subclass's fields are the names annotated in its class body, after
    those of its bases.  Instances are built positionally or by keyword,
    then `__post_init__` runs; they compare equal when of the same class
    with equal field tuples, hash as that tuple, and repr as
    `Name(field=value, ...)`.  Assignment and deletion raise AttributeError;
    `object.__setattr__` in `__post_init__` and `functools.cached_property`
    still write to the instance.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # A class's own annotations on 3.10+, as strings under the
        # __future__ import, so nothing is evaluated.
        fields = cls._fields = (*cls._fields, *cls.__annotations__)
        n, bind, get, store = len(fields), cls._bind, attrgetter(*fields), object.__setattr__

        # Closures over the class's fields, with no code generated: a loop
        # over a zip, or attribute lookups on the class, would cost more
        # per call than these.
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != n:
                args = bind(args, kwargs)
            i = 0
            for name in fields:
                store(self, name, args[i])
                i += 1
            self.__post_init__()

        def __eq__(self, other):
            if type(other) is type(self):
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            # attrgetter of one name returns the value, not a 1-tuple
            return hash(get(self) if n > 1 else (get(self),))

        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or a wrong argument count."""
        fields = cls._fields
        try:
            values = (*args, *[kwargs.pop(name) for name in fields[len(args) :]])
        except KeyError as exc:
            raise TypeError(f"{cls.__name__}() missing argument {exc}") from None
        if len(values) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(values)}")
        if kwargs:
            name = next(iter(kwargs))
            what = "multiple values for argument" if name in fields else "an unexpected keyword argument"
            raise TypeError(f"{cls.__name__}() got {what} {name!r}")
        return values

    def __post_init__(self):
        """Check or normalise the fields; nothing by default."""

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")


class _Table(_Value):
    """Shared behaviour of Box3 and Box2: a flat table of 4**n_parties
    exact entries."""

    table: tuple[Fraction, ...]

    def __post_init__(self):
        size = 4 ** self.n_parties
        if not isinstance(self.table, (tuple, list)):
            raise ArityError(f"{type(self).__name__} needs a tuple or list of {size} entries, "
                             f"got {type(self.table).__name__}")
        if len(self.table) != size:
            raise ArityError(f"{type(self).__name__} needs {size} entries, got {len(self.table)}")
        object.__setattr__(self, "table", exact_values(self.table))

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """The table as integer_scaled gives it, (scale, ints), built on
        first use.  Equality and hashing still read `table` only."""
        return integer_scaled(self.table)

    @cached_property
    def report(self) -> "ValidationReport":
        """The box's ValidationReport, computed on first use; the table is
        immutable, so it never goes stale."""
        return _validate(self)


class Box3(_Table):
    """Tripartite box: 64 exact probabilities P(abc|xyz)."""

    n_parties = 3

    def prob(self, a: int, b: int, c: int, x: int, y: int, z: int) -> Fraction:
        return self.table[pack((a, b, c), (x, y, z))]


class Box2(_Table):
    """Bipartite box: 16 exact probabilities P(ab|xy)."""

    n_parties = 2

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        return self.table[pack((a, b), (x, y))]


Box = Box3 | Box2


class ValidationReport(_Value):
    """Outcome of the three validity checks, with offending indices.

    negative_entries:        ((outputs, inputs, value), ...)
    normalization_failures:  ((inputs, total), ...)
    signalling_failures:     ((party, rest_outputs, rest_inputs, v0, v1), ...)
                             where v0/v1 are the rest-marginal for the named
                             party's input set to 0/1.
    """

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
    """Check positivity, per-input normalization and no-signalling.

    The checks run once per box object: the report is kept as `box.report`,
    and later calls on the same box return it.  They run on the box's
    integer view, where a per-input total is `scale` rather than 1; a
    failure reports the table's own entry, or a sum as Fraction(sum, scale),
    the same value the table's sum has.
    """
    return _require(box, "validate").report


def _validate(box: Box) -> ValidationReport:
    """The checks behind `validate`, run once per box by `_Table.report`."""
    n = box.n_parties
    scale, t = box.scaled
    entries = _ENTRIES[n]
    negative = tuple((*entries[i], box.table[i]) for i, v in enumerate(t) if v < 0)
    # The 2**n outputs at one input assignment are consecutive.
    block = 2 ** n
    norm = tuple(
        (entries[i][1], Fraction(total, scale))
        for i in range(0, 4 ** n, block)
        if (total := sum(t[i : i + block])) != scale
    )
    # Party p cannot signal: the marginal over p's output must not depend on
    # p's input, for every assignment of the other parties.  Each flat index
    # with p's bits clear is one such assignment.
    signalling = []
    for p in range(n):
        iw, ow = _IN_W[n][p], _OUT_W[n][p]
        for i in _OUTS_MAJOR[n]:
            if i & (iw | ow):
                continue
            v0, v1 = t[i] + t[i | ow], t[i | iw] + t[i | iw | ow]
            if v0 != v1:
                outs, ins = entries[i]
                signalling.append(
                    (PARTY_NAMES[p], outs[:p] + outs[p + 1 :], ins[:p] + ins[p + 1 :],
                     Fraction(v0, scale), Fraction(v1, scale))
                )
    return ValidationReport(negative, norm, tuple(signalling))


_KINDS = {_Table: "box", Box2: "bipartite box", Box3: "tripartite box"}


def _require(value, what: str, cls=_Table, error=ArityError):
    """value if it is a cls, by default any box; else `error`, naming `what`."""
    if not isinstance(value, cls):
        raise error(f"{what} needs a {_KINDS.get(cls, cls.__name__)}")
    return value


_require2 = partial(_require, cls=Box2)
_require3 = partial(_require, cls=Box3)


def require_valid(box: Box) -> Box:
    """Raise InvalidBoxError unless box passes full validation."""
    report = validate(box)
    if not report.is_valid:
        raise InvalidBoxError(report)
    return box


def correlator(box: Box, parties: tuple[int, ...], inputs: tuple[int, ...]) -> Fraction:
    """Expectation of the product of (-1)^output over `parties`.

    `inputs` fixes the named parties' inputs; the remaining inputs are set to
    0, which cannot matter for a valid no-signalling box.
    """
    n = _require(box, "correlator").n_parties
    if not all(isinstance(s, (tuple, list)) for s in (parties, inputs)):
        raise ArityError(f"parties and inputs must be tuples or lists, got {parties!r} and {inputs!r}")
    if len(parties) != len(inputs):
        raise ArityError("parties and inputs must have equal length")
    if len(set(parties)) != len(parties) or not _all_in(parties, range(n)):
        raise ArityError(f"bad parties {parties} for arity {n}")
    if not _all_in(inputs, BITS):
        raise ArityError(f"inputs must be 0 or 1, got {inputs}")
    ins = [0] * n
    for p, xp in zip(parties, inputs):
        ins[p] = xp
    mask = 0
    for p in parties:
        mask ^= _OUT_W[n][p]
    # The outputs at one input assignment are the 2**n entries from its
    # flat index with output bits 0.
    start = pack((0,) * n, ins)
    block = box.table[start : start + 2 ** n]
    return sum((-v if (j & mask).bit_count() % 2 else v for j, v in enumerate(block)), ZERO)


class RelabelingError(BoxError):
    """Relabeling fields that describe no local symmetry."""


class Relabeling(_Value):
    """Local symmetry: permute parties, flip inputs, flip outputs per input.

    party_perm[i] is the old party whose role the new slot i takes over;
    input_flips[i] is XORed onto slot i's input; output_flips[i][v] is XORed
    onto slot i's output when its (new) input is v.

    `permutation`, built once with the relabeling, maps each flat index of
    the relabeled table to the flat index of the old table it reads; the
    relabelings compose and invert as these permutations do.  It is not a
    field: equality, hashing and repr read the three fields above.
    """

    party_perm: tuple[int, ...]
    input_flips: tuple[int, ...]
    output_flips: tuple[tuple[int, int], ...]

    def __post_init__(self):
        perm, pairs = self.party_perm, self.output_flips
        # a list field would make the frozen value unhashable
        fields = (perm, self.input_flips, pairs)
        if not all(type(f) is tuple for f in fields) or not all(type(f) is tuple for f in pairs):
            raise RelabelingError(
                f"relabeling fields and output flip pairs must be tuples, got "
                f"{perm!r}, {self.input_flips!r} and {pairs!r}"
            )
        n = len(perm)
        if n not in (2, 3) or not _all_in(perm, range(n)) or len(set(perm)) != n:
            raise RelabelingError(
                f"party_perm {perm} is not a permutation of 2 or 3 parties"
            )
        if len(self.input_flips) != n or len(pairs) != n or not all(len(f) == 2 for f in pairs):
            raise RelabelingError(
                f"input_flips {self.input_flips} and output_flips {pairs} "
                f"need {n} entries each, output flips in pairs"
            )
        flips = (*self.input_flips, *(f for pair in pairs for f in pair))
        if not _all_in(flips, BITS):
            raise RelabelingError(f"flips must be 0 or 1, got {flips}")
        iw, ow = _IN_W[n], _OUT_W[n]
        index = tuple(
            sum(
                (ins[s] ^ self.input_flips[s]) * iw[p]
                + (outs[s] ^ self.output_flips[s][ins[s]]) * ow[p]
                for s, p in enumerate(perm)
            )
            for outs, ins in _ENTRIES[n]
        )
        object.__setattr__(self, "permutation", index)


def _all_in(values, allowed) -> bool:
    """Every value is an int in `allowed`: floats and bools never pass."""
    return all(type(v) is int and v in allowed for v in values)


def mix(boxes, weights) -> Box:
    """Convex combination of same-arity boxes; weights must sum to 1."""
    if isinstance(boxes, _Table):
        raise ArityError("mix needs a list of boxes, got a single box")
    boxes = list(boxes)
    weights = exact_values(weights)
    if not boxes or len(boxes) != len(weights):
        raise ArityError("need matching nonempty box and weight lists")
    cls = type(_require(boxes[0], "mix"))
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


def _uniform_over(cls, relation) -> Box:
    """At each input assignment, uniform weight on the outputs that
    relation(*outputs, *inputs) allows."""
    entries = _ENTRIES[cls.n_parties]
    block = 2 ** cls.n_parties  # the outputs at one input are consecutive
    tab = []
    for start in range(0, len(entries), block):
        allowed = [relation(*outs, *ins) for outs, ins in entries[start : start + block]]
        w = Fraction(1, sum(allowed))
        tab.extend(w if ok else ZERO for ok in allowed)
    return cls(tuple(tab))


def _class4(a, b, c, x, y, z) -> bool:
    """The one parity of class4 that applies at inputs (x, y, z)."""
    if x == y == z:
        return a ^ b ^ c == x
    if (x, y) == (0, 1):
        return a == b
    if (y, z) == (0, 1):
        return b == c
    return c == a


# name -> (box type, relation on outputs and inputs)
_BUILTINS = {
    "class3": (Box3, lambda a, b, c, x, y, z: a == (b if x == 0 else c if z == 0 else b ^ c ^ y)),
    "class4": (Box3, _class4),
    "class44": (Box3, lambda a, b, c, x, y, z: a ^ b ^ c == x & y & z),
    "pr": (Box2, lambda a, b, x, y: a ^ b == x & y),
    "uniform3": (Box3, lambda *_: True),
    "uniform2": (Box2, lambda *_: True),
}

_DETERMINISTIC_RE = re.compile(r"deterministic\(([0-3]),([0-3]),([0-3])\)")


def builtin(name: str) -> Box:
    """Named reference boxes, each uniform over the outputs its relation
    allows at every input (sums mod 2, subscripts are inputs).

    class3         a = b at x = 0, a = c at x = 1, z = 0, a+b+c = y at
                   x = z = 1 (extremal tripartite no-signalling box)
    class4         a0+b1 = 0, b0+c1 = 0, c0+a1 = 0, a0+b0+c0 = 0,
                   a1+b1+c1 = 1; exactly one applies at each input
                   (extremal, wiring-local)
    class44        a + b + c = x*y*z (extremal)
    pr             bipartite a + b = x*y
    uniform3       every output (entries 1/8)
    uniform2       every output (entries 1/4)
    deterministic(ta,tb,tc)
                   outputs equal the per-party responses, truth tables
                   0..3 written as one ASCII digit each

    Surrounding whitespace is stripped.  Each name's box is built once per
    process and shared by every call; boxes are immutable, so sharing is
    safe.  An unknown name raises UnknownBuiltinError on every call.
    """
    if type(name) is not str:
        raise UnknownBuiltinError(f"builtin box name must be a string, got {name!r}")
    return _builtin(name.strip())


@cache
def _builtin(name: str) -> Box:
    """The box `builtin` names, for a stripped name; cache keeps one per
    name and none for a name that raises."""
    if name in _BUILTINS:
        return _uniform_over(*_BUILTINS[name])
    m = _DETERMINISTIC_RE.fullmatch(name)
    if m:
        ta, tb, tc = map(int, m.groups())
        return _uniform_over(
            Box3,
            lambda a, b, c, x, y, z: (a, b, c) == ((ta >> x) & 1, (tb >> y) & 1, (tc >> z) & 1),
        )
    raise UnknownBuiltinError(f"unknown builtin box {name!r}")


# File formats: a box file is a header line "box3" or "box2", then one line
# per nonzero entry, "a b c | x y z = num/den", outputs left of the bar; a
# weight file is entry lines alone, without the bar and the outputs.  '#'
# starts a comment, unlisted entries are zero.  _SPELLING[n][i] is flat
# index i's bits as dumps writes them.  A grammar is (entry pattern, bit
# tokens -> slot, slot names for errors, the error for tokens not in the
# index): _GRAMMAR[n] for box files, _WEIGHTS for weight files, whose slot
# is 4*x1 + 2*x2 + x3.

_SPELLING = {
    n: tuple(" | ".join(" ".join(map(str, bits)) for bits in e) for e in _ENTRIES[n]) for n in (2, 3)
}
_GRAMMAR = {
    n: (re.compile(r"^([01 ]+\|[01 ]+)=(.+)$"), {tuple(s.split()): i for i, s in enumerate(_SPELLING[n])},
        _ENTRIES[n], f"expected {n} output and input bits")
    for n in (2, 3)
}
_WEIGHTS = (re.compile(r"^([01 ]+)=(.+)$"), {tuple(f"{k:03b}"): k for k in range(8)},
            tuple(_bits(k, 3) for k in range(8)), "expected 3 input bits")


def dumps(box: Box) -> str:
    """Serialize in canonical order (ascending flat index, nonzero only)."""
    n = _require(box, "dumps").n_parties
    lines = [f"box{n}"]
    lines += ["%s = %s" % (s, v) for s, v in zip(_SPELLING[n], box.table) if v]
    return "\n".join(lines) + "\n"


def _read_entries(text: str, what: str, grammar=None) -> tuple[Fraction, ...]:
    """The table of a box file, grammar None (its header picks _GRAMMAR[n]),
    or of a weight file, grammar _WEIGHTS; unlisted slots are zero.

    Each entry line is one pattern match and one lookup of its bit tokens;
    each distinct value text is parsed by Fraction() once per call."""
    if not isinstance(text, str):
        raise ParseError(f"{what} file text must be a string, got {type(text).__name__}")
    pattern, index, names, miss = grammar or (None,) * 4
    entries, values = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if pattern is None:
            if line not in ("box2", "box3"):
                raise ParseError(f"line {lineno}: expected box2 or box3 header")
            pattern, index, names, miss = _GRAMMAR[int(line[3])]
            continue
        m = pattern.match(line)
        if not m:
            raise ParseError(f"line {lineno}: cannot parse entry {raw!r}")
        bits, value = m.groups()
        i = index.get(tuple(bits.replace("|", " | ").split()))
        if i is None:
            raise ParseError(f"line {lineno}: {miss}")
        value = value.strip()
        if value not in values:
            try:
                values[value] = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad value {value!r}") from exc
        if i in entries:
            raise ParseError(f"line {lineno}: duplicate entry for {names[i]}")
        entries[i] = values[value]
    if pattern is None:
        raise ParseError(f"empty {what} file")
    return tuple(entries.get(i, ZERO) for i in range(len(names)))


def loads(text: str, check: bool = True) -> Box:
    """Parse the box file format; with check=True require full validity."""
    table = _read_entries(text, "box")
    box = (Box3 if len(table) == 64 else Box2)(table)
    if check:
        require_valid(box)
    return box


def _read_text(path) -> str:
    """A file's text; a file that cannot be read (a directory, no
    permission) or is not UTF-8 is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def load(path, check: bool = True) -> Box:
    return loads(_read_text(path), check=check)


def dump(box: Box, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(box))
