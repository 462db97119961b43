"""Entry-by-entry box operations, the reference that the flat-index versions
in nsboxes.boxes and nsboxes.bell are tested against, and the builtin boxes
rebuilt from their defining formulas.  marginal and relabel have no
counterpart in the library: the tests that trace parties out or move a box
along its orbit use these.  A relabelling is a Relabeling record (party_perm,
input_flips, output_flips), and relabel and relabel_table are the one
implementation of applying it.  all_relabelings2 builds the whole
128-element bipartite relabeling group, which the library never needs, and
oracle_orbit_forms pushes the CHSH and Uffink forms through all of it, the
orbit that the library's closed-form maxima are checked against.  loads is the
line-by-line box file parser the library's table lookup replaced: a regex
match, bit checks, pack and one Fraction() per line.

Each function loops over (outputs, inputs) assignments with
itertools.product and rebuilds the flat index of every entry it reads;
nothing is shared with the library but the index convention and the error
and report types.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import product

from nsboxes import (
    ArityError,
    Box2,
    Box3,
    BoxError,
    ParseError,
    ValidationReport,
    require_valid,
)

BITS = (0, 1)
PARTY_NAMES = "ABC"
ZERO = Fraction(0)


def pack(outs, ins):
    """Flat index: inputs most significant, parties in order A, B, C."""
    index = 0
    for bit in (*ins, *outs):
        index = 2 * index + bit
    return index


def prob(box, outs, ins):
    return box.table[pack(outs, ins)]


def validate(box):
    n = box.n_parties
    negative, norm, signalling = [], [], []
    for ins in product(BITS, repeat=n):
        total = ZERO
        for outs in product(BITS, repeat=n):
            v = prob(box, outs, ins)
            if v < 0:
                negative.append((outs, ins, v))
            total += v
        if total != 1:
            norm.append((ins, total))
    for p in range(n):
        rest = tuple(q for q in range(n) if q != p)
        for r_outs in product(BITS, repeat=n - 1):
            for r_ins in product(BITS, repeat=n - 1):
                vals = []
                for xp in BITS:
                    ins, outs = [0] * n, [0] * n
                    ins[p] = xp
                    for slot, q in enumerate(rest):
                        ins[q], outs[q] = r_ins[slot], r_outs[slot]
                    s = ZERO
                    for op in BITS:
                        outs[p] = op
                        s += prob(box, tuple(outs), tuple(ins))
                    vals.append(s)
                if vals[0] != vals[1]:
                    signalling.append((PARTY_NAMES[p], r_outs, r_ins, vals[0], vals[1]))
    return ValidationReport(tuple(negative), tuple(norm), tuple(signalling))


class SignallingError(BoxError):
    """A marginal is ill defined because it depends on a traced input."""


def marginal(box, parties):
    n = box.n_parties
    if len(set(parties)) != len(parties) or not all(0 <= p < n for p in parties):
        raise ArityError(f"bad party subset {parties} for arity {n}")
    k = len(parties)
    if k not in (1, 2):
        raise ArityError(f"keep one or two parties, got {k}")
    traced = tuple(q for q in range(n) if q not in parties)
    tab = {}
    for k_outs in product(BITS, repeat=k):
        for k_ins in product(BITS, repeat=k):
            ref = None
            for t_ins in product(BITS, repeat=len(traced)):
                ins, outs = [0] * n, [0] * n
                for slot, p in enumerate(parties):
                    ins[p], outs[p] = k_ins[slot], k_outs[slot]
                for slot, q in enumerate(traced):
                    ins[q] = t_ins[slot]
                s = ZERO
                for t_outs in product(BITS, repeat=len(traced)):
                    for slot, q in enumerate(traced):
                        outs[q] = t_outs[slot]
                    s += prob(box, tuple(outs), tuple(ins))
                if ref is None:
                    ref = s
                elif s != ref:
                    raise SignallingError(
                        f"marginal over parties {parties} ill defined: traced "
                        f"inputs {t_ins} change it at outputs {k_outs}, "
                        f"inputs {k_ins}"
                    )
            tab[k_outs, k_ins] = ref
    if k == 2:
        flat = [ZERO] * 16
        for (outs, ins), v in tab.items():
            flat[pack(outs, ins)] = v
        return Box2(tuple(flat))
    flat = [ZERO] * 4
    for (outs, ins), v in tab.items():
        flat[2 * ins[0] + outs[0]] = v
    return tuple(flat)


def correlator(box, parties, inputs):
    n = box.n_parties
    ins = [0] * n
    for p, xp in zip(parties, inputs):
        ins[p] = xp
    total = ZERO
    for outs in product(BITS, repeat=n):
        sign = -1 if sum(outs[p] for p in parties) % 2 else 1
        total += sign * prob(box, outs, tuple(ins))
    return total


# A local symmetry: party_perm[i] is the old party whose role the new slot i
# takes over; input_flips[i] is XORed onto slot i's input; output_flips[i][v]
# is XORed onto slot i's output when its (new) input is v.
Relabeling = namedtuple("Relabeling", "party_perm input_flips output_flips")


def relabel_table(table, r):
    """Table of the relabeled box, each new entry read at its old index."""
    n = len(r.party_perm)
    tab = [None] * len(table)
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            old_ins, old_outs = [0] * n, [0] * n
            for i in range(n):
                p = r.party_perm[i]
                old_ins[p] = ins[i] ^ r.input_flips[i]
                old_outs[p] = outs[i] ^ r.output_flips[i][ins[i]]
            tab[pack(outs, ins)] = table[pack(old_outs, old_ins)]
    return tuple(tab)


def relabel(box, r):
    """The relabeled box, its table built by relabel_table."""
    return type(box)(relabel_table(box.table, r))


@cache
def all_relabelings2() -> tuple[Relabeling, ...]:
    """The full 128-element bipartite relabeling group."""
    return tuple(
        Relabeling(perm, flips, ((of[0], of[1]), (of[2], of[3])))
        for perm in ((0, 1), (1, 0))
        for flips in product(BITS, repeat=2)
        for of in product(BITS, repeat=4)
    )


# The CHSH form E00 + E01 + E10 - E11 and the two brackets of the Uffink
# form (E00 + E10)^2 + (E01 - E11)^2, as coefficient vectors on the
# correlator table (E00, E01, E10, E11).
CHSH = (1, 1, 1, -1)
UFFINK = ((1, 0, 1, 0), (0, 1, 0, -1))


def dot(c, e):
    return sum(a * b for a, b in zip(c, e))


def up_to_sign(form):
    """The form, negated if needed so its first nonzero is positive."""
    lead = next(c for c in form if c)
    return tuple(c if lead > 0 else -c for c in form)


@cache
def oracle_orbit_forms():
    """(CHSH forms, Uffink bracket pairs) up to sign, pushing the four basis
    tables through every one of the 128 relabelings.

    The j-th basis table carries the signs (1, -1, -1, 1) on block j and 0
    elsewhere, so its correlators are 4 at j and 0 elsewhere; coefficient j
    of a form's image is the form on the relabelled j-th basis table.
    """
    basis = [(0,) * 4 * j + (1, -1, -1, 1) + (0,) * 4 * (3 - j) for j in range(4)]
    chsh_forms, uffink_pairs = set(), set()
    for r in all_relabelings2():
        images = [[c // 4 for c in correlator_table(Box2(relabel_table(b, r)))] for b in basis]
        chsh_forms.add(up_to_sign([dot(CHSH, e) for e in images]))
        brackets = ([dot(b, e) for e in images] for b in UFFINK)
        uffink_pairs.add(tuple(sorted(map(up_to_sign, brackets))))
    return tuple(sorted(chsh_forms)), tuple(sorted(uffink_pairs))


def dumps(box):
    n = box.n_parties
    lines = [f"box{n}"]
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            v = prob(box, outs, ins)
            if v:
                lines.append("%s | %s = %s" % (" ".join(map(str, outs)), " ".join(map(str, ins)), v))
    return "\n".join(lines) + "\n"


_ENTRY_RE = re.compile(r"^([01 ]+)\|([01 ]+)=(.+)$")


def loads(text: str, check: bool = True):
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


def correlator_table(box):
    """(E00, E01, E10, E11) of a bipartite box."""
    return tuple(correlator(box, (0, 1), xy) for xy in product(BITS, repeat=2))


def from_entries(cls, fn):
    """Box whose entry at (outputs, inputs) is fn(*outputs, *inputs)."""
    n = cls.n_parties
    tab = [ZERO] * 4 ** n
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            tab[pack(outs, ins)] = Fraction(fn(*outs, *ins))
    return cls(tuple(tab))


def class3_entry(a, b, c, x, y, z):
    t = 1
    if x == 0:
        t += (-1) ** (a + b)
    if x == 1 and z == 0:
        t += (-1) ** (a + c)
    if x == 1 and z == 1:
        t += (-1) ** (a + b + c) * (1 if y == 0 else -1)
    return Fraction(t, 8)


# The five gated parities of class4, in subscript notation a0+b1 = 0,
# b0+c1 = 0, c0+a1 = 0, a0+b0+c0 = 0, a1+b1+c1 = 1: ((party, input), ...)
# and the parity of those parties' outputs when each holds its input.
CLASS4_PARITIES = (
    (((0, 0), (1, 1)), 0),
    (((1, 0), (2, 1)), 0),
    (((2, 0), (0, 1)), 0),
    (((0, 0), (1, 0), (2, 0)), 0),
    (((0, 1), (1, 1), (2, 1)), 1),
)


def from_parities(parities):
    """Uniform at each input over the outputs meeting every parity that
    applies there."""
    tab = [ZERO] * 64
    for ins in product(BITS, repeat=3):
        applicable = [
            (gates, parity) for gates, parity in parities if all(ins[p] == i for p, i in gates)
        ]
        sat = [
            outs
            for outs in product(BITS, repeat=3)
            if all(sum(outs[p] for p, _ in gates) % 2 == parity for gates, parity in applicable)
        ]
        for outs in sat:
            tab[pack(outs, ins)] = Fraction(1, len(sat))
    return Box3(tuple(tab))


_FORMULAS = {
    "class3": (Box3, class3_entry),
    "class44": (Box3, lambda a, b, c, x, y, z: Fraction(1, 4) if (a + b + c) % 2 == x * y * z else 0),
    "pr": (Box2, lambda a, b, x, y: Fraction(1, 2) if (a + b) % 2 == x * y else 0),
    "uniform3": (Box3, lambda *_: Fraction(1, 8)),
    "uniform2": (Box2, lambda *_: Fraction(1, 4)),
}


def builtin(name):
    """The builtin box of that name, rebuilt from its defining formula."""
    if name == "class4":
        return from_parities(CLASS4_PARITIES)
    m = re.fullmatch(r"deterministic\((\d),(\d),(\d)\)", name)
    if m:
        # product of per-party response functions: bit i of a truth table
        # is the output on input i
        tts = tuple(map(int, m.groups()))
        return from_entries(
            Box3,
            lambda *e: all(e[p] == (tts[p] >> e[3 + p]) & 1 for p in range(3)),
        )
    return from_entries(*_FORMULAS[name])
