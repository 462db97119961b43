"""The benchmark's own evaluator, written from the documented definitions.

Nothing here imports nsboxes.  The benchmark checks the program's outputs
against these computations, so they are kept plain: every function follows
its definition term by term (README "Scenario and conventions", "Wirings",
"Functionals"; the LP layouts in the docstrings of nsboxes.membership).

Tables are flat tuples in the package's documented order:
tripartite index 32x + 16y + 8z + 4a + 2b + c, bipartite 8x + 4y + 2a + b.
Entries may be ints (a table scaled by a common denominator) or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

BITS = (0, 1)
PARTY_NAMES = "ABC"
# (solo, pair) in canonical order A|BC, B|AC, C|AB.
BIPARTITIONS = ((0, (1, 2)), (1, (0, 2)), (2, (0, 1)))


def idx3(a, b, c, x, y, z):
    return 32 * x + 16 * y + 8 * z + 4 * a + 2 * b + c


def idx2(a, b, x, y):
    return 8 * x + 4 * y + 2 * a + b


def bit(tt, i):
    return (tt >> i) & 1


# --- boxes -----------------------------------------------------------------


def box3(fn):
    table = [Fraction(0)] * 64
    for x, y, z, a, b, c in product(BITS, repeat=6):
        table[idx3(a, b, c, x, y, z)] = Fraction(fn(a, b, c, x, y, z))
    return tuple(table)


def box2(fn):
    table = [Fraction(0)] * 16
    for x, y, a, b in product(BITS, repeat=4):
        table[idx2(a, b, x, y)] = Fraction(fn(a, b, x, y))
    return tuple(table)


def class3():
    """a = b at x = 0; a = c at x = 1, z = 0; a + b + c = y at x = 1, z = 1."""

    def p(a, b, c, x, y, z):
        if x == 0:
            ok = a == b
        elif z == 0:
            ok = a == c
        else:
            ok = (a ^ b ^ c) == y
        return Fraction(1, 4) if ok else 0

    return box3(p)


# Gated parities of class4: ({party: input}, parity of the listed outputs).
CLASS4_PARITIES = (
    ({0: 0, 1: 1}, 0),
    ({1: 0, 2: 1}, 0),
    ({2: 0, 0: 1}, 0),
    ({0: 0, 1: 0, 2: 0}, 0),
    ({0: 1, 1: 1, 2: 1}, 1),
)


def class4():
    """Uniform over the outputs obeying every parity gated on the inputs."""
    table = [Fraction(0)] * 64
    for ins in product(BITS, repeat=3):
        rules = [(g, p) for g, p in CLASS4_PARITIES
                 if all(ins[q] == v for q, v in g.items())]
        sat = [outs for outs in product(BITS, repeat=3)
               if all(sum(outs[q] for q in g) % 2 == p for g, p in rules)]
        for outs in sat:
            table[idx3(*outs, *ins)] = Fraction(1, len(sat))
    return tuple(table)


def class44():
    """a + b + c = xyz (mod 2), uniform."""
    return box3(lambda a, b, c, x, y, z: Fraction(1, 4) if a ^ b ^ c == x & y & z else 0)


def deterministic3(ta, tb, tc):
    """Product of response functions; bit i of a truth table is the output
    on input i."""
    return box3(lambda a, b, c, x, y, z: int(
        a == bit(ta, x) and b == bit(tb, y) and c == bit(tc, z)))


def deterministic2(ta, tb):
    return box2(lambda a, b, x, y: int(a == bit(ta, x) and b == bit(tb, y)))


def pr():
    return box2(lambda a, b, x, y: Fraction(1, 2) if a ^ b == x & y else 0)


def relabel3(table, perm, in_flips, out_flips):
    """Slot i takes over old party perm[i]; its input is XORed with
    in_flips[i] and its output with out_flips[i][new input]."""
    out = [None] * 64
    for ins in product(BITS, repeat=3):
        for outs in product(BITS, repeat=3):
            old_in = [0, 0, 0]
            old_out = [0, 0, 0]
            for i in range(3):
                old_in[perm[i]] = ins[i] ^ in_flips[i]
                old_out[perm[i]] = outs[i] ^ out_flips[i][ins[i]]
            out[idx3(*outs, *ins)] = table[idx3(*old_out, *old_in)]
    return tuple(out)


def relabel2(table, swap, in_flips, out_flips):
    """Bipartite relabelling: optional party swap, then input flips and
    per-input output flips, as in relabel3."""
    out = [None] * 16
    for x, y, a, b in product(BITS, repeat=4):
        ox, oy = x ^ in_flips[0], y ^ in_flips[1]
        oa, ob = a ^ out_flips[0][x], b ^ out_flips[1][y]
        src = idx2(ob, oa, oy, ox) if swap else idx2(oa, ob, ox, oy)
        out[idx2(a, b, x, y)] = table[src]
    return tuple(out)


def mix(tables, weights):
    return tuple(sum(w * t[i] for t, w in zip(tables, weights)) for i in range(len(tables[0])))


def is_valid(table):
    """Positivity, normalisation per input and no-signalling, any arity."""
    n = 3 if len(table) == 64 else 2
    at = (lambda o, i: table[idx3(*o, *i)]) if n == 3 else (lambda o, i: table[idx2(*o, *i)])
    for ins in product(BITS, repeat=n):
        vals = [at(outs, ins) for outs in product(BITS, repeat=n)]
        if any(v < 0 for v in vals) or sum(vals) != 1:
            return False
    for p in range(n):
        for ins in product(BITS, repeat=n):
            flipped = tuple(v ^ (q == p) for q, v in enumerate(ins))
            for outs in product(BITS, repeat=n):
                if outs[p]:
                    continue
                o1 = tuple(v ^ (q == p) for q, v in enumerate(outs))
                if at(outs, ins) + at(o1, ins) != at(outs, flipped) + at(o1, flipped):
                    return False
    return True


def scaled(table):
    """(integer table, scale) with table = integer table / scale."""
    scale = lcm(*(Fraction(v).denominator for v in table))
    return tuple(int(v * scale) for v in table), scale


# --- text formats ----------------------------------------------------------


def dumps(table):
    """Box file text: header, then one line per nonzero entry."""
    n = 3 if len(table) == 64 else 2
    lines = [f"box{n}"]
    for ins in product(BITS, repeat=n):
        for outs in product(BITS, repeat=n):
            v = table[idx3(*outs, *ins) if n == 3 else idx2(*outs, *ins)]
            if v:
                lines.append(f"{' '.join(map(str, outs))} | {' '.join(map(str, ins))} = {v}")
    return "\n".join(lines) + "\n"


def loads(text):
    """Parse box file text strictly: one output and input bit per token."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = {"box2": 2, "box3": 3}[lines[0]]
    table = [Fraction(0)] * (64 if n == 3 else 16)
    for ln in lines[1:]:
        left, value = ln.split("=")
        outs, ins = (tuple(int(t) for t in part.split()) for part in left.split("|"))
        if len(outs) != n or len(ins) != n or not set(outs + ins) <= {0, 1}:
            raise ValueError(f"bad entry {ln!r}")
        table[idx3(*outs, *ins) if n == 3 else idx2(*outs, *ins)] = Fraction(value.strip())
    return tuple(table)


def encode(w):
    bp, ordering, alpha, beta, gamma = w
    solo, pair = BIPARTITIONS[bp]
    first, second = pair if ordering == 0 else pair[::-1]
    return (f"bp={PARTY_NAMES[solo]}|{PARTY_NAMES[pair[0]]}{PARTY_NAMES[pair[1]]} "
            f"order={PARTY_NAMES[first]},{PARTY_NAMES[second]} "
            f"alpha={alpha} beta={beta} gamma={gamma}")


def decode(text):
    """Inverse of encode for the canonical form the program prints."""
    f = dict(tok.split("=", 1) for tok in text.split())
    bp = [encode((i, 0, 0, 0, 0)).split()[0] for i in range(3)].index("bp=" + f["bp"])
    first = PARTY_NAMES.index(f["order"].split(",")[0])
    ordering = 0 if first == BIPARTITIONS[bp][1][0] else 1
    w = (bp, ordering, int(f["alpha"]), int(f["beta"]), int(f["gamma"]))
    if encode(w) != text.strip():
        raise ValueError(f"not a canonical wiring: {text!r}")
    return w


# --- wirings and functionals -------------------------------------------------


def wirings():
    """All 3 x 32768 wirings in canonical (bipartition, ordering, alpha,
    beta, gamma) order."""
    return product(range(3), BITS, range(4), range(16), range(256))


def wire(table, w):
    """Effective bipartite table P(a'b'|x'y').

    The solo party passes x' and a' through.  The first actor gets input
    alpha(s') and answers w1; the second gets beta(s', w1) and answers w2;
    the pair reports b' = gamma(s', w1, w2).  Each term is read at the input
    triple the wiring produces, which no-signalling makes the sequential
    probability.
    """
    bp, ordering, alpha, beta, gamma = w
    solo, pair = BIPARTITIONS[bp]
    first, second = pair if ordering == 0 else pair[::-1]
    out = [0] * 16
    for xp, sp, ap, w1, w2 in product(BITS, repeat=5):
        ins = [0, 0, 0]
        outs = [0, 0, 0]
        ins[solo], outs[solo] = xp, ap
        ins[first], outs[first] = bit(alpha, sp), w1
        ins[second], outs[second] = bit(beta, 2 * sp + w1), w2
        bout = bit(gamma, 4 * sp + 2 * w1 + w2)
        out[idx2(ap, bout, xp, sp)] += table[idx3(*outs, *ins)]
    return tuple(out)


def correlators(t):
    """(E00, E01, E10, E11), outputs 0 -> +1 and 1 -> -1."""
    return tuple(
        sum((t[idx2(a, b, x, y)] if a == b else -t[idx2(a, b, x, y)])
            for a, b in product(BITS, repeat=2))
        for x, y in product(BITS, repeat=2)
    )


def relabelings2():
    """The 128 bipartite relabellings as (swap, in_flips, out_flips)."""
    for swap, ix, iy, o0, o1, o2, o3 in product(BITS, repeat=7):
        yield swap, (ix, iy), ((o0, o1), (o2, o3))


_GROUP2 = tuple(relabelings2())


def orbit_maxima(t):
    """(max |E00 + E01 + E10 - E11|, max (E00 + E10)^2 + (E01 - E11)^2) over
    the relabelling orbit of the bipartite table t."""
    best_c = best_u = 0
    for r in _GROUP2:
        e00, e01, e10, e11 = correlators(relabel2(t, *r))
        best_c = max(best_c, abs(e00 + e01 + e10 - e11))
        best_u = max(best_u, (e00 + e10) ** 2 + (e01 - e11) ** 2)
    return best_c, best_u


def wired_maxima(table, w):
    """Orbit maxima of the effective box of wiring w, as Fractions."""
    ints, scale = scaled(table)
    c, u = orbit_maxima(wire(ints, w))
    return Fraction(c, scale), Fraction(u, scale * scale)


def chsh_forms(t):
    """The eight CHSH forms: +-(E00 + E01 + E10 + E11 - 2 Exy)."""
    e = correlators(t)
    s = sum(e)
    return [sign * (s - 2 * exy) for exy in e for sign in (1, -1)]


def k_value(table):
    """15/2 + <A1B1C1>/2 - 2(<A0B0C0> + <A0B1> + <B0C1> + <A1C0>); inputs of
    parties outside a correlator are set to 0."""

    def corr(parties, ins):
        full = [0, 0, 0]
        for p, v in zip(parties, ins):
            full[p] = v
        return sum((-1) ** sum(outs[p] for p in parties) * table[idx3(*outs, *full)]
                   for outs in product(BITS, repeat=3))

    return (Fraction(15, 2) + Fraction(1, 2) * corr((0, 1, 2), (1, 1, 1))
            - 2 * (corr((0, 1, 2), (0, 0, 0)) + corr((0, 1), (0, 1))
                   + corr((1, 2), (0, 1)) + corr((0, 2), (1, 0))))


def sweep(table):
    """Exhaustive search: for each of the two orbit maxima, the largest value
    and the first wiring in canonical order that attains it."""
    ints, scale = scaled(table)
    seen = {}
    best = [(None, -1), (None, -1)]
    for w in wirings():
        eff = wire(ints, w)
        vals = seen.get(eff)
        if vals is None:
            vals = seen[eff] = orbit_maxima(eff)
        for k in (0, 1):
            if vals[k] > best[k][1]:
                best[k] = (w, vals[k])
    (wc, c), (wu, u) = best
    return {
        "chsh_max": [str(Fraction(c, scale)), encode(wc)],
        "uffink_max": [str(Fraction(u, scale * scale)), encode(wu)],
        "distinct_boxes": len(seen),
    }


# --- LP certificates, checked by substitution ---------------------------------


def parse_certificate(text):
    lines = text.split("\n")
    kind = lines[0]
    entries = {}
    for ln in lines[1:]:
        if ln:
            k, v = ln.split(" = ")
            entries[int(k)] = Fraction(v)
    return kind, entries


def local_vertices(n):
    """Column c of the locality LP: party p answers bit i of truth table
    (c >> 2(n-1-p)) & 3 on input i.  Yields (c, set of table indices)."""
    for c in range(4 ** n):
        tts = [(c >> (2 * (n - 1 - p))) & 3 for p in range(n)]
        hits = set()
        for ins in product(BITS, repeat=n):
            outs = [bit(tts[p], ins[p]) for p in range(n)]
            hits.add(idx3(*outs, *ins) if n == 3 else idx2(*outs, *ins))
        yield c, hits


def check_local_certificate(table, text):
    """Verdict ('feasible' or 'infeasible') if the certificate proves it for
    this table, else None.  Rows are the table entries, then normalisation."""
    kind, entries = parse_certificate(text)
    n = 3 if len(table) == 64 else 2
    verts = dict(local_vertices(n))
    size = len(table)
    if kind == "feasible":
        if any(v < 0 for v in entries.values()) or sum(entries.values()) != 1:
            return None
        rebuilt = [0] * size
        for c, v in entries.items():
            for i in verts[c]:
                rebuilt[i] += v
        return kind if tuple(rebuilt) == tuple(table) else None
    if kind == "infeasible":
        y = entries
        rhs = sum(y.get(i, 0) * table[i] for i in range(size)) + y.get(size, 0)
        cols_ok = all(sum(y.get(i, 0) for i in hits) + y.get(size, 0) <= 0
                      for hits in verts.values())
        return kind if rhs > 0 and cols_ok else None
    return None


def route_hits(bp, route, solo_tt, f, g):
    """Table indices a one-way strategy populates: the solo party answers
    solo_tt, the sender f(own input), the receiver g(2*pair[0] input +
    pair[1] input).  Route 0 has pair[0] sending, route 1 pair[1]."""
    solo, (p0, p1) = BIPARTITIONS[bp]
    sender, receiver = (p0, p1) if route == 0 else (p1, p0)
    hits = []
    for ins in product(BITS, repeat=3):
        outs = [0, 0, 0]
        outs[solo] = bit(solo_tt, ins[solo])
        outs[sender] = bit(f, ins[sender])
        outs[receiver] = bit(g, 2 * ins[p0] + ins[p1])
        hits.append(idx3(*outs, *ins))
    return hits


def check_tobl_certificate(table, bp, text):
    """As check_local_certificate for the one-way LP of bipartition bp:
    column solo_tt*4096 + (f1*16 + g1)*64 + f2*16 + g2, rows 0-63 route 0,
    64-127 route 1, 128 normalisation."""
    kind, entries = parse_certificate(text)
    if kind == "feasible":
        if any(v < 0 for v in entries.values()) or sum(entries.values()) != 1:
            return None
        reading = [[0] * 64, [0] * 64]
        for col, v in entries.items():
            solo_tt, rest = divmod(col, 4096)
            r1, r2 = divmod(rest, 64)
            for route, r in ((0, r1), (1, r2)):
                for i in route_hits(bp, route, solo_tt, *divmod(r, 16)):
                    reading[route][i] += v
        return kind if all(tuple(r) == tuple(table) for r in reading) else None
    if kind == "infeasible":
        y = [entries.get(i, 0) for i in range(129)]
        rhs = sum(y[i] * table[i] + y[64 + i] * table[i] for i in range(64)) + y[128]
        # A column's aggregate is s0(solo, f1, g1) + s1(solo, f2, g2) + y128,
        # so every column is nonpositive iff the largest sums are.
        for solo_tt in range(4):
            worst = y[128]
            for route in (0, 1):
                worst += max(sum(y[64 * route + i] for i in route_hits(bp, route, solo_tt, f, g))
                             for f in range(4) for g in range(16))
            if worst > 0:
                return None
        return kind if rhs > 0 else None
    return None
