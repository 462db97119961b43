"""The four workloads: seeded inputs, one round of CLI operations, and the
check of every output against perfbench/naive.py.

An operation is one nsboxes command line.  prepare() writes a workload's
input files into the run's scratch directory (the operations run there, so
default-named certificates land there too) and returns its round: the same
operations in the same order on every round of a run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import naive as nv

BIPARTITION_NAMES = ("A|BC", "B|AC", "C|AB")
EXTREMAL = {"class3": nv.class3, "class4": nv.class4, "class44": nv.class44}

# sweep-mixed inputs: seed % MIXED_POOL picks one entry, so that
# make_reference.py can cover every input a seed can produce.  Every entry
# is class44 and two deterministic boxes under one fixed relabelling of the
# three parties, with the entry's own weights.  The structure fixes the
# number of distinct effective boxes (5104 of 98304), hence the cost of an
# entry; other relabellings of the same vertices gave 2880 and 3200, and
# one-vertex mixtures 1868-2256, so varying the structure by seed would make
# a run's cost depend on its seed.
MIXED_POOL = 8
MIXED_POOL_SEED = 11082293
MIXED_RELABELING = ((0, 2, 1), (0, 1, 0), ((0, 0), (0, 0), (0, 1)))
MIXED_VERTICES = (("class44", nv.class44), ("det(1,0,3)", partial(nv.deterministic3, 1, 0, 3)),
                  ("det(0,1,2)", partial(nv.deterministic3, 0, 1, 2)))


@dataclass(frozen=True)
class Op:
    """One command line; check(stdout, side_text) returns an error or None.
    side_file is a file the command writes (a certificate), read after it."""

    argv: tuple
    check: Callable
    side_file: str | None = None


def random_relabeling3(rng):
    perm = rng.choice([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    flips = tuple(rng.randrange(2) for _ in range(3))
    outs = tuple((rng.randrange(2), rng.randrange(2)) for _ in range(3))
    return perm, flips, outs


def random_weights(rng, n):
    raw = [rng.randint(1, 9) for _ in range(n)]
    return [Fraction(r, sum(raw)) for r in raw]


def mixed_entry(k):
    """(vertex tables, weights, mixed table) of pool entry k."""
    rng = random.Random(MIXED_POOL_SEED + k)
    vertices = [nv.relabel3(make(), *MIXED_RELABELING) for _, make in MIXED_VERTICES]
    # Large random numerators: no small-integer relation among the weights,
    # so two effective boxes of the mixture coincide only where those of
    # every vertex do, and the distinct count is the same for every entry.
    weights = [Fraction(rng.randint(lo, 2 * lo)) for lo in (200_000, 50_000, 50_000)]
    weights = [w / sum(weights) for w in weights]
    return vertices, weights, nv.mix(vertices, weights)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- checks -----------------------------------------------------------------


def _verdict(c, u):
    if c * c > 8:
        return "IC violated (CHSH)"
    if u > 4:
        return "IC violated (Uffink)"
    return "no witness"


def check_search(table, ref, stdout, _side):
    """Values and wirings equal the reference; each wiring, evaluated again,
    gives its value."""
    lines = stdout.splitlines()
    if len(lines) != 3:
        return f"search printed {len(lines)} lines"
    head = lines[0].split(", ")
    c, u = Fraction(head[0].split(" = ")[1]), Fraction(head[1].split(" = ")[1])
    wc = lines[1].removeprefix("chsh_max wiring: ")
    wu = lines[2].removeprefix("uffink_max wiring: ")
    if [str(c), wc] != ref["chsh_max"] or [str(u), wu] != ref["uffink_max"]:
        return f"search gave {c} at {wc!r}, {u} at {wu!r}; reference {ref}"
    if head[2] != _verdict(c, u):
        return f"verdict {head[2]!r} for {c}, {u}"
    if nv.wired_maxima(table, nv.decode(wc))[0] != c or nv.wired_maxima(table, nv.decode(wu))[1] != u:
        return "a reported wiring does not give its reported value"
    return None


def check_mixed(table, entry, weights, stdout, side):
    """check_search, then the convexity bounds: each maximum is at most the
    weighted vertex maxima (both orbit maxima are convex, wiring is linear)
    and at least the mixture's value at each vertex's maximising wiring."""
    error = check_search(table, entry, stdout, side)
    if error:
        return error
    for i, key in enumerate(("chsh_max", "uffink_max")):
        value = Fraction(entry[key][0])
        hi = sum(w * Fraction(v[key][0]) for w, v in zip(weights, entry["vertices"]))
        lo = max(nv.wired_maxima(table, nv.decode(v[key][1]))[i] for v in entry["vertices"])
        if not lo <= value <= hi:
            return f"{key} {value} outside the convexity bounds [{lo}, {hi}]"
    return None


def check_table1(tsv_wirings, stdout, _side):
    """Each reported row: recorded values met (flag ok), and the printed
    values equal the naive evaluation of the row's recorded wiring."""
    lines = stdout.splitlines()
    if lines[0].split("\t") != ["class", "wiring", "chsh", "uffink", "paper_chsh", "paper_uffink", "flag"]:
        return "table1 header changed"
    rows = {int(ln.split("\t")[0]): ln.split("\t")[1:] for ln in lines[1:]}
    expect = {3: ("3", "5"), 4: ("2", "4"), 44: ("4", "8")}
    if set(rows) != set(expect):
        return f"table1 reported classes {sorted(rows)}"
    for cls, (wiring, chsh, uffink, _pc, _pu, flag) in rows.items():
        if flag != "ok" or (chsh, uffink) != expect[cls]:
            return f"table1 class {cls}: {chsh}, {uffink}, flag {flag}"
        if cls == 4:
            if wiring != "search":
                return "table1 class 4 should fall back to the search"
            continue
        if wiring != tsv_wirings[cls]:
            return f"table1 class {cls} wiring {wiring!r} is not the recorded one"
        got = nv.wired_maxima(EXTREMAL[f"class{cls}"](), nv.decode(wiring))
        if (str(got[0]), str(got[1])) != (chsh, uffink):
            return f"table1 class {cls}: naive evaluation gives {got}"
    return None


def check_membership(table, bp, expect, certname, stdout, side):
    """Verdict line, certificate path, and the certificate re-checked by
    substitution; expect is 'feasible', 'infeasible' or None (either)."""
    verdict = stdout.split("\n")[0]
    if stdout != f"{verdict}\ncertificate: {certname}\n":
        return f"membership printed {stdout!r}"
    if expect is not None and verdict != expect:
        return f"expected {expect}, got {verdict}"
    proved = (nv.check_local_certificate(table, side) if bp is None
              else nv.check_tobl_certificate(table, bp, side))
    if proved != verdict:
        return f"certificate does not prove {verdict!r}"
    return None


def check_wire(table, wiring, stdout, _side):
    """The effective box is the naive one and valid; the summary's maxima
    are the naive orbit maxima."""
    body, _, summary = stdout.rstrip("\n").rpartition("\n")
    eff = nv.wire(table, nv.decode(wiring))
    if nv.loads(body) != eff or not nv.is_valid(eff):
        return "effective box differs from the naive evaluation"
    c, u = (Fraction(v) for v in nv.orbit_maxima(eff))
    if summary != f"# chsh_max = {c}, uffink_max = {u}, {_verdict(c, u)}":
        return f"summary {summary!r}, naive maxima {c}, {u}"
    return None


def check_eval_k(table, stdout, _side):
    k = nv.k_value(table)
    if stdout != f"{k}\n":
        return f"k printed {stdout!r}, naive {k}"
    return None


# --- workloads ----------------------------------------------------------------


def _write(tmp, name, table):
    (tmp / name).write_text(nv.dumps(table))
    return name


def sweep_extremal(tmp, seed, ref, repo):
    """search on the three built-in extremal boxes, then table1."""
    tsv = recorded_wirings(repo)
    ops = [Op(("search", f"builtin:{name}"),
              partial(check_search, make(), ref["extremal"][name]))
           for name, make in EXTREMAL.items()]
    ops.append(Op(("table1",), partial(check_table1, tsv)))
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def sweep_mixed(tmp, seed, ref, repo):
    """search on one pool entry: bell-heavy, few repeated effective boxes."""
    k = seed % MIXED_POOL
    _, weights, table = mixed_entry(k)
    entry = ref["mixed"][k]
    name = _write(tmp, f"mixed{k}.box", table)
    if digest(nv.dumps(table)) != entry["digest"]:
        raise RuntimeError(f"mixed entry {k} differs from the reference input")
    return [Op(("search", name), partial(check_mixed, table, entry, weights))]


def membership(tmp, seed, ref, repo):
    """tobl on class3, class4 and class44 for every bipartition, with the
    class4 ones twice, and local on two seeded bipartite boxes, a
    deterministic mixture and two of the extremal boxes.

    The round's 17 operations fall into three groups: 5 local LPs of a few
    ms, 7 one-way LPs of about 0.2 s (class3 on C|AB, class4 twice on each
    bipartition) and 5 of about 0.3 s.  The median is then the middle of
    the 0.2 s group, not an operation at the edge between two groups, whose
    order flips with noise.  The local LPs vary with their seeded boxes, so
    a median among them would vary with the seed.
    """
    rng = random.Random(seed)
    ops = []
    for name, make in EXTREMAL.items():
        expect = {"class4": "feasible", "class44": "infeasible"}.get(name)
        for bp, bp_name in enumerate(BIPARTITION_NAMES):
            cert = f"{name}.tobl.{bp_name.replace('|', '-')}.cert"
            op = Op(("membership", f"builtin:{name}", "--model", "tobl", "--bipartition", bp_name),
                    partial(check_membership, make(), bp, expect, cert), cert)
            ops.extend([op, op] if name == "class4" else [op])
    local = []
    for i in range(2):
        verts = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                flips = (rng.randrange(2), rng.randrange(2))
                outs = ((rng.randrange(2), rng.randrange(2)), (rng.randrange(2), rng.randrange(2)))
                verts.append(nv.relabel2(nv.pr(), rng.randrange(2), flips, outs))
            else:
                verts.append(nv.deterministic2(rng.randrange(4), rng.randrange(4)))
        table = nv.mix(verts, random_weights(rng, len(verts)))
        local.append((f"bip{i}.box", table, "feasible" if max(nv.chsh_forms(table)) <= 2 else "infeasible"))
    dets = [nv.deterministic3(*(rng.randrange(4) for _ in range(3))) for _ in range(rng.randint(2, 4))]
    local.append(("detmix.box", nv.mix(dets, random_weights(rng, len(dets))), "feasible"))
    for file_name, table, expect in local:
        _write(tmp, file_name, table)
        cert = f"{file_name.removesuffix('.box')}.local.cert"
        ops.append(Op(("membership", file_name, "--model", "local"),
                      partial(check_membership, table, None, expect, cert), cert))
    names = sorted(EXTREMAL)
    for name in (names[seed % 3], names[(seed + 1) % 3]):
        cert = f"{name}.local.cert"
        ops.append(Op(("membership", f"builtin:{name}", "--model", "local"),
                      partial(check_membership, EXTREMAL[name](), None, "infeasible", cert), cert))
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def wire(tmp, seed, ref, repo):
    """wire with every wiring recorded in table1.tsv on the extremal box
    files and with seeded wirings on seeded mixtures; eval k."""
    rng = random.Random(seed)
    ops = []
    files = {name: (_write(tmp, f"{name}.box", make()), make()) for name, make in EXTREMAL.items()}
    for enc in sorted(set(recorded_wirings(repo).values())):
        for file_name, table in files.values():
            ops.append(Op(("wire", file_name, "--wiring", enc), partial(check_wire, table, enc)))
    for i, make in enumerate((nv.class3, nv.class44)):
        det = nv.deterministic3(*(rng.randrange(4) for _ in range(3)))
        table = nv.mix([nv.relabel3(make(), *random_relabeling3(rng)), det], random_weights(rng, 2))
        file_name = _write(tmp, f"mix{i}.box", table)
        for _ in range(8):
            w = (rng.randrange(3), rng.randrange(2), rng.randrange(4), rng.randrange(16), rng.randrange(256))
            ops.append(Op(("wire", file_name, "--wiring", nv.encode(w)),
                          partial(check_wire, table, nv.encode(w))))
    for file_name, table in files.values():
        ops.append(Op(("eval", file_name, "--functional", "k"), partial(check_eval_k, table)))
    ops.append(Op(("eval", "builtin:class4", "--functional", "k"),
                  lambda out, _side: None if out == "-1\n" else f"class4 k printed {out!r}"))
    rng.shuffle(ops)
    return ops


# name -> (prepare, the once-per-process caches its commands fill: "wirings"
# for enumerate_wirings, "actions" for the relabelling actions of chsh_max).
WORKLOADS = {
    "sweep-extremal": (sweep_extremal, ("wirings", "actions")),
    "sweep-mixed": (sweep_mixed, ("wirings", "actions")),
    "membership": (membership, ()),
    "wire": (wire, ("actions",)),
}


def recorded_wirings(repo):
    """class -> encoding for the rows of table1.tsv that record a wiring."""
    out = {}
    header = None
    for line in (Path(repo) / "src" / "nsboxes" / "table1.tsv").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = fields
            continue
        row = dict(zip(header, fields))
        if row["encoding"] != "-":
            out[int(row["class"])] = row["encoding"]
    return out

