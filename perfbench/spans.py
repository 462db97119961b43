"""Spans around the public entry points of each nsboxes module.

Tracer.install() rebinds, from outside, the names through which the
program reaches each layer (for example cli.apply_wiring, bell.chsh_max,
membership.lp_feasible) to wrappers that open a span with a parent link.
Nothing under src/ changes.  A name that a later version of the program no
longer has is skipped, and its layer then reads 0.

Self time is a span's duration minus the time its child spans cover.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.phase = "setup"
        self.spans = []  # (id, parent, op, phase, name, start, end)
        self._stack = []  # [id, name, start, child time]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._lp_nnz = {}

    # -- spans --

    def open(self, name):
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, self.clock.now(), 0.0])

    def close(self):
        sid, name, start, child = self._stack.pop()
        end = self.clock.now()
        parent = self._stack[-1][0] if self._stack else None
        op = self._stack[0][0] if self._stack else sid
        self.spans.append((sid, parent, op, self.phase, name, start, end))
        if self._stack:
            self._stack[-1][3] += end - start
        self.calls[self.phase, name] += 1
        self.self_s[self.phase, name] += end - start - child

    def inside(self, name):
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if callable(fn):
            setattr(owner, attr, self.wrap(name, fn, after))

    # -- the program's layers --

    def install(self, mods):
        cli, boxes, wiring = mods["cli"], mods["boxes"], mods["wiring"]
        bell, membership, lp = mods["bell"], mods["membership"], mods["lp"]
        self.patch(cli, "loads", "boxes.loads")
        self.patch(cli, "dumps", "boxes.dumps")
        self.patch(cli, "validate", "boxes.validate")
        self.patch(boxes, "validate", "boxes.validate")
        self.patch(cli, "apply_wiring", "wiring.apply")
        self.patch(cli, "search_max_all", "wiring.sweep", self._after_sweep)
        self.patch(wiring, "enumerate_wirings", "wiring.enumerate", self._after_enumerate)
        # The sweep reaches the functionals through this table, once per
        # distinct effective box and functional.
        table = getattr(wiring, "_FUNCTIONALS", {})
        for key in list(table):
            table[key] = self.wrap("bell", table[key], self._after_sweep_functional)
        for attr in ("chsh", "chsh_max", "uffink", "uffink_max", "k_value", "gyni_value"):
            self.patch(bell, attr, "bell")
        self.patch(cli, "is_local", "membership")
        self.patch(cli, "is_tobl", "membership")
        self.patch(membership, "local_problem", "membership.build")
        self.patch(membership, "tobl_problem", "membership.build")
        self.patch(membership, "lp_feasible", "lp.solve", self._after_solve)
        self.patch(lp.LPCertificate, "verify", "lp.verify")

    def _after_enumerate(self, args, result):
        if self.inside("wiring.sweep"):
            self.counts["wiring.wirings"] += len(result)

    def _after_sweep_functional(self, args, result):
        self.counts["sweep.evaluations"] += 1

    def _after_sweep(self, args, result):
        # Each distinct effective box costs one evaluation per functional.
        self.counts["wiring.distinct_boxes"] += self.counts.pop("sweep.evaluations", 0) / len(result)

    def _after_solve(self, args, cert):
        problem = args[0]
        shape = (problem.num_vars, len(problem.rows))
        if shape not in self._lp_nnz:  # the layout, hence nnz, is fixed per shape
            self._lp_nnz[shape] = sum(1 for entries, _ in problem.rows for _, c in entries if c)
        self.counts["lp.rows"] += shape[1]
        self.counts["lp.cols"] += shape[0]
        self.counts["lp.nnz"] += self._lp_nnz[shape]
        self.counts["lp.support"] += len(cert.point if cert.feasible else cert.farkas)
        self.counts["lp.feasible" if cert.feasible else "lp.infeasible"] += 1

    # -- results --

    def metrics(self, n_ops):
        """Per-layer metrics: per operation, except wiring.enumerate.s (per
        set-up) and the LP sizes (per solve)."""

        def per_op(value):
            return value / n_ops

        def s(name):
            return per_op(self.self_s["ops", name])

        def calls(name):
            return per_op(self.calls["ops", name])

        solves = self.calls["ops", "lp.solve"]
        wirings = self.counts["wiring.wirings"]
        per_solve = (lambda k: self.counts[k] / solves) if solves else (lambda k: 0)
        values = {
            "cli.self_s": (s("cli"), "s"),
            "boxes.validate.calls": (calls("boxes.validate"), "count"),
            "boxes.validate.s": (s("boxes.validate"), "s"),
            "boxes.loads.s": (s("boxes.loads"), "s"),
            "boxes.dumps.s": (s("boxes.dumps"), "s"),
            "wiring.enumerate.s": (self.self_s["setup", "wiring.enumerate"], "s"),
            "wiring.sweeps": (calls("wiring.sweep"), "count"),
            "wiring.wirings": (per_op(wirings), "count"),
            "wiring.sweep.self_s": (s("wiring.sweep"), "s"),
            "wiring.distinct_boxes": (per_op(self.counts["wiring.distinct_boxes"]), "count"),
            "wiring.distinct_share": (self.counts["wiring.distinct_boxes"] / wirings if wirings else 0, "ratio"),
            "wiring.apply.calls": (calls("wiring.apply"), "count"),
            "wiring.apply.s": (s("wiring.apply"), "s"),
            "bell.calls": (calls("bell"), "count"),
            "bell.s": (s("bell"), "s"),
            "membership.build.s": (s("membership.build"), "s"),
            "lp.solves": (calls("lp.solve"), "count"),
            "lp.solve.self_s": (s("lp.solve"), "s"),
            "lp.verify.s": (s("lp.verify"), "s"),
            "lp.rows": (per_solve("lp.rows"), "count"),
            "lp.cols": (per_solve("lp.cols"), "count"),
            "lp.nnz": (per_solve("lp.nnz"), "count"),
            "lp.support": (per_solve("lp.support"), "count"),
            "lp.feasible": (per_op(self.counts["lp.feasible"]), "count"),
            "lp.infeasible": (per_op(self.counts["lp.infeasible"]), "count"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write(self, path):
        fields = ("id", "parent", "op", "phase", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
