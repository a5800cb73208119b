"""Spans and counters recorded around calls into normext's layers.

A ``Tracer`` is installed only in a traced pass.  It replaces public
functions and methods of ``linalg``, ``quotient``, ``rewriting``,
``certify``, ``family``, ``dsl``, ``superpotential`` and ``tuples`` with
timing wrappers, from outside the package: a module-level function is
rebound in every ``normext`` module that imported it, a method is replaced
on its class.  Each call records a span (name, start, end, parent span,
operation index).  Spans stay in memory until the pass writes them once, at
its end.

Per-layer metrics are sums over the outermost span of each name, so a
recursive or nested call is not counted twice.  ``rewriting.nf_*`` counts
normal forms outside completion only.  The four set-up metrics cover the
set-up phase; every other metric covers the operations.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from normext import certify, dsl, family, linalg, quotient, rewriting, scalars, superpotential, tuples

SETUP_METRICS = ("dsl.parse_s", "superpotential.build_s", "certify.build_extension_s", "tuples.is_good_s")

# counts that must repeat exactly between traced passes of one seed
COUNT_METRICS = (
    "linalg.insert_calls",
    "quotient.rows_offered",
    "quotient.rank",
    "quotient.entries",
    "rewriting.rules",
    "rewriting.ambiguities",
    "rewriting.nf_calls",
)

PER_LAYER = (
    ("scalars.fms_us.n3", "us"),
    ("scalars.fms_us.n12", "us"),
    ("scalars.mul_us.n3", "us"),
    ("scalars.mul_us.n12", "us"),
    ("linalg.insert_calls", "count"),
    ("linalg.insert_s", "s"),
    ("linalg.zero_insert_ratio", "ratio"),
    ("quotient.extend_s", "s"),
    ("quotient.extend_top_s", "s"),
    ("quotient.rows_offered", "count"),
    ("quotient.useful_ratio", "ratio"),
    ("quotient.entries", "count"),
    ("quotient.rank", "count"),
    ("rewriting.complete_s", "s"),
    ("rewriting.rules", "count"),
    ("rewriting.ambiguities", "count"),
    ("rewriting.rules_per_ambiguity", "ratio"),
    ("rewriting.nf_calls", "count"),
    ("rewriting.nf_s", "s"),
    ("certify.hilbert_s", "s"),
    ("certify.omega_s", "s"),
    ("certify.resolution_s", "s"),
    ("certify.nakayama_s", "s"),
    ("family.probe_s", "s"),
    ("family.zhang_s", "s"),
    ("dsl.parse_s", "s"),
    ("superpotential.build_s", "s"),
    ("certify.build_extension_s", "s"),
    ("tuples.is_good_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, op index]
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.op = -1  # -1 while setting up
        self.totals: dict[str, float] = defaultdict(float)  # metric -> value, whole pass
        self.per_op: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.engines: list = []  # LinearEngines and GBStates met: their
        self.states: list = []  # coefficients feed the scalar microbenchmark

    # -- recording -------------------------------------------------------

    def _add(self, metric: str, value: float) -> None:
        phase_ok = (metric in SETUP_METRICS) == (self.op < 0)
        if phase_ok:
            self.totals[metric] += value
        self.per_op[self.op][metric] += value

    def _span(self, name: str, metric: str | None, fn, skip_inside: str | None = None, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            depth = tracer._depth[name]
            tracer._depth[name] = depth + 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._depth[name] = depth
                tracer._stack.pop()
            if metric and depth == 0 and not (skip_inside and tracer._depth[skip_inside]):
                tracer._add(metric, rec[2] - rec[1])
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` wherever a normext module bound it by name."""
        for modname, mod in list(sys.modules.items()):
            if modname == "normext" or modname.startswith("normext."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def _function(self, module, attr: str, name: str, metric: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            sys.stderr.write(f"trace: {module.__name__}.{attr} not found; {metric} reads 0\n")
            return
        self._rebind(fn, self._span(name, metric, fn))

    def _method(self, cls, attr: str, name: str, metric: str | None, **kw) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            sys.stderr.write(f"trace: {cls.__name__}.{attr} not found; {metric} reads 0\n")
            return
        setattr(cls, attr, self._span(name, metric, fn, **kw))

    def install(self) -> None:
        self._function(certify, "verify_hilbert", "certify.hilbert", "certify.hilbert_s")
        self._function(certify, "omega_certificate", "certify.omega", "certify.omega_s")
        self._function(certify, "resolution_certificate", "certify.resolution", "certify.resolution_s")
        self._function(certify, "nakayama", "certify.nakayama", "certify.nakayama_s")
        self._function(certify, "hdet_certificate", "certify.nakayama", "certify.nakayama_s")
        self._function(family, "flatness_probe", "family.probe", "family.probe_s")
        self._function(family, "zhang_certificate", "family.zhang", "family.zhang_s")
        self._function(dsl, "parse_algebra_file", "dsl.parse", "dsl.parse_s")
        self._function(tuples, "is_good", "tuples.is_good", "tuples.is_good_s")
        self._method(superpotential.Superpotential, "__init__", "superpotential.build", "superpotential.build_s")
        self._method(certify.ExtensionSpec, "__init__", "certify.build_extension", "certify.build_extension_s")
        self._method(linalg.RowReducer, "insert", "linalg.insert", "linalg.insert_s", after=self._after_insert)
        self._method(
            rewriting.GBState, "__init__", "rewriting.complete", "rewriting.complete_s", after=self._after_complete
        )
        self._method(
            rewriting.GBState,
            "normal_form",
            "rewriting.nf",
            "rewriting.nf_s",
            skip_inside="rewriting.complete",
            after=lambda _a, _r: self._add("rewriting.nf_calls", 1),
        )
        extend = quotient.LinearEngine.__dict__.get("extend")
        if extend is None:
            sys.stderr.write("trace: LinearEngine.extend not found; quotient metrics read 0\n")
        else:
            quotient.LinearEngine.extend = self._span("quotient.extend", None, self._extend_by_degree(extend))

    def _after_insert(self, _args, added) -> None:
        self._add("linalg.insert_calls", 1)
        if not added:
            self._add("linalg.zero_inserts", 1)

    def _after_complete(self, args, _result) -> None:
        state = args[0]
        self.states.append(state)
        self._add("rewriting.rules", len(state.rules))
        self._add("rewriting.ambiguities", len(state.log))

    def _extend_by_degree(self, extend):
        """Ask the engine for one more degree at a time, timing each level and
        reading its size from outside: rows offered n*rank_{d-1} +
        sum_r n^(d - deg r), useful rows rank_d - n*rank_{d-1}, stored
        non-zeros."""
        tracer = self

        def by_degree(eng, bound):
            if not any(e is eng for e in tracer.engines):
                tracer.engines.append(eng)
            for d in range(len(eng.levels), bound + 1):
                t = perf_counter()
                extend(eng, d)
                dt = perf_counter() - t
                tracer._add("quotient.extend_s", dt)
                if d == bound:
                    tracer._add("quotient.extend_top_s", dt)
                n = eng.pres.ctx.n
                rel_rows = sum(n ** (d - r.degree) for r in eng.pres.relations if r.degree <= d)
                prev = eng.levels[d - 1].rank if d else 0
                level = eng.levels[d]
                tracer._add("quotient.rows_offered", n * prev + rel_rows)
                tracer._add("quotient.relation_rows", rel_rows)
                tracer._add("quotient.useful_rows", level.rank - n * prev)
                tracer._add("quotient.rank", level.rank)
                tracer._add("quotient.entries", sum(len(row) for row in level.pivots.values()))

        return by_degree

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        t = self.totals
        out = {name: t.get(name, 0.0) for name, _unit in PER_LAYER if not name.startswith(("scalars.", "trace."))}
        out["linalg.zero_insert_ratio"] = _ratio(t["linalg.zero_inserts"], t["linalg.insert_calls"])
        out["quotient.useful_ratio"] = _ratio(t["quotient.useful_rows"], t["quotient.relation_rows"])
        out["rewriting.rules_per_ambiguity"] = _ratio(t["rewriting.rules"], t["rewriting.ambiguities"])
        for name in COUNT_METRICS:
            out[name] = int(out[name])
        return out

    def op_rows(self, ops, seconds, factors) -> list:
        """One row per operation; its times (``*_s``) multiplied by its
        host-speed factor."""
        rows = []
        for i, (op, f) in enumerate(zip(ops, factors)):
            row = {"op": op.key, "kind": op.kind, "seconds": seconds[i] * f}
            row.update((k, v * f if k.endswith("_s") else v) for k, v in sorted(self.per_op[i].items()))
            rows.append(row)
        return rows

    def write(self, path, ops, seconds, factors) -> None:
        """Write every span (unscaled, with its self time), the host-speed
        factor of each operation and the (scaled) per-operation rows."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [
            [self.names[nid], round(start - origin, 7), round(end - origin, 7),
             round(end - start - child[i], 7), parent, op]
            for i, (nid, start, end, parent, op) in enumerate(self.spans)
        ]
        doc = {
            "span_fields": ["name", "start_s", "end_s", "self_s", "parent", "op"],
            "host_scale": factors,
            "ops": [op.key for op in ops],
            "op_rows": self.op_rows(ops, seconds, factors),
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def scalar_operands(self, relation_coefficients) -> list:
        """The workload's own coefficients: relations, LA pivot rows, GB tails."""
        out = list(relation_coefficients)
        for eng in self.engines:
            for level in eng.levels:
                for row in level.pivots.values():
                    out.extend(row.values())
        for state in self.states:
            for tail in state.rules.values():
                out.extend(tail.terms.values())
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scalar_microbench(operands, seed: int, ops: int = 2000, repeats: int = 5) -> dict:
    """µs per ``sc_fms`` (a - c*b) and per ``Scalar.__mul__`` in Q(zeta_3) and
    Q(zeta_12), on operand triples drawn from ``operands``.  A conductor the
    workload never uses gets scalars built from the workload's own rational
    entries, so operand sizes still come from the workload."""
    rng = random.Random(seed)
    fms = getattr(scalars, "sc_fms", None) or (lambda a, c, b: a - c * b)
    out = {}
    for n in (3, 12):
        pool = {s.c: s for s in operands if s.n == n and not s.is_zero()}
        if not pool:
            d = len(scalars.cyclotomic_poly(n)) - 1
            for s in operands:
                t = scalars.Scalar(n, list(s.c)[:d])
                if not t.is_zero():
                    pool[t.c] = t
        values = sorted(pool.values(), key=lambda s: s.c)
        triples = [tuple(rng.choice(values) for _ in range(3)) for _ in range(ops)]
        for metric, body in (
            (f"scalars.fms_us.n{n}", lambda: [fms(a, c, b) for a, c, b in triples]),
            (f"scalars.mul_us.n{n}", lambda: [c * b for _a, c, b in triples]),
        ):
            times = []
            for _ in range(repeats):
                t = perf_counter()
                body()
                times.append(perf_counter() - t)
            out[metric] = statistics.median(times) / ops * 1e6
    return out
