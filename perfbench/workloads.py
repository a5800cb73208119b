"""Instances, operations and correctness checks of the benchmark workloads.

A pass is one workload run once, in a fresh process: set-up (corpus parse,
instance generation, ``build_extension`` for every instance), then every
operation in a seeded order, the Hilbert tables of the A algebras first.
Each operation is a call a user makes through the ``normext`` command, and
each has a correctness check:

* corpus instances (``field_instances``, ``field_instances_override``,
  ``bad``): the sha256 of ``Certificate.dumps()`` must equal the reference
  recorded in ``reference.json``;
* seeded family members: ``cert.passed`` must equal ``is_good`` and, for a
  good tuple, the D table must equal the predicted one;
* Hilbert tables: A dims must equal the sidecar ``hilbert_prefix_A``; D dims
  must equal h_A/(1-t^m) for good tuples and ``hilbert_prefix_D`` where the
  sidecar gives it;
* family probes and Zhang certificates must pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from dataclasses import dataclass, field
from pathlib import Path

import normext
from normext import certify, dsl, family, quotient, tuples
from normext.scalars import Assignment, Scalar
from normext.superpotential import DiagonalMap, Superpotential

WORKLOADS = ("cert-quadratic", "cert-cubic", "dims-la")

# corpus entries per certificate workload (n=3, m=2 and n=2, m=3)
ENTRIES = {
    "cert-quadratic": ("sklyanin", "skew", "w_poly"),
    "cert-cubic": ("cubic_a", "cubic_s2"),
    "dims-la": ("cubic_a", "cubic_s2", "skew", "sklyanin", "w_poly"),
}

# identity-twist entries probed with the ``family-probe`` defaults
PROBED = {
    "cert-quadratic": ("sklyanin", "w_poly"),
    "cert-cubic": ("cubic_a",),
    "dims-la": ("cubic_a",),
}

# diagonal automorphisms of each superpotential (they scale w)
SIGMAS = {
    "w_poly": ("2,1,1", "2,3,5"),
    "cubic_a": ("2,2", "2,-2"),
    "cubic_s2": ("2,1", "3,2"),
    "sklyanin": ("2,2,2", "2,2*z,2*z^2"),
    "skew": ("2,1,1", "2,3,5"),
}

# values of skew's free direction l and of s (alpha = s^2) for cubic_s2,
# chosen away from the corpus instances so that no seeded member repeats one
SKEW_L = ("5", "1/2", "2/5", "7", "-2", "4/3", "5/7", "-3/2", "6", "3/5")
S2_ROOTS = ("3", "1/3", "5/2", "2/3", "5", "3/2", "-7", "2/5", "-4/3", "7/2")
SEEDED_MEMBERS = {"cert-quadratic": 3, "cert-cubic": 2, "dims-la": 2}


def bound_for(m: int, smoke: bool) -> int:
    """Degree bound of every operation: 2m+2, or m+2 for the smoke run."""
    return m + 2 if smoke else 2 * m + 2


def probe_bound(bound: int) -> int:
    """``family-probe`` default bound 6, capped by the workload bound."""
    return min(6, bound)


def corpus_dir() -> Path:
    return Path(normext.__file__).resolve().parent / "corpus"


@dataclass
class Entry:
    name: str
    algebra: object  # dsl.AlgebraFile
    expect: dict


@dataclass
class Instance:
    """One extension D(w, p): a corpus instance or a seeded family member."""

    key: str
    entry: Entry
    sp: Superpotential
    k: int  # 0-based omitted index
    p: tuple
    spec: object  # certify.ExtensionSpec
    assign: str | None  # the ``--assign`` override, if any
    good: bool
    seeded: bool

    @property
    def a_key(self) -> str:
        """Names the algebra A = D/(Omega): entry plus any ``--assign``."""
        return self.entry.name + (f":{self.assign}" if self.assign else "")


@dataclass
class Op:
    """One timed operation; ``run`` returns the value ``check`` judges."""

    key: str
    kind: str
    run: object
    check: object
    recorded: bool = False  # its output hash is kept in reference.json


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    coefficients: list = field(default_factory=list)  # relation scalars


def load_entries(names) -> dict:
    out = {}
    for name in names:
        alg = corpus_dir() / f"{name}.alg"
        with open(alg.with_name(f"{name}.expect.json"), encoding="utf-8") as fh:
            expect = json.load(fh)
        out[name] = Entry(name, dsl.parse_algebra_file(alg), expect)
    return out


def field_superpotential(entry: Entry, assign: str | None) -> Superpotential:
    """The CLI's specialization: file values, overridden by ``--assign``."""
    af = entry.algebra
    values = dict(af.values)
    roots = dict(af.roots)
    if assign:
        new_values, new_roots = dsl.parse_assignment_text(assign, af.conductor)
        for name in new_values:
            for rk in [rk for rk in roots if rk[0] == name]:
                del roots[rk]
        values.update(new_values)
        roots.update(new_roots)
    if not af.params:
        return Superpotential(af.w)
    return Superpotential(af.w.specialize(Assignment(af.params, values, roots, af.conductor)))


def parse_tuple(text: str, conductor: int) -> tuple:
    return tuple(dsl.parse_scalar(part, conductor) for part in text.split(","))


def make_instance(entry, k0, ptext, assign, seeded) -> Instance:
    sp = field_superpotential(entry, assign)
    p = parse_tuple(ptext, entry.algebra.conductor)
    key = f"{entry.name}:k={k0 + 1}:p=({ptext})" + (f":{assign}" if assign else "")
    spec = certify.build_extension(sp, p, k0, label=f"D({entry.name})")
    return Instance(key, entry, sp, k0, p, spec, assign, bool(tuples.is_good(sp, k0, p)), seeded)


def corpus_instances(entry: Entry, with_bad: bool) -> list:
    out = []
    for k, tuples_ in entry.expect.get("field_instances", {}).items():
        out += [make_instance(entry, int(k) - 1, t, None, False) for t in tuples_]
    for k, block in entry.expect.get("field_instances_override", {}).items():
        out += [make_instance(entry, int(k) - 1, t, block["assign"], False) for t in block["tuples"]]
    if with_bad:
        for k, t in entry.expect.get("bad", {}).items():
            out.append(make_instance(entry, int(k) - 1, t, None, False))
    return out


def seeded_instances(entries: dict, count: int, rng: random.Random) -> list:
    """Cheap family members drawn from the seed (skew's l, cubic_s2's s)."""
    out = []
    if "skew" in entries:
        for text in rng.sample(SKEW_L, count):
            l = Fraction(text)
            k = rng.choice((1, 2, 3))
            p = {1: (2, l, 1 / l), 2: (l, Fraction(3, 2), 1 / l), 3: (l, 1 / l, Fraction(1, 3))}[k]
            out.append(make_instance(entries["skew"], k - 1, ",".join(map(str, p)), None, True))
    if "cubic_s2" in entries:
        for text in rng.sample(S2_ROOTS, count):
            s = Fraction(text)
            assign = f"alpha:={s * s},alpha^{{1/2}}:={s}"
            out.append(make_instance(entries["cubic_s2"], 0, f"{s * s},{1 / s}", assign, True))
    return out


def a_presentation(sp: Superpotential, name: str) -> quotient.Presentation:
    return quotient.Presentation(sp.ctx, sp.f, label=f"A({name})")


def probe_points(sp: Superpotential) -> list:
    """The ``family-probe`` default points: coordinate axes, all-ones, (1..n)."""
    cond = sp.ctx.conductor
    one, zero = Scalar.one(cond), Scalar.zero(cond)
    pts = [tuple(one if j == i else zero for j in range(sp.n)) for i in range(sp.n)]
    pts.append(tuple(one for _ in range(sp.n)))
    pts.append(tuple(Scalar.from_rational(j + 1, cond) for j in range(sp.n)))
    return pts


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_path() -> Path:
    return Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(reference_path(), encoding="utf-8") as fh:
        return json.load(fh)


# -- operations --------------------------------------------------------------


def verify_op(inst: Instance, bound: int, engine: str, reference: dict | None) -> Op:
    """``normext verify --engine <engine> --bound <bound>``."""
    key = f"verify:{engine}:{bound}:{inst.key}"

    def run():
        cert = certify.full_certificate(inst.spec, bound=bound, engine=engine)
        return cert, cert.dumps()

    def check(result) -> bool:
        cert, text = result
        if not inst.seeded:
            return reference is None or reference.get(key) == sha256(text)
        if cert.passed != inst.good:
            return False
        return not inst.good or cert.tables["D"] == cert.tables["predicted_D"]

    return Op(key, "verify", run, check, recorded=not inst.seeded)


def hilbert_op(pres, name: str, bound: int, engine: str, expected: list) -> Op:
    """``normext hilbert --engine <engine>``; dims must agree with every
    sequence in ``expected`` as far as that sequence goes."""

    def check(table) -> bool:
        dims = list(table.dims)
        return len(dims) == bound + 1 and all(dims[: len(e)] == list(e[: bound + 1]) for e in expected)

    key = f"hilbert:{engine}:{bound}:{name}"
    return Op(key, "hilbert", lambda: quotient.hilbert_table(pres, bound, engine), check)


def probe_op(sp: Superpotential, name: str, bound: int, engine: str) -> Op:
    pts = probe_points(sp)
    return Op(
        f"probe:{engine}:{bound}:{name}",
        "probe",
        lambda: family.flatness_probe(sp, pts, bound, engine),
        lambda report: report.passed and len(report.rows) == len(pts),
    )


def zhang_op(inst: Instance, sigma_text: str) -> Op:
    sigma = DiagonalMap(inst.sp.ctx, parse_tuple(sigma_text, inst.sp.ctx.conductor))
    return Op(
        f"zhang:({sigma_text}):{inst.key}",
        "zhang",
        lambda: family.zhang_certificate(inst.sp, inst.p, inst.k, sigma),
        lambda report: report.passed,
    )


def prefix_a(entry: Entry, bound: int) -> list:
    return entry.expect["hilbert_prefix_A"][: bound + 1]


def expected_d(inst: Instance, bound: int) -> list:
    """h_A/(1-t^m) from the sidecar A prefix, plus ``hilbert_prefix_D`` when
    the sidecar gives it for this very instance."""
    out = [certify.predicted_dims(prefix_a(inst.entry, bound), inst.sp.m, bound)]
    side = inst.entry.expect.get("hilbert_prefix_D")
    if side and side["k"] == inst.k + 1 and parse_tuple(side["p"], inst.sp.ctx.conductor) == inst.p:
        out.append(side["dims"])
    return out


def build_pass(workload: str, seed: int, smoke: bool, reference: dict | None) -> Pass:
    """Set-up: parse the corpus, generate the instances and the operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    certs = workload.startswith("cert-")
    entries = load_entries(ENTRIES[workload])
    instances = []
    for entry in entries.values():
        instances += corpus_instances(entry, with_bad=certs)
    instances += seeded_instances(entries, SEEDED_MEMBERS[workload], rng)

    ops = []
    a_pres = {}  # one A presentation per distinct superpotential
    for inst in instances:
        bound = bound_for(inst.sp.m, smoke)
        pres = a_presentation(inst.sp, inst.entry.name)
        a_pres.setdefault(pres.key(), (pres, inst, bound))
        if certs:
            ops.append(verify_op(inst, bound, "gb", reference))
            if inst.good:
                ops.append(zhang_op(inst, rng.choice(SIGMAS[inst.entry.name])))
        elif inst.good:
            ops.append(hilbert_op(inst.spec.D, f"D:{inst.key}", bound, "la", expected_d(inst, bound)))

    # ``normext hilbert`` on A: the default engine (both) on the certificate
    # workloads, the linear-algebra engine on dims-la (corpus algebras only).
    # These run first, so that which certificate pays for A's completion
    # does not depend on the seed.
    a_ops = []
    for pres, inst, bound in a_pres.values():
        if certs:
            a_ops.append(hilbert_op(pres, f"A:{inst.a_key}", bound, "both", [prefix_a(inst.entry, bound)]))
        elif not inst.seeded:
            a_ops.append(hilbert_op(pres, f"A:{inst.a_key}", bound, "la", [prefix_a(inst.entry, bound)]))
    for name in PROBED[workload]:
        sp = field_superpotential(entries[name], None)
        ops.append(probe_op(sp, name, probe_bound(bound_for(sp.m, smoke)), "gb" if certs else "la"))
    if not certs:
        # ``verify --engine la`` and one Zhang certificate on w_poly, so that
        # every layer is exercised on every workload
        inst = next(i for i in instances if i.entry.name == "w_poly")
        ops.append(verify_op(inst, bound_for(inst.sp.m, smoke), "la", reference))
        ops.append(zhang_op(inst, SIGMAS["w_poly"][1]))

    rng.shuffle(a_ops)
    rng.shuffle(ops)
    ops = a_ops + ops
    if len({op.key for op in ops}) != len(ops):
        raise ValueError("operation keys must be unique within a pass")
    coefficients = [c for inst in instances for r in inst.spec.D.relations for c in r.terms.values()]
    return Pass(ops=ops, coefficients=coefficients)
