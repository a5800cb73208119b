"""Extension construction and the degree-truncated regularity certificate.

``build_extension`` forms D from a twisted superpotential, an omitted
index k and a tuple p with p_k = q_k: the relations are the kept
derivatives f_i (i != k) together with the skew commutators
x_i f_k - p_i f_k x_i.  The certificate then checks everything that is
desk-checkable to a degree bound:

* the Hilbert identity h_D * (1 - t^m) = h_A, with defect e_k and
  annihilator z_k diagnostics,
* normality/centrality memberships for the distinguished element and the
  vanishing of both multiplication kernels, whose dimensions come from the
  Hilbert tables rather than from a walk.  (a) For i != k,
  x_i Omega - p_i Omega x_i is a relation of D; for i = k,
  sum_i x_i f_i = w = sum_i q_i f_i x_i gives
  x_k Omega - q_k Omega x_k = sum_{i != k} (q_i f_i x_i - x_i f_i), which
  lies in D's ideal because every f_i with i != k is a relation of D, and
  ``ExtensionSpec`` enforces p_k = q_k.  So D_d Omega = Omega D_d is the
  degree-(d+m) part of the ideal (Omega) of D.  Adding f_k to D's relations
  gives A's, since every commutator lies in (f_k), so D/(Omega) = A and
  u -> u Omega on D_d has rank dim D_{d+m} - dim A_{d+m}.  Its kernel has
  dimension dim D_d - dim D_{d+m} + dim A_{d+m} = e_{d+m} - e_d, which is
  ``z_from_e[d]``, so ``omega_certificate`` needs ``verify_hilbert`` to
  have run.  The other side follows from the same normality: let tau be
  the diagonal automorphism x_i -> p_i x_i of the free algebra.  If
  x_i Omega = p_i Omega x_i in D for every i (the ``omega_normal`` check
  tests i = k), then u Omega = Omega tau(u) in D for every word u, by
  induction on its length.  So in V^{(x)d}
  ker(u -> u Omega) = tau^{-1} ker(v -> Omega v); both kernels contain
  I_d, so their dimensions on D_d are equal.  If ``omega_normal`` fails,
  the left annihilator is not derived and ``omega_regular`` fails.  The
  check ``annihilator_matches_hilbert_defect`` compares the reported
  kernels with ``z_from_e``; it is an identity by construction, and the
  report keeps it,
* the candidate resolution: the identities x^t M_l = g_l^t and M_r x = g_r,
  the complex property M_l M_r = 0 in D (each product a ``freealg.matmul``),
  Euler residuals, and degree-wise rank exactness.  Every dimension is
  read from D's Hilbert table, and two of the four ranks are known without
  a walk.  D is generated in degree 1 and both engines' normal words are
  prefix-closed: a normal word w of degree d >= 1 is NF(w[:-1]*x_{w[-1]})
  with w[:-1] normal.  So the last map u*e_i -> u*x_i has rank
  r1 = dim D_d - [d = 0].  (b) D (x) R -> D (x) V -> D is exact at D (x) V
  for any presentation, so the map P2 -> P1 given by M_r has rank
  r2 = dim P1_d - r1.  Let sum_t a_t x_t lie in I and write it as
  sum u g_s v.  A term whose v ends in x_t moves into a_t modulo I; the
  rest is sum u g_s = sum_t (sum u M_r[s][t]) x_t, using M_r x = g_r, which
  is checked.  TV_{>=1} is the free module sum_t TV x_t, so every a_t is
  congruent to sum u M_r[s][t] modulo I.  Only the letter row P4 -> P3
  and M_l are walked, and ``P1_exact`` (r2 + r1 = dim P1) is an identity
  by construction that the report keeps,
* the diagonal Nakayama map x_i -> (p_i q_i)^{-1} x_i and the homological
  determinant factorization, which must multiply to 1.

One stage per item: ``verify_hilbert``, ``omega_certificate``,
``resolution_certificate``, ``nakayama`` and ``hdet_certificate``.  Each
takes the ``Certificate`` being built, reads the degree bound from it,
writes its own part of the report (``tables``, ``diagnostics``,
``nakayama``, ``hdet``) and adds its checks through ``Certificate.add`` in
report order.  ``full_certificate`` only runs the stages: it refuses a
bound below m+1 before any of them, adds the good-tuple check first, the
dual-route z check between the omega and
resolution stages, and runs the last two stages only if every check so
far passed.

Certificates never claim anything beyond the bound; report wording is
"verified to degree B".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import count, tee
from operator import neg

from .dsl import print_poly, scalar_text
from .freealg import AlgebraError, FreeElement, matmul
from .linalg import RowReducer
from .quotient import GradedQuotient, Presentation
from .superpotential import (
    DiagonalMap,
    NotEigenvectorError,
    Superpotential,
    coefficient_matrix,
    eigen_scale,
)
from .tuples import GoodnessResult, is_good


class BuildError(AlgebraError):
    pass


class ResolutionDefect(AssertionError):
    """A TV-level identity failed; impossible for valid inputs."""


def default_bound(m: int) -> int:
    return 2 * m + 4


def require_bound(spec: ExtensionSpec, bound: int) -> None:
    """Omega has degree m, so a certificate needs degrees through m+1."""
    if bound < spec.m + 1:
        raise BuildError(f"bound {bound} too small; need at least m+1 = {spec.m + 1}")


class ExtensionSpec:
    """The algebra D(w, p) at omitted index k, with A and the element Omega."""

    def __init__(self, sp: Superpotential, p, k: int, label: str = "") -> None:
        ctx = sp.ctx
        if ctx.mode != "field":
            raise BuildError("extensions are built in field mode; specialize first")
        n = sp.n
        if n < 2:
            raise BuildError("extension needs at least 2 generators")
        if not 0 <= k < n:
            raise BuildError(f"omitted index {k + 1} out of range 1..{n}")
        p = tuple(p)
        if len(p) != n:
            raise BuildError("tuple length must match generator count")
        for c in p:
            ctx.check_coeff(c)
            if c.is_zero():
                raise BuildError("tuple entries must be nonzero")
        if p[k] != sp.twist.scales[k]:
            raise BuildError(
                f"p_{k + 1} must equal the twist entry q_{k + 1} "
                f"({scalar_text(sp.twist.scales[k])})"
            )
        if not sp.derivatives_independent():
            raise BuildError("derivative bundle is linearly dependent; not a valid input")
        self.sp = sp
        self.ctx = ctx
        self.k = k
        self.p = p
        self.label = label or "D"
        xs = [FreeElement.gen(ctx, i) for i in range(n)]
        omega = sp.f[k]
        self.omega = omega
        self.kept = [sp.f[i] for i in range(n) if i != k]
        self.commutators = [
            xs[i] * omega - (omega.scale(p[i])) * xs[i] for i in range(n) if i != k
        ]
        self.D = Presentation(ctx, self.kept + self.commutators, label=self.label)
        self.A = Presentation(ctx, list(sp.f), label=f"{self.label}/(Omega)")

    @property
    def n(self) -> int:
        return self.sp.n

    @property
    def m(self) -> int:
        return self.sp.m

    def goodness(self) -> GoodnessResult:
        return is_good(self.sp, self.k, self.p)

    def describe(self) -> dict:
        return {
            "label": self.label,
            "k": self.k + 1,
            "p": [scalar_text(c) for c in self.p],
            "relations": [print_poly(r) for r in self.D.relations],
            "omega": print_poly(self.omega),
        }


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Certificate:
    algebra: str
    k: int  # 1-based
    p: list
    bound: int
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    nakayama: list | None = None
    hdet: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness=None) -> None:
        self.checks.append(Check(name, bool(passed), witness))

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra,
            "k": self.k,
            "p": self.p,
            "bound": self.bound,
            "verified_to_degree": self.bound,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "tables": self.tables,
            "diagnostics": self.diagnostics,
        }
        if self.nakayama is not None:
            out["nakayama"] = self.nakayama
        if self.hdet is not None:
            out["hdet"] = self.hdet
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -- Hilbert identity ---------------------------------------------------------


def predicted_dims(a_dims, m: int, bound: int) -> list[int]:
    """Coefficients of h_A(t) / (1 - t^m) up to bound."""
    return [
        sum(a_dims[k - j * m] for j in range(k // m + 1)) for k in range(bound + 1)
    ]


def verify_hilbert(cert: Certificate, spec: ExtensionSpec, A: GradedQuotient, D: GradedQuotient) -> None:
    """Tables, defect e_k = d'_k - d_k, and derived z_k; pass iff e = 0."""
    bound = cert.bound
    dims_a = A.dims(bound)
    dims_d = D.dims(bound)
    pred = predicted_dims(dims_a, spec.m, bound)
    e = [pred[k] - dims_d[k] for k in range(bound + 1)]
    if any(v < 0 for v in e):
        raise ResolutionDefect("negative Hilbert defect; engine inconsistency")
    z = [e[k + spec.m] - e[k] for k in range(bound - spec.m + 1)]
    first_defect = next((k for k, v in enumerate(e) if v), None)
    cert.tables.update(A=dims_a, D=dims_d, predicted_D=pred)
    cert.diagnostics.update(e=e, z_from_e=z, first_defect_degree=first_defect)
    cert.add("hilbert_identity", first_defect is None, first_defect)


# -- normal forms of multiples, degree by degree ------------------------------


def multiples_by_degree(quot: GradedQuotient, e: FreeElement):
    """Yield {u: NF(u*e)} over the normal words u of ``quot``, for degrees
    d = 0, 1, 2, ...

    Degree d is built from degree d-1 alone.  A suffix of a normal word is
    normal, so u = x_a*u' with u' = u[1:] a normal word of degree d-1, and
    u*e = x_a*(u'*e) is congruent to x_a*NF(u'*e) modulo the ideal.  A class
    has one normal form (Bergman's diamond lemma), so
    NF(u*e) = NF(x_a*NF(u'*e)).  Every answer is still a ``quot.normal_form``
    call, so under ``both`` the engines compare each one.  Entries that
    share a walk read it through ``itertools.tee`` (``_graded_map_ranks``).
    """
    ctx = quot.pres.ctx
    nfs = {(): quot.normal_form(e)}
    d = 0
    while True:
        yield nfs
        d += 1
        below, nfs = nfs, {}
        for u in quot.normal_words(d):
            f = FreeElement(ctx)
            a = u[:1]
            f.terms = {a + w: c for w, c in below[u[1:]].terms.items()}
            nfs[u] = quot.normal_form(f)


# -- Omega: normality, centrality, regularity ---------------------------------


def omega_certificate(cert: Certificate, spec: ExtensionSpec, D: GradedQuotient) -> None:
    """Omega's checks and annihilator dims; reads ``z_from_e``, which
    ``verify_hilbert`` writes into the same certificate."""
    require_bound(spec, cert.bound)
    if "z_from_e" not in cert.diagnostics:
        raise RuntimeError("omega_certificate reads z_from_e: run verify_hilbert on the certificate first")
    ctx = spec.ctx
    xs = [FreeElement.gen(ctx, i) for i in range(spec.n)]
    omega = spec.omega

    # x_i Omega - p_i Omega x_i is a relation of D for i != k, so only the
    # omitted index can fail
    k = spec.k
    normal_ok = D.contains(xs[k] * omega - omega.scale(spec.p[k]) * xs[k])
    cert.add("omega_normal", normal_ok, None if normal_ok else ctx.gens[k])

    central = all(D.contains(xs[i] * omega - omega * xs[i]) for i in range(spec.n))

    # dim ker of u -> u*Omega on D_d is e_{d+m} - e_d, and a normal Omega
    # has the same kernel dims on the other side (see the module docstring)
    right_kernels = cert.diagnostics["z_from_e"]
    left_kernels = right_kernels if normal_ok else None

    cert.diagnostics.update(
        right_annihilator_dims=right_kernels, left_annihilator_dims=left_kernels, central=central
    )
    if left_kernels is None:
        cert.add("omega_regular", False, "omega not normal: left annihilator not derived")
        return
    first = next((d for d, v in enumerate(right_kernels) if v), None)
    witness = None if first is None else {"first_right": first, "first_left": first}
    cert.add("omega_regular", first is None, witness)


# -- candidate resolution -------------------------------------------------------


def resolution_maps(spec: ExtensionSpec) -> tuple[tuple, list]:
    """The permutation of the generators (omitted index first, the rest
    ascending), and the (entries, source shifts) of the three maps
    P4 -> P3 -> P2 -> P1 of the candidate resolution, in that order: the
    letters as a row, M_l and M_r.  Only the first two are ranked; M_r
    enters the complex property, and its rank is derived (see the module
    docstring).  The letters as a column, P1 -> P0, appear only in the
    check of M_r x = g_r.

    Raises ResolutionDefect unless x^t M_l = g_l^t and M_r x = g_r, where
    g_l and g_r list D's relations scaled as the paper's identities need."""
    ctx, n, m, k = spec.ctx, spec.n, spec.m, spec.k
    perm = (k, *(i for i in range(n) if i != k))
    mfull = coefficient_matrix(spec.sp.w)
    M = [[mfull[a][b] for b in perm] for a in perm]
    xs = [FreeElement.gen(ctx, a) for a in perm]
    xcol = [[x] for x in xs]
    q = [spec.sp.twist.scales[a] for a in perm]
    p = [spec.p[a] for a in perm]
    f = [spec.sp.f[a] for a in perm]
    g = spec.commutators  # the degree-(m+1) relations, permuted order
    zero = FreeElement.zero(ctx)

    def diagonal(a: int, b: int, c) -> FreeElement:
        return spec.omega.scale(c) if a == b else zero

    # M_l = [ -M[:,0] x_{>=1}^t + Omega J_h  |  M[:, >=1] ], where J_h is a
    # zero row on top of q_k * diag(p_i^{-1})
    Ml = [
        [-(M[a][0] * xs[b]) + diagonal(a, b, q[0] * p[a].inv()) for b in range(1, n)] + M[a][1:]
        for a in range(n)
    ]
    # M_r = [ M[>=1, :]  over  x_{>=1} M[0,:] - Omega J_v ], where J_v is a
    # zero column then diag(p_i)
    Mr = M[1:] + [[xs[a] * M[0][b] - diagonal(a, b, p[a]) for b in range(n)] for a in range(1, n)]
    gl = [g[b - 1].scale(q[0] * p[b].inv()) for b in range(1, n)] + [f[b].scale(q[b]) for b in range(1, n)]
    gr = f[1:] + g
    if matmul([xs], Ml) != [gl]:
        raise ResolutionDefect("x^t M_l = g_l^t fails")
    if matmul(Mr, xcol) != [[e] for e in gr]:
        raise ResolutionDefect("M_r x = g_r fails")
    return perm, [
        ([xs], [2 * m + 1]),
        (Ml, [2 * m] * n),
        (Mr, [m] * (n - 1) + [m + 1] * (n - 1)),
    ]


def _graded_map_ranks(quot: GradedQuotient, maps) -> list:
    """One iterator per (entries, source shifts) map of ``maps``, yielding
    the rank of the degree-deg block of u*e_s -> sum_t u*entries[s][t]*e_t
    for deg = 0, 1, 2, ...  Source block s starts at degree shifts[s].

    The maps share their walks: an entry c*e', with e' monic at its deglex
    lead, reads the ``multiples_by_degree`` walk of e' and scales it by c,
    since NF(u*c*e') = c*NF(u*e').  The resolution's letter row and M_l
    share multiples of letters, and M_l repeats entries of M up to a
    scalar, each map at its own fixed lag.
    ``itertools.tee`` gives every reader of a walk its own iterator, so each
    degree of a walk is made once, on its first read, and every step is
    still a ``quot.normal_form`` call.  CPython's ``tee`` frees its buffer
    in blocks of 57 items, so a walk keeps the degrees it has made until
    the returned iterators are dropped.

    The image of u*e_s is a row over the columns i * width + t for the i-th
    normal word of target block t, where width is the number of target
    blocks: every word of one block has one degree, so the numbering is one
    to one.  Each degree's normal words are numbered once for every map of
    the call.  Each row goes into the degree's ``RowReducer`` as it is made.
    Scaling a row does not change the rank, so a source row with one
    nonzero entry skips that entry's scale."""
    walks: list = []  # [e', the readers of its walk]
    readers = []  # per map, per source row: [t, degree of the entry, scale, its iterator over the walk]
    for entries, _ in maps:
        rows = []
        for row in entries:
            own = []
            for t, ent in enumerate(row):
                if ent.is_zero():
                    continue
                c = ent.terms[max(ent.terms)]  # one degree: tuple order is deglex
                monic = ent if c.is_one() else ent.scale(c.inv())
                walk = next((w for w in walks if w[0] == monic), None)
                if walk is None:
                    walk = [monic, []]
                    walks.append(walk)
                scale = None if c.is_one() else neg if (-c).is_one() else c.__mul__
                own.append([t, ent.degree, scale, None])
                walk[1].append(own[-1])
            if len(own) == 1:
                own[0][2] = None
            rows.append(own)
        readers.append(rows)
    for monic, own in walks:
        for reader, degrees in zip(own, tee(multiples_by_degree(quot, monic), len(own))):
            reader[3] = degrees

    @cache
    def numbered(d: int) -> dict:
        """{u: i} for the i-th normal word u of degree d."""
        return {w: i for i, w in enumerate(quot.normal_words(d))}

    def ranks(rows, shifts_src, width: int):
        for deg in count():
            red = RowReducer()
            for own, a_s in zip(rows, shifts_src):
                if deg < a_s:
                    continue
                images = [(t, numbered(deg - a_s + e), scale, next(degrees)) for t, e, scale, degrees in own]
                for u in quot.normal_words(deg - a_s):
                    row: dict = {}
                    for t, pos, scale, nfs in images:
                        for wd, c in nfs[u].terms.items():
                            row[pos[wd] * width + t] = c if scale is None else scale(c)
                    if row:
                        red.insert(row)
            yield red.rank

    return [ranks(rows, shifts, len(entries[0])) for rows, (entries, shifts) in zip(readers, maps)]


def resolution_certificate(cert: Certificate, spec: ExtensionSpec, D: GradedQuotient) -> None:
    n, m, bound = spec.n, spec.m, cert.bound
    perm, maps = resolution_maps(spec)  # raises ResolutionDefect unless the identities hold
    cert.add("resolution_identities", True)

    # (a) complex property: every entry of M_l M_r lies in the ideal
    _, (Ml, _), (Mr, _) = maps
    bad_entries = [
        [perm[a] + 1, perm[b] + 1]
        for a, row in enumerate(matmul(Ml, Mr))
        for b, ent in enumerate(row)
        if not D.contains(ent)
    ]
    cert.add("complex_property", not bad_entries, bad_entries or None)

    # (b) Euler residuals and (c) degree-wise rank exactness, each degree's
    # dimensions of P0..P4 read from D's Hilbert table
    dims = D.dims(bound)

    def dd(j: int) -> int:
        return dims[j] if j >= 0 else 0

    ranks = _graded_map_ranks(D, maps[:2])  # the letter row and M_l
    residuals = []
    exact_witness = None
    rank_rows = []
    for deg in range(bound + 1):
        dim0, dim1, dim2 = dd(deg), n * dd(deg - 1), (n - 1) * (dd(deg - m) + dd(deg - m - 1))
        dim3, dim4 = n * dd(deg - 2 * m), dd(deg - 2 * m - 1)
        # P1 -> P0 maps onto D_{>=1}, and P2 -> P1 onto its kernel (see the
        # module docstring); k sits in degree 0
        r1 = dim0 - (1 if deg == 0 else 0)
        r2 = dim1 - r1
        residuals.append(r1 - dim1 + dim2 - dim3 + dim4)
        r4, r3 = map(next, ranks)
        conds = {
            "P4_injective": r4 == dim4,
            "P3_exact": r4 + r3 == dim3,
            "P2_exact": r3 + r2 == dim2,
            "P1_exact": r2 + r1 == dim1,
        }
        rank_rows.append(
            {"degree": deg, "ranks": [r4, r3, r2, r1], "dims": [dim4, dim3, dim2, dim1]}
        )
        if not all(conds.values()) and exact_witness is None:
            exact_witness = {
                "degree": deg,
                "failed": sorted(nm for nm, ok in conds.items() if not ok),
            }
    first_residual = next((k for k, v in enumerate(residuals) if v), None)

    cert.diagnostics.update(euler_residuals=residuals, rank_profile=rank_rows)
    cert.add(
        "euler_residuals",
        first_residual is None,
        None if first_residual is None else {"first_nonzero_degree": first_residual},
    )
    cert.add("rank_exactness", exact_witness is None, exact_witness)


# -- Nakayama and homological determinant ------------------------------------------


def nakayama(cert: Certificate, spec: ExtensionSpec, D: GradedQuotient) -> None:
    ctx = spec.ctx
    q = spec.sp.twist.scales
    nu = DiagonalMap(ctx, [(spec.p[i] * q[i]).inv() for i in range(spec.n)])
    tau = DiagonalMap(ctx, [spec.p[i].inv() for i in range(spec.n)])

    # relation spans are nu-stable, degree by degree; the relations are
    # listed by degree, so the first one moved out is in the lowest degree
    spans: dict[int, RowReducer] = {}
    for r in spec.D.relations:
        spans.setdefault(r.degree, RowReducer()).insert(r.terms)
    moved = next((r for r in spec.D.relations if not spans[r.degree].contains(dict(nu.apply(r).terms))), None)
    cert.add(
        "nakayama_preserves_relations",
        moved is None,
        None if moved is None else {"degree": moved.degree, "relation": print_poly(moved)},
    )

    try:
        lam = scalar_text(eigen_scale(nu, spec.omega))
    except NotEigenvectorError:
        lam = None
    cert.add("nakayama_fixes_omega_line", lam is not None)

    # tau conjugation: Omega x = tau(x) Omega holds in D.  For i != k,
    # Omega x_i - p_i^{-1} x_i Omega is -p_i^{-1} times a relation of D
    # (``spec.commutators``), so only the omitted index can fail
    x = FreeElement.gen(ctx, spec.k)
    cert.add("tau_conjugation", D.contains(spec.omega * x - (x * spec.omega).scale(spec.p[spec.k].inv())))

    # nu_A = tau^{-1} nu_D must scale x_i by q_i^{-1}; diagonal maps commute
    nu_a = tau.inverse().compose(nu)
    nu_a_ok = all(nu_a.scales[i] == q[i].inv() for i in range(spec.n))
    cert.add("nakayama_tau_compatibility", nu_a_ok and nu.compose(tau) == tau.compose(nu))

    cert.nakayama = [scalar_text(s) for s in nu.scales]
    cert.diagnostics.update(tau=[scalar_text(s) for s in tau.scales], nakayama_omega_eigenvalue=lam)


def hdet_certificate(cert: Certificate, spec: ExtensionSpec) -> None:
    """Factor breakdown lambda * hdet(tau|_A) * hdet(nu_A); product must be 1."""
    ctx = spec.ctx
    q = spec.sp.twist.scales
    nu_a = DiagonalMap(ctx, [s.inv() for s in q])
    tau = DiagonalMap(ctx, [c.inv() for c in spec.p])
    try:
        lam = eigen_scale(nu_a, spec.omega)
        f1 = eigen_scale(tau, spec.sp.w)
        f2 = eigen_scale(nu_a, spec.sp.w)
    except NotEigenvectorError as e:
        cert.hdet = {"factors": None}
        cert.add("hdet_one", False, {"not_eigenvector": str(e)})
        return
    product = lam * f1 * f2
    expected = [lam == q[spec.k], f1 == q[spec.k].inv(), f2.is_one()]
    cert.hdet = {
        "factors": {
            "omega_eigenvalue": scalar_text(lam),
            "hdet_tau_on_A": scalar_text(f1),
            "hdet_nakayama_of_A": scalar_text(f2),
        },
        "product": scalar_text(product),
        "factor_pattern_matches": all(expected),
    }
    cert.add("hdet_one", product.is_one(), None if product.is_one() else scalar_text(product))


# -- aggregation ----------------------------------------------------------------


def build_extension(sp: Superpotential, p, k: int, label: str = "") -> ExtensionSpec:
    return ExtensionSpec(sp, p, k, label)


def full_certificate(
    spec: ExtensionSpec, bound: int | None = None, engine: str = "gb"
) -> Certificate:
    cert = Certificate(
        algebra=spec.label,
        k=spec.k + 1,
        p=[scalar_text(c) for c in spec.p],
        bound=default_bound(spec.m) if bound is None else bound,
    )
    require_bound(spec, cert.bound)
    good = spec.goodness()
    cert.add("good_tuple", good.ok, None if good.ok else good.detail)

    A = GradedQuotient(spec.A, engine)
    D = GradedQuotient(spec.D, engine)
    verify_hilbert(cert, spec, A, D)
    omega_certificate(cert, spec, D)

    # dual-route z: annihilator dims must satisfy e_k = e_{k-m} + z_{k-m};
    # omega_certificate reads them from z_from_e, so this always holds
    z_e = cert.diagnostics["z_from_e"]
    z_k = cert.diagnostics["right_annihilator_dims"]
    same = z_e[: len(z_k)] == z_k
    cert.add("annihilator_matches_hilbert_defect", same, None if same else {"from_e": z_e, "kernels": z_k})

    resolution_certificate(cert, spec, D)
    if cert.passed:
        nakayama(cert, spec, D)
        hdet_certificate(cert, spec)
    else:
        cert.add("nakayama_skipped_core_failed", False, "certificate core failed")
    return cert
