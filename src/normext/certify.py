"""Extension construction and the degree-truncated regularity certificate.

``build_extension`` forms D from a twisted superpotential, an omitted
index k and a tuple p with p_k = q_k: the relations are the kept
derivatives f_i (i != k) together with the skew commutators
x_i f_k - p_i f_k x_i.  The certificate then checks everything that is
desk-checkable to a degree bound:

* the Hilbert identity h_D * (1 - t^m) = h_A, with defect e_k and
  annihilator z_k diagnostics,
* normality/centrality memberships for the distinguished element and the
  vanishing of both multiplication kernels,
* the candidate resolution: block matrices, complex property, Euler
  residuals, and degree-wise rank exactness,
* the diagonal Nakayama map x_i -> (p_i q_i)^{-1} x_i and the homological
  determinant factorization, which must multiply to 1.

Certificates never claim anything beyond the bound; report wording is
"verified to degree B".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count
from operator import neg

from .dsl import print_poly, scalar_text
from .freealg import AlgebraError, FreeElement
from .linalg import RowReducer, same_span
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
        self._check_quotient_span()

    @property
    def n(self) -> int:
        return self.sp.n

    @property
    def m(self) -> int:
        return self.sp.m

    def _check_quotient_span(self) -> None:
        """Adding f_k to D's degree-m relations must give A's relation span."""
        if not same_span((f.terms for f in self.sp.f), (f.terms for f in self.kept + [self.omega])):
            raise ResolutionDefect("D relations + Omega do not recover A's relation span")

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


def verify_hilbert(
    spec: ExtensionSpec, A: GradedQuotient, D: GradedQuotient, bound: int
) -> tuple[dict, list]:
    """Tables, defect e_k = d'_k - d_k, and derived z_k; pass iff e = 0."""
    dims_a = A.dims(bound)
    dims_d = D.dims(bound)
    pred = predicted_dims(dims_a, spec.m, bound)
    e = [pred[k] - dims_d[k] for k in range(bound + 1)]
    if any(v < 0 for v in e):
        raise ResolutionDefect("negative Hilbert defect; engine inconsistency")
    z = [e[k + spec.m] - e[k] for k in range(bound - spec.m + 1)]
    first_defect = next((k for k, v in enumerate(e) if v), None)
    data = {
        "A": dims_a,
        "D": dims_d,
        "predicted_D": pred,
    }
    diag = {"e": e, "z_from_e": z, "first_defect_degree": first_defect}
    checks = [Check("hilbert_identity", first_defect is None, witness=first_defect)]
    return {"tables": data, "diagnostics": diag}, checks


# -- normal forms of multiples, degree by degree ------------------------------


def multiples_by_degree(quot: GradedQuotient, e: FreeElement, left: bool):
    """Yield {u: NF(u*e)} (left) or {u: NF(e*u)} (right) over the normal
    words u of ``quot``, for degrees d = 0, 1, 2, ...

    Degree d is built from degree d-1 alone.  A suffix of a normal word is
    normal, so u = x_a*u' with u' = u[1:] a normal word of degree d-1, and
    u*e = x_a*(u'*e) is congruent to x_a*NF(u'*e) modulo the ideal.  A class
    has one normal form (Bergman's diamond lemma), so
    NF(u*e) = NF(x_a*NF(u'*e)).  On the right, u = u'*x_a with u' = u[:-1]
    a prefix, and NF(e*u) = NF(NF(e*u')*x_a).  Every answer is still a
    ``quot.normal_form`` call, so under ``both`` the engines compare each one.
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
            if left:
                a = u[:1]
                f.terms = {a + w: c for w, c in below[u[1:]].terms.items()}
            else:
                a = u[-1:]
                f.terms = {w + a: c for w, c in below[u[:-1]].terms.items()}
            nfs[u] = quot.normal_form(f)


# -- Omega: normality, centrality, regularity ---------------------------------


def omega_certificate(spec: ExtensionSpec, D: GradedQuotient, bound: int) -> tuple[dict, list]:
    if bound < spec.m + 1:
        raise BuildError(f"bound {bound} too small; need at least m+1 = {spec.m + 1}")
    ctx = spec.ctx
    xs = [FreeElement.gen(ctx, i) for i in range(spec.n)]
    omega = spec.omega

    # x_i Omega - p_i Omega x_i is a relation of D for i != k, so only the
    # omitted index can fail
    k = spec.k
    normal_ok = D.contains(xs[k] * omega - omega.scale(spec.p[k]) * xs[k])
    normal_witness = None if normal_ok else ctx.gens[k]

    central = all(D.contains(xs[i] * omega - omega * xs[i]) for i in range(spec.n))

    def kernel_dims(left: bool) -> list[int]:
        """dim ker of u -> u*Omega (left) or u -> Omega*u, degree by degree."""
        ranks = _graded_map_ranks(EntryWalks(D, left), [[omega]], [0])
        return [dim - rank for _, (rank, dim) in zip(range(bound - spec.m + 1), ranks)]

    right_kernels = kernel_dims(left=True)
    left_kernels = kernel_dims(left=False)

    regular = not any(right_kernels) and not any(left_kernels)
    diag = {
        "right_annihilator_dims": right_kernels,
        "left_annihilator_dims": left_kernels,
        "central": central,
    }
    checks = [
        Check("omega_normal", normal_ok, witness=normal_witness),
        Check(
            "omega_regular",
            regular,
            witness=None
            if regular
            else {
                "first_right": next((d for d, v in enumerate(right_kernels) if v), None),
                "first_left": next((d for d, v in enumerate(left_kernels) if v), None),
            },
        ),
    ]
    return {"diagnostics": diag}, checks


# -- candidate resolution -------------------------------------------------------


class ResolutionData:
    """Block matrices of the length-four candidate resolution.

    Everything is expressed in the permuted generator order (omitted index
    first, the rest ascending); ``perm`` records the reindexing.
    """

    def __init__(self, spec: ExtensionSpec) -> None:
        ctx = spec.ctx
        n = spec.n
        k = spec.k
        perm = (k, *(i for i in range(n) if i != k))
        self.perm = perm
        self.spec = spec
        mfull = coefficient_matrix(spec.sp.w)
        self.M = [[mfull[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
        xs = [FreeElement.gen(ctx, perm[a]) for a in range(n)]
        self.xs = xs
        q0 = spec.sp.twist.scales[k]
        pperm = [spec.p[perm[a]] for a in range(n)]
        f0 = spec.omega
        self.f = [spec.sp.f[perm[a]] for a in range(n)]
        self.g = list(spec.commutators)  # the degree-(m+1) relations, permuted order
        zero_el = FreeElement.zero(ctx)
        # M_l = [ -M[:,0] x_{>=1}^t + f0 J_h  |  M[:, >=1] ], where J_h is a
        # zero row on top of q_k * diag(p_i^{-1})
        self.Ml = [[zero_el for _ in range(2 * (n - 1))] for _ in range(n)]
        for a in range(n):
            for b in range(1, n):
                ent = -(self.M[a][0] * xs[b])
                if a == b:
                    ent = ent + f0.scale(q0 * pperm[a].inv())
                self.Ml[a][b - 1] = ent
            for b in range(1, n):
                self.Ml[a][(n - 1) + (b - 1)] = self.M[a][b]
        # M_r = [ M[>=1, :]  over  x_{>=1} M[0,:] - f0 J_v ], where J_v is a
        # zero column then diag(p_i)
        self.Mr = [[zero_el for _ in range(n)] for _ in range(2 * (n - 1))]
        for a in range(1, n):
            for b in range(n):
                self.Mr[a - 1][b] = self.M[a][b]
        for a in range(1, n):
            for b in range(n):
                ent = xs[a] * self.M[0][b]
                if a == b:
                    ent = ent - f0.scale(pperm[a])
                self.Mr[(n - 1) + (a - 1)][b] = ent

        self.gl = [self.g[b - 1].scale(q0 * pperm[b].inv()) for b in range(1, n)] + [
            self.f[b].scale(spec.sp.twist.scales[perm[b]]) for b in range(1, n)
        ]
        self.gr = [self.f[b] for b in range(1, n)] + list(self.g)
        self._verify_identities()

    def _verify_identities(self) -> None:
        n = self.spec.n
        ctx = self.spec.ctx
        for t in range(2 * (n - 1)):
            acc = FreeElement.zero(ctx)
            for a in range(n):
                acc = acc + self.xs[a] * self.Ml[a][t]
            if acc != self.gl[t]:
                raise ResolutionDefect("x^t M_l = g_l^t fails")
        for srow in range(2 * (n - 1)):
            acc = FreeElement.zero(ctx)
            for b in range(n):
                acc = acc + self.Mr[srow][b] * self.xs[b]
            if acc != self.gr[srow]:
                raise ResolutionDefect("M_r x = g_r fails")

    def product_entries(self) -> list[tuple[int, int, FreeElement]]:
        """Entries of M_l * M_r, each of degree 2m - 1."""
        n = self.spec.n
        ctx = self.spec.ctx
        out = []
        for a in range(n):
            for b in range(n):
                acc = FreeElement.zero(ctx)
                for t in range(2 * (n - 1)):
                    acc = acc + self.Ml[a][t] * self.Mr[t][b]
                out.append((a, b, acc))
        return out


def resolution_maps(spec: ExtensionSpec, res: ResolutionData) -> list:
    """(entries, source shifts) of the four maps P4 -> P3 -> P2 -> P1 -> P0
    of the candidate resolution, in the permuted generator order."""
    ctx, n, m = spec.ctx, spec.n, spec.m
    return [
        ([[FreeElement.gen(ctx, res.perm[t]) for t in range(n)]], [2 * m + 1]),
        (res.Ml, [2 * m] * n),
        (res.Mr, [m] * (n - 1) + [m + 1] * (n - 1)),
        ([[FreeElement.gen(ctx, res.perm[s])] for s in range(n)], [1] * n),
    ]


class EntryWalks:
    """``multiples_by_degree`` walks on one side, one per map entry up to a
    nonzero scalar: an entry c*e', with e' monic at its deglex lead, reads
    e''s walk, since NF(u*c*e') = c*NF(u*e') (and on the right,
    NF(c*e'*u) = c*NF(e'*u)).  The resolution's maps share the letters (e43
    and e10), each M[a][b] (M_l and M_r) and multiples of letters, each map
    at its own fixed lag, so a walk's degree is made on its first read and
    dropped after its last.  These are the walks the entries would make on
    their own, each made once, and every step is still a
    ``quot.normal_form`` call.  The store also numbers the normal words of
    each degree once for every map it serves."""

    def __init__(self, quot: GradedQuotient, left: bool = True) -> None:
        self.quot = quot
        self.left = left
        self._walks: list = []  # [e', its walk, readers, {degree: [nfs, reads left]}]
        self._positions: dict[int, dict] = {}  # degree -> {normal word: its position}

    def positions(self, d: int) -> dict:
        """{u: i} for the i-th normal word u of degree d."""
        if d not in self._positions:
            self._positions[d] = {w: i for i, w in enumerate(self.quot.normal_words(d))}
        return self._positions[d]

    def reader(self, ent: FreeElement):
        """(scale, degrees) for the nonzero entry c*e': degrees yields
        {u: NF(u*e')} (or {u: NF(e'*u)} on the right) for d = 0, 1, 2, ...,
        and scale maps its coefficients to the entry's (None for c = 1, a
        negation for c = -1).  A walk's readers must all be made before it
        is read."""
        c = ent.terms[max(ent.terms)]  # one degree: tuple order is deglex
        monic = ent if c.is_one() else ent.scale(c.inv())
        walk = next((w for w in self._walks if w[0] == monic), None)
        if walk is None:
            walk = [monic, multiples_by_degree(self.quot, monic, self.left), 0, {}]
            self._walks.append(walk)
        walk[2] += 1
        scale = None if c.is_one() else neg if (-c).is_one() else c.__mul__
        return scale, self._degrees(walk)

    @staticmethod
    def _degrees(walk):
        steps, kept = walk[1], walk[3]
        d = 0
        while True:
            if d not in kept:
                kept[d] = [next(steps), walk[2]]
            slot = kept[d]
            slot[1] -= 1
            if not slot[1]:
                del kept[d]
            yield slot[0]
            d += 1


def _graded_map_ranks(walks: EntryWalks, entries, shifts_src):
    """Yield (rank, source dimension) of the degree-deg block of the map
    u*e_s -> sum_t u*entries[s][t]*e_t (entries[s][t]*u when ``walks`` is a
    right-side store), for deg = 0, 1, 2, ...  Each nonzero entry reads
    its walk from ``walks`` once per degree, from the degree its source
    shift reaches 0; its readers are made here, before the first rank is
    asked for.

    The image of u*e_s is a row over the columns i * width + t for the i-th
    normal word of target block t, where width is the number of target
    blocks: every word of one block has one degree, so the numbering is one
    to one.  Each row goes into the degree's ``RowReducer`` as it is made.
    Scaling a row does not change the rank, so a source row with one
    nonzero entry skips that entry's scale."""
    width = len(entries[0])
    readers = []
    for row in entries:
        own = [(t, ent.degree, *walks.reader(ent)) for t, ent in enumerate(row) if not ent.is_zero()]
        readers.append(own if len(own) > 1 else [(t, e, None, degrees) for t, e, _, degrees in own])

    def block(deg: int) -> tuple[int, int]:
        red = RowReducer()
        src_dim = 0
        for s, a_s in enumerate(shifts_src):
            if deg < a_s:
                continue
            images = [
                (t, walks.positions(deg - a_s + e), scale, next(degrees))
                for t, e, scale, degrees in readers[s]
            ]
            words = walks.quot.normal_words(deg - a_s)
            src_dim += len(words)
            for u in words:
                row: dict = {}
                for t, pos, scale, nfs in images:
                    for wd, c in nfs[u].terms.items():
                        row[pos[wd] * width + t] = c if scale is None else scale(c)
                if row:
                    red.insert(row)
        return red.rank, src_dim

    return map(block, count())


def resolution_certificate(spec: ExtensionSpec, D: GradedQuotient, bound: int) -> tuple[dict, list]:
    n = spec.n
    m = spec.m
    res = ResolutionData(spec)  # raises ResolutionDefect unless the identities hold

    # (a) complex property: every entry of M_l M_r lies in the ideal
    bad_entries = []
    for a, b, ent in res.product_entries():
        if not D.contains(ent):
            bad_entries.append([res.perm[a] + 1, res.perm[b] + 1])
    complex_ok = not bad_entries

    # (b) Euler residuals from the graded dimensions
    dims = D.dims(bound)

    def dd(j: int) -> int:
        return dims[j] if 0 <= j <= bound else 0

    residuals = []
    for k in range(bound + 1):
        r = (
            -(1 if k == 0 else 0)
            + dd(k)
            - n * dd(k - 1)
            + (n - 1) * (dd(k - m) + dd(k - m - 1))
            - n * dd(k - 2 * m)
            + dd(k - 2 * m - 1)
        )
        residuals.append(r)
    euler_ok = not any(residuals)

    # (c) degree-wise rank exactness of the candidate complex
    walks = EntryWalks(D)
    maps = [_graded_map_ranks(walks, entries, shifts) for entries, shifts in resolution_maps(spec, res)]
    exact_ok = True
    exact_witness = None
    rank_rows = []
    for deg in range(bound + 1):
        (r4, dim4), (r3, dim3), (r2, dim2), (r1, dim1) = (next(m) for m in maps)
        conds = {
            "P4_injective": r4 == dim4,
            "P3_exact": r4 + r3 == dim3,
            "P2_exact": r3 + r2 == dim2,
            "P1_exact": r2 + r1 == dim1,
            "P0_exact": r1 == dd(deg) - (1 if deg == 0 else 0),
        }
        rank_rows.append(
            {"degree": deg, "ranks": [r4, r3, r2, r1], "dims": [dim4, dim3, dim2, dim1]}
        )
        if not all(conds.values()) and exact_ok:
            exact_ok = False
            exact_witness = {
                "degree": deg,
                "failed": sorted(nm for nm, ok in conds.items() if not ok),
            }

    diag = {"euler_residuals": residuals, "rank_profile": rank_rows}
    checks = [
        Check("resolution_identities", True),
        Check("complex_property", complex_ok, witness=bad_entries or None),
        Check(
            "euler_residuals",
            euler_ok,
            witness=None
            if euler_ok
            else {"first_nonzero_degree": next(k for k, v in enumerate(residuals) if v)},
        ),
        Check("rank_exactness", exact_ok, witness=exact_witness),
    ]
    return {"diagnostics": diag}, checks


# -- Nakayama and homological determinant ------------------------------------------


def nakayama(spec: ExtensionSpec, D: GradedQuotient) -> tuple[dict, list]:
    ctx = spec.ctx
    q = spec.sp.twist.scales
    nu = DiagonalMap(ctx, [(spec.p[i] * q[i]).inv() for i in range(spec.n)])
    tau = DiagonalMap(ctx, [spec.p[i].inv() for i in range(spec.n)])

    # relation spans are nu-stable, degree by degree
    spans_ok = True
    witness = None
    by_degree: dict[int, list[FreeElement]] = {}
    for r in spec.D.relations:
        by_degree.setdefault(r.degree, []).append(r)
    for dgr, rels in sorted(by_degree.items()):
        red = RowReducer(r.terms for r in rels)
        for r in rels:
            img = nu.apply(r)
            if not red.contains(dict(img.terms)):
                spans_ok = False
                witness = {"degree": dgr, "relation": print_poly(r)}
                break
        if not spans_ok:
            break

    try:
        lam = eigen_scale(nu, spec.omega)
        fixes = True
    except NotEigenvectorError:
        lam = None
        fixes = False

    # tau conjugation: Omega x = tau(x) Omega holds in D
    xs = [FreeElement.gen(ctx, i) for i in range(spec.n)]
    tau_ok = all(
        D.contains(spec.omega * xs[i] - (xs[i] * spec.omega).scale(spec.p[i].inv()))
        for i in range(spec.n)
    )

    # nu_A = tau^{-1} nu_D must scale x_i by q_i^{-1}; diagonal maps commute
    nu_a = tau.inverse().compose(nu)
    nu_a_ok = all(nu_a.scales[i] == q[i].inv() for i in range(spec.n))
    commute_ok = nu.compose(tau) == tau.compose(nu)

    data = {
        "nakayama": [scalar_text(s) for s in nu.scales],
        "tau": [scalar_text(s) for s in tau.scales],
        "omega_eigenvalue": scalar_text(lam) if lam is not None else None,
    }
    checks = [
        Check("nakayama_preserves_relations", spans_ok, witness=witness),
        Check("nakayama_fixes_omega_line", fixes),
        Check("tau_conjugation", tau_ok),
        Check("nakayama_tau_compatibility", nu_a_ok and commute_ok),
    ]
    return data, checks


def hdet_certificate(spec: ExtensionSpec) -> tuple[dict, list]:
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
        return (
            {"factors": None},
            [Check("hdet_one", False, witness={"not_eigenvector": str(e)})],
        )
    product = lam * f1 * f2
    expected = [lam == q[spec.k], f1 == q[spec.k].inv(), f2.is_one()]
    data = {
        "factors": {
            "omega_eigenvalue": scalar_text(lam),
            "hdet_tau_on_A": scalar_text(f1),
            "hdet_nakayama_of_A": scalar_text(f2),
        },
        "product": scalar_text(product),
        "factor_pattern_matches": all(expected),
    }
    checks = [Check("hdet_one", product.is_one(), witness=None if product.is_one() else scalar_text(product))]
    return data, checks


# -- aggregation ----------------------------------------------------------------


def build_extension(sp: Superpotential, p, k: int, label: str = "") -> ExtensionSpec:
    return ExtensionSpec(sp, p, k, label)


def full_certificate(
    spec: ExtensionSpec, bound: int | None = None, engine: str = "gb"
) -> Certificate:
    bound = default_bound(spec.m) if bound is None else bound
    cert = Certificate(
        algebra=spec.label,
        k=spec.k + 1,
        p=[scalar_text(c) for c in spec.p],
        bound=bound,
    )
    good = spec.goodness()
    cert.add(
        "good_tuple",
        good.ok,
        witness=None if good.ok else good.detail,
    )

    A = GradedQuotient(spec.A, engine)
    D = GradedQuotient(spec.D, engine)
    hil, checks = verify_hilbert(spec, A, D, bound)
    cert.tables.update(hil["tables"])
    cert.diagnostics.update(hil["diagnostics"])
    cert.checks.extend(checks)

    om, checks = omega_certificate(spec, D, bound)
    cert.diagnostics.update(om["diagnostics"])
    cert.checks.extend(checks)

    # dual-route z: annihilator dims must satisfy e_k = e_{k-m} + z_{k-m}
    z_e = cert.diagnostics["z_from_e"]
    z_k = cert.diagnostics["right_annihilator_dims"]
    cert.add(
        "annihilator_matches_hilbert_defect",
        z_e[: len(z_k)] == z_k,
        witness=None if z_e[: len(z_k)] == z_k else {"from_e": z_e, "kernels": z_k},
    )

    rc, checks = resolution_certificate(spec, D, bound)
    cert.diagnostics.update(rc["diagnostics"])
    cert.checks.extend(checks)

    core_ok = cert.passed
    if core_ok:
        nk, checks = nakayama(spec, D)
        cert.nakayama = nk["nakayama"]
        cert.diagnostics["tau"] = nk["tau"]
        cert.diagnostics["nakayama_omega_eigenvalue"] = nk["omega_eigenvalue"]
        cert.checks.extend(checks)
        hd, checks = hdet_certificate(spec)
        cert.hdet = hd
        cert.checks.extend(checks)
    else:
        cert.add("nakayama_skipped_core_failed", False, witness="certificate core failed")
    return cert
