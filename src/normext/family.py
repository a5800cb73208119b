"""Projective families of central extensions, Zhang twists, basis adaptation.

For a superpotential input (identity twist) every point c of P^(n-1)
yields a central extension D_c with relations

    c_i f_j - c_j f_i   (all i < j)   and   [x_i, f_j]   (all i, j),

all of which collapse to the single-index construction at the coordinate
points.  Flatness is probed by comparing Hilbert tables across sample
points.  Zhang twisting rescales each monomial by prod_{t>=2} s^{t-1} of
its letters; the certificate checks the twisted extension agrees with the
extension of the twisted superpotential for the adjusted tuple
p'_i = p_i * s_k * s_i^m / hdet_A(sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certify import build_extension
from .dsl import print_poly, scalar_text
from .freealg import AlgebraError, FreeElement, gens, matmul
from .linalg import RowReducer, same_span, solve
from .quotient import Presentation, hilbert_table, membership
from .scalars import Scalar
from .superpotential import DiagonalMap, Superpotential, eigen_scale


class FamilyError(AlgebraError):
    pass


@dataclass
class Fiber:
    coords: tuple
    pivot: int
    presentation: Presentation
    omega: FreeElement


def fiber(sp: Superpotential, coords) -> Fiber:
    """Central extension attached to a point of P^(n-1) (identity twist only)."""
    ctx = sp.ctx
    if ctx.mode != "field":
        raise FamilyError("fibers are built in field mode")
    if not sp.twist.is_identity():
        raise FamilyError("fiber construction needs an identity twist")
    coords = tuple(coords)
    if len(coords) != sp.n:
        raise FamilyError("need one coordinate per generator")
    pivot = next((i for i, c in enumerate(coords) if not c.is_zero()), None)
    if pivot is None:
        raise FamilyError("fiber coordinates must not all vanish")
    xs = [FreeElement.gen(ctx, i) for i in range(sp.n)]
    rels = []
    for i in range(sp.n):
        for j in range(i + 1, sp.n):
            rels.append(sp.f[j].scale(coords[i]) - sp.f[i].scale(coords[j]))
    for i in range(sp.n):
        for j in range(sp.n):
            rels.append(xs[i] * sp.f[j] - sp.f[j] * xs[i])
    label = "D_(" + ",".join(scalar_text(c) for c in coords) + ")"
    pres = Presentation(ctx, rels, label=label)
    omega = sp.f[pivot]
    _check_fiber_span(sp, pres, omega)
    return Fiber(coords=coords, pivot=pivot, presentation=pres, omega=omega)


def _check_fiber_span(sp: Superpotential, pres: Presentation, omega: FreeElement) -> None:
    """Degree-m relations plus the distinguished element span A's relations."""
    red = RowReducer([r.terms for r in pres.relations if r.degree == sp.m] + [omega.terms])
    ok = red.rank == sp.n and all(red.contains(dict(f.terms)) for f in sp.f)
    if not ok:
        raise FamilyError("fiber relations plus omega do not recover the base relations")


def ideal_components_match(pa: Presentation, pb: Presentation, degrees) -> bool:
    """Degree-wise equality of the two ideals on the listed degrees.

    Generator lists may differ (a fiber lists commutators against every
    derivative); equality of component dimensions plus mutual membership
    of the generators pins the components exactly.
    """
    dmax = max(degrees)
    dims_a, dims_b = hilbert_table(pa, dmax, "la").dims, hilbert_table(pb, dmax, "la").dims
    if any(dims_a[d] != dims_b[d] for d in degrees):
        return False
    return all(
        membership(r, other, "la")
        for pres, other in ((pa, pb), (pb, pa))
        for r in pres.relations
        if r.degree <= dmax
    )


@dataclass
class ProbeReport:
    bound: int
    rows: list = field(default_factory=list)  # (coords text, dims tuple)
    passed: bool = True

    def to_tsv(self) -> str:
        lines = []
        header = "point\t" + "\t".join(str(d) for d in range(self.bound + 1))
        lines.append(header)
        for label, dims in self.rows:
            lines.append(label + "\t" + "\t".join(str(v) for v in dims))
        lines.append(f"pass\t{str(self.passed).lower()}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "fibers": [{"point": label, "dims": list(dims)} for label, dims in self.rows],
            "pass": self.passed,
        }


def flatness_probe(sp: Superpotential, points, bound: int, engine: str = "gb") -> ProbeReport:
    """Hilbert tables of sample fibers; pass iff all tables agree."""
    points = list(points)
    if len(points) < 2:
        raise FamilyError("flatness probe needs at least 2 sample points")
    report = ProbeReport(bound=bound)
    reference = None
    for coords in points:
        fb = fiber(sp, coords)
        dims = hilbert_table(fb.presentation, bound, engine).dims
        label = "(" + ",".join(scalar_text(c) for c in fb.coords) + ")"
        report.rows.append((label, dims))
        if reference is None:
            reference = dims
        elif dims != reference:
            report.passed = False
    return report


def zhang_twist(f: FreeElement, sigma: DiagonalMap) -> FreeElement:
    """Twist of a homogeneous element: rescale words by prod s^(position-1)."""

    def factor(word):
        c = sigma.ctx.one()
        for t, a in enumerate(word):
            if t:
                c = c * sigma.scales[a] ** t
        return c

    return f.rescale_words(factor)


def zhang_twist_presentation(pres: Presentation, sigma: DiagonalMap) -> Presentation:
    return Presentation(
        pres.ctx,
        [zhang_twist(r, sigma) for r in pres.relations],
        label=f"twist({pres.label})" if pres.label else "",
    )


@dataclass
class ZhangReport:
    hdet: str
    p_prime: list
    degrees: list
    passed: bool

    def to_json(self) -> dict:
        return {
            "hdet_sigma": self.hdet,
            "p_prime": self.p_prime,
            "span_degrees": self.degrees,
            "pass": self.passed,
        }


def twisted_tuple(sp: Superpotential, p, k: int, sigma: DiagonalMap):
    """p'_i = p_i s_k s_i^m / hdet(sigma); hdet via the eigenvalue on w."""
    hd = eigen_scale(sigma, sp.w)
    hd_inv = hd.inv()
    s = sigma.scales
    out = []
    for i in range(sp.n):
        v = p[i] * s[k]
        for _ in range(sp.m):
            v = v * s[i]
        out.append(v * hd_inv)
    return tuple(out), hd


def zhang_certificate(sp: Superpotential, p, k: int, sigma: DiagonalMap) -> ZhangReport:
    """Span equality of (twist of D(w,p)) and D(twist of w, p')."""
    spec = build_extension(sp, p, k, label="D")
    p_prime, hd = twisted_tuple(sp, p, k, sigma)
    left = zhang_twist_presentation(spec.D, sigma)
    sp_tw = Superpotential(zhang_twist(sp.w, sigma))
    right = build_extension(sp_tw, p_prime, k, label="D'").D
    degrees = sorted({r.degree for r in left.relations} | {r.degree for r in right.relations})
    ok = all(
        same_span(
            (r.terms for r in left.relations if r.degree == d),
            (r.terms for r in right.relations if r.degree == d),
        )
        for d in degrees
    )
    return ZhangReport(
        hdet=scalar_text(hd),
        p_prime=[scalar_text(v) for v in p_prime],
        degrees=degrees,
        passed=ok,
    )


@dataclass
class BasisChange:
    matrix: list  # P with f_list = P * (cyclic derivatives)
    new_generators: list  # FreeElements expressing x'_a in the old letters
    verified: bool

    def to_json(self) -> dict:
        return {
            "P": [[scalar_text(v) for v in row] for row in self.matrix],
            "new_generators": [print_poly(g) for g in self.new_generators],
            "verified": self.verified,
        }


def adapt_basis(w: FreeElement, f_list) -> BasisChange:
    """Change of generators making the given relations the derivative bundle.

    Solves f_list = P * (d_1 w, ..., d_n w), inverts P^t, and verifies by
    recomputing derivatives of w in the new letters.
    """
    ctx = w.ctx
    if ctx.mode != "field":
        raise FamilyError("basis adaptation runs in field mode")
    sp = Superpotential(w)
    if not sp.twist.is_identity():
        raise FamilyError("basis adaptation applies to identity-twist input")
    f_list = list(f_list)
    if len(f_list) != sp.n:
        raise FamilyError("need exactly one relation per generator")
    p_rows = []
    for h in f_list:
        sol = solve([g.terms for g in sp.f], h.terms)
        if sol is None:
            raise FamilyError("relation list does not lie in the derivative span")
        p_rows.append(sol)
    # x' = (P^t)^{-1} x: column a of (P^t)^{-1} solves P^t c = e_a, and the
    # columns of P^t are the rows of P
    n = sp.n
    one = Scalar.one(ctx.conductor)
    rows = [{j: v for j, v in enumerate(r) if v} for r in p_rows]
    inv_cols = [solve(rows, {a: one}) for a in range(n)]
    if any(col is None for col in inv_cols):
        raise FamilyError("relation list is linearly dependent (singular P)")

    def times_letters(matrix):
        """sum_j matrix[a][j] x_j for each row a of a matrix of scalars."""
        scalars = [[FreeElement.monomial(ctx, (), c) for c in row] for row in matrix]
        return [g for (g,) in matmul(scalars, [[x] for x in gens(ctx)])]

    new_gens = times_letters(zip(*inv_cols))
    # verify: rewrite w and the targets in the new letters, x = P^t x';
    # derivatives must match
    images = times_letters(zip(*p_rows))
    w_new = w.linear_substitute(images)
    ok = all(
        w_new.left_derivative(a) == f_list[a].linear_substitute(images) for a in range(n)
    )
    if not ok:
        raise FamilyError("verification failed: derivatives in the new basis differ")
    return BasisChange(matrix=p_rows, new_generators=new_gens, verified=True)
