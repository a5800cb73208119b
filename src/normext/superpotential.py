"""Twisted-superpotential recognition and the derived linear data.

The twist is defined through the bundle identity w = sum_i q_i f_i x_i
(equivalently x^t M = (Qf)^t), which is the form every downstream
construction consumes.  Only diagonal twists are recognized.
"""

from __future__ import annotations

from .freealg import AlgebraError, Context, FreeElement, HomogeneityError, word_key
from .linalg import RowReducer, kernel


class TwistError(AlgebraError):
    pass


class NotEigenvectorError(AlgebraError):
    def __init__(self, word_a, word_b, value_a, value_b):
        super().__init__(
            f"not an eigenvector: words {word_a} and {word_b} scale by different factors"
        )
        self.witnesses = (word_a, word_b)
        self.values = (value_a, value_b)


class IntersectionError(AlgebraError):
    def __init__(self, dim: int):
        super().__init__(f"relation intersection has dimension {dim}, expected 1")
        self.dim = dim


class DefectError(AssertionError):
    """Internal identity failed; indicates a bug, not bad input."""


class DiagonalMap:
    """x_i -> scales[i] * x_i with every scale invertible."""

    __slots__ = ("ctx", "scales")

    def __init__(self, ctx: Context, scales) -> None:
        scales = tuple(scales)
        if len(scales) != ctx.n:
            raise AlgebraError("need one scale per generator")
        for s in scales:
            ctx.check_coeff(s)
            if ctx.coeff_is_zero(s):
                raise AlgebraError("diagonal map scales must be invertible")
        self.ctx = ctx
        self.scales = scales

    @staticmethod
    def identity(ctx: Context) -> "DiagonalMap":
        return DiagonalMap(ctx, [ctx.one()] * ctx.n)

    def is_identity(self) -> bool:
        return all(s.is_one() for s in self.scales)

    def inverse(self) -> "DiagonalMap":
        return DiagonalMap(self.ctx, [s.inv() for s in self.scales])

    def compose(self, other: "DiagonalMap") -> "DiagonalMap":
        return DiagonalMap(self.ctx, [a * b for a, b in zip(self.scales, other.scales)])

    def word_factor(self, w):
        c = self.ctx.one()
        for i in w:
            c = c * self.scales[i]
        return c

    def apply(self, f: FreeElement) -> FreeElement:
        """Image of f under the algebra map x_i -> s_i x_i."""
        return f.rescale_words(self.word_factor)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagonalMap)
            and self.ctx == other.ctx
            and all(a == b for a, b in zip(self.scales, other.scales))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"DiagonalMap({', '.join(str(s) for s in self.scales)})"


def cyclic_derivatives(w: FreeElement) -> list[FreeElement]:
    """The bundle f_i obtained by stripping the leading letter."""
    if w.is_zero() or w.require_homogeneous("cyclic derivatives") < 2:
        raise HomogeneityError("superpotential must be homogeneous of degree >= 2")
    return [w.left_derivative(i) for i in range(w.ctx.n)]


def trailing_derivatives(w: FreeElement) -> list[FreeElement]:
    """The bundle g_i obtained by stripping the trailing letter."""
    if w.is_zero() or w.require_homogeneous("trailing derivatives") < 2:
        raise HomogeneityError("superpotential must be homogeneous of degree >= 2")
    return [w.right_derivative(i) for i in range(w.ctx.n)]


def twist_of(w: FreeElement) -> DiagonalMap:
    """The unique diagonal Q with g_i = q_i f_i, or TwistError."""
    ctx = w.ctx
    f = cyclic_derivatives(w)
    g = trailing_derivatives(w)
    scales = []
    for i in range(ctx.n):
        if f[i].is_zero() and g[i].is_zero():
            scales.append(ctx.one())
            continue
        if f[i].is_zero() or g[i].is_zero():
            raise TwistError(
                f"no diagonal twist: exactly one of f_{i + 1}, g_{i + 1} vanishes"
            )
        word = f[i].support()[0]
        cg = g[i].coeff(word)
        if cg is None:
            raise TwistError(
                f"no diagonal twist: g_{i + 1} is not proportional to f_{i + 1}"
            )
        q = cg / f[i].coeff(word)
        if g[i] != f[i].scale(q):
            raise TwistError(
                f"no diagonal twist: g_{i + 1} is not proportional to f_{i + 1}"
            )
        scales.append(q)
    return DiagonalMap(ctx, scales)


def is_superpotential(w: FreeElement) -> bool:
    try:
        return twist_of(w).is_identity()
    except TwistError:
        return False


class Superpotential:
    """A recognized twisted superpotential with its derivative bundles."""

    __slots__ = ("w", "f", "g", "twist", "ctx")

    def __init__(self, w: FreeElement) -> None:
        self.ctx = w.ctx
        self.w = w
        self.f = cyclic_derivatives(w)
        self.g = trailing_derivatives(w)
        self.twist = twist_of(w)
        # Defensive: the identities the twist encodes.
        xs = [FreeElement.gen(self.ctx, i) for i in range(self.ctx.n)]
        lead = FreeElement.zero(self.ctx)
        trail = FreeElement.zero(self.ctx)
        for i in range(self.ctx.n):
            lead = lead + xs[i] * self.f[i]
            trail = trail + self.f[i].scale(self.twist.scales[i]) * xs[i]
        if lead != w or trail != w:
            raise DefectError("bundle identities failed after twist recognition")

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def ell(self) -> int:
        return self.w.degree

    @property
    def m(self) -> int:
        return self.w.degree - 1

    def derivatives_independent(self) -> bool:
        return RowReducer(fi.terms for fi in self.f).rank == self.n


def coefficient_matrix(w: FreeElement) -> list[list[FreeElement]]:
    """M with w = x^t M x: strip the leading and trailing letters."""
    ctx = w.ctx
    if w.is_zero() or w.require_homogeneous("coefficient matrix") < 2:
        raise HomogeneityError("coefficient matrix needs a homogeneous element of degree >= 2")
    m = [[FreeElement.zero(ctx) for _ in range(ctx.n)] for _ in range(ctx.n)]
    for word, c in w.terms.items():
        i, j = word[0], word[-1]
        mid = word[1:-1]
        m[i][j] = m[i][j] + FreeElement.monomial(ctx, mid, c)
    # Defensive checks: M x = f always; x^t M = (Qf)^t when a twist exists.
    f = cyclic_derivatives(w)
    xs = [FreeElement.gen(ctx, i) for i in range(ctx.n)]
    for i in range(ctx.n):
        row = FreeElement.zero(ctx)
        for j in range(ctx.n):
            row = row + m[i][j] * xs[j]
        if row != f[i]:
            raise DefectError("coefficient matrix fails M x = f")
    try:
        q = twist_of(w)
    except TwistError:
        q = None
    if q is not None:
        for j in range(ctx.n):
            col = FreeElement.zero(ctx)
            for i in range(ctx.n):
                col = col + xs[i] * m[i][j]
            if col != f[j].scale(q.scales[j]):
                raise DefectError("coefficient matrix fails x^t M = (Qf)^t")
    return m


def superpotential_from_relations(rels: list[FreeElement], m: int | None = None) -> FreeElement:
    """Recover w from (V (x) R) \\cap (R (x) V); error unless 1-dimensional."""
    if not rels:
        raise AlgebraError("need at least one relation")
    ctx = rels[0].ctx
    if ctx.mode != "field":
        raise AlgebraError("superpotential recovery runs in field mode")
    degs = {r.require_homogeneous("relation") for r in rels}
    if len(degs) != 1:
        raise HomogeneityError("relations must share one degree")
    deg = degs.pop()
    if m is not None and m != deg:
        raise AlgebraError(f"relations have degree {deg}, expected {m}")

    left = []  # x_i (x) r
    right = []  # r (x) x_i
    for i in range(ctx.n):
        for r in rels:
            left.append({(i,) + u: c for u, c in r.terms.items()})
            right.append({u + (i,): c for u, c in r.terms.items()})

    # Each relation sum a_e left_e - sum b_f right_f = 0 gives an element
    # sum a_e left_e of the intersection.
    found = RowReducer()
    witnesses = []
    for vec in kernel(left + [{u: -c for u, c in row.items()} for row in right]):
        elem: dict = {}
        for e_idx, a in enumerate(vec[: len(left)]):
            if a.is_zero():
                continue
            for u, c in left[e_idx].items():
                cur = elem.get(u)
                nv = cur + a * c if cur is not None else a * c
                if nv.is_zero():
                    elem.pop(u, None)
                else:
                    elem[u] = nv
        if elem and found.insert(elem):
            witnesses.append(elem)
    if found.rank != 1:
        raise IntersectionError(found.rank)
    elem = witnesses[0]
    lead = max(elem, key=word_key)
    inv = elem[lead].inv()
    out = FreeElement(ctx)
    out.terms = {u: c * inv for u, c in elem.items()}
    return out


def eigen_scale(sigma: DiagonalMap, f: FreeElement):
    """Common scale of sigma^(tensor d) on f, or NotEigenvectorError."""
    if f.is_zero():
        raise AlgebraError("eigen_scale needs a nonzero element")
    f.require_homogeneous("eigen_scale")
    words = f.support()
    first = words[0]
    value = sigma.word_factor(first)
    for w in words[1:]:
        v = sigma.word_factor(w)
        if v != value:
            raise NotEigenvectorError(first, w, value, v)
    return value
