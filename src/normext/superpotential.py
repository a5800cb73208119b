"""Twisted-superpotential recognition and the derived linear data.

The twist is defined through the bundle identity w = sum_i q_i f_i x_i
(equivalently x^t M = (Qf)^t), which is the form every downstream
construction consumes.  Only diagonal twists are recognized.

The bundle identities hold by construction, and nothing here re-checks
them.  ``Superpotential`` strips w once on each side, f_i dropping a
leading x_i and g_i a trailing one, so x^t f = w = g^t x; it recognizes Q
from those same bundles as g_i = q_i f_i, so (Qf)^t x = w.
``coefficient_matrix`` strips both ends, so M x = f and x^t M = g^t.  On
the certificate path ``resolution_maps`` checks x^t M_l = g_l^t and
M_r x = g_r, which imply x^t M = (Qf)^t and M x = f, on every run and
reports them as ``resolution_identities``.
"""

from __future__ import annotations

from .freealg import AlgebraError, Context, FreeElement, HomogeneityError
from .linalg import RowReducer


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


class Superpotential:
    """A recognized twisted superpotential with its derivative bundles f, g
    and its twist Q, each derived once from w."""

    __slots__ = ("w", "f", "g", "twist", "ctx")

    def __init__(self, w: FreeElement) -> None:
        ctx = self.ctx = w.ctx
        self.w = w
        self.f = cyclic_derivatives(w)
        self.g = [w.right_derivative(i) for i in range(ctx.n)]
        scales = []
        for i, (fi, gi) in enumerate(zip(self.f, self.g), 1):
            if fi.is_zero() or gi.is_zero():
                if fi.is_zero() != gi.is_zero():
                    raise TwistError(f"no diagonal twist: exactly one of f_{i}, g_{i} vanishes")
                scales.append(ctx.one())
                continue
            word = fi.support()[0]
            cg = gi.coeff(word)
            q = None if cg is None else cg / fi.coeff(word)
            if q is None or gi != fi.scale(q):
                raise TwistError(f"no diagonal twist: g_{i} is not proportional to f_{i}")
            scales.append(q)
        self.twist = DiagonalMap(ctx, scales)

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
    """M with w = x^t M x: strip the leading and trailing letters.  Needs
    no twist; M x = f and x^t M = g^t by construction."""
    ctx = w.ctx
    if w.is_zero() or w.require_homogeneous("coefficient matrix") < 2:
        raise HomogeneityError("coefficient matrix needs a homogeneous element of degree >= 2")
    m = [[FreeElement.zero(ctx) for _ in range(ctx.n)] for _ in range(ctx.n)]
    for word, c in w.terms.items():
        i, j = word[0], word[-1]
        mid = word[1:-1]
        m[i][j] = m[i][j] + FreeElement.monomial(ctx, mid, c)
    return m


def superpotential_from_relations(rels: list[FreeElement]) -> FreeElement:
    """Recover w from (V (x) R) \\cap (R (x) V); error unless 1-dimensional.

    One Zassenhaus reduction on (block, word) keys: each x_i (x) r enters
    with its terms in block 1 and again in block 0, each r (x) x_i with its
    terms in block 1 only.  Block 1 sorts above block 0, so a pivot row whose
    lead lies in block 0 has no block-1 part left, and these rows are a basis
    of the intersection.  Each is monic at its largest word, which is the
    deglex-largest since the words share one length.
    """
    if not rels:
        raise AlgebraError("need at least one relation")
    ctx = rels[0].ctx
    if ctx.mode != "field":
        raise AlgebraError("superpotential recovery runs in field mode")
    if len({r.require_homogeneous("relation") for r in rels}) != 1:
        raise HomogeneityError("relations must share one degree")

    red = RowReducer()
    for i in range(ctx.n):
        for r in rels:
            terms = [((i,) + u, c) for u, c in r.terms.items()]
            red.insert({(block, v): c for block in (1, 0) for v, c in terms})
    for i in range(ctx.n):
        for r in rels:
            red.insert({(1, u + (i,)): c for u, c in r.terms.items()})
    found = [row for lead, row in red.pivots.items() if lead[0] == 0]
    if len(found) != 1:
        raise IntersectionError(len(found))
    out = FreeElement(ctx)
    out.terms = {u: c for (_, u), c in found[0].items()}
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
