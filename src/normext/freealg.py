"""Words, homogeneous tensor-algebra elements, the stripping operators, and
the product of matrices of elements.

Elements are finitely supported maps word -> coefficient, where a word is a
tuple of 0-based generator indices and the coefficient domain is fixed by
the ambient ``Context`` (Scalar in field mode, UnitScalar in unit mode).
Iteration and printing always follow deglex order (degree, then tuple
order in the declared generator order), so output is reproducible.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .scalars import Assignment, Scalar, UnitScalar

Word = tuple  # tuple[int, ...]


class AlgebraError(ValueError):
    pass


class ContextMismatchError(AlgebraError):
    pass


class HomogeneityError(AlgebraError):
    pass


class CoefficientModeError(AlgebraError):
    pass


class Context:
    """Generator names, conductor and parameter list.  The coefficient mode
    follows from the parameters: "unit" (UnitScalar coefficients) when there
    are any, "field" (Scalar coefficients in Q(zeta_N)) otherwise."""

    __slots__ = ("gens", "conductor", "params", "mode")

    def __init__(self, gens, conductor: int = 1, params=()):
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise AlgebraError("generator names must be distinct")
        if not gens:
            raise AlgebraError("need at least one generator")
        self.gens = gens
        self.conductor = conductor
        self.params = tuple(params)
        self.mode = "unit" if self.params else "field"

    @property
    def n(self) -> int:
        return len(self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Context)
            and self.gens == other.gens
            and self.conductor == other.conductor
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.gens, self.conductor, self.params))

    def __repr__(self) -> str:
        return (
            f"Context(gens={self.gens}, N={self.conductor}, params={self.params}, "
            f"mode={self.mode!r})"
        )

    # -- coefficient helpers -------------------------------------------

    def one(self):
        if self.mode == "field":
            return Scalar.one(self.conductor)
        return UnitScalar.one(len(self.params))

    def coeff_is_zero(self, c) -> bool:
        return self.mode == "field" and c.is_zero()

    def check_coeff(self, c) -> None:
        if self.mode == "field" and not isinstance(c, Scalar):
            raise CoefficientModeError("field-mode element needs Scalar coefficients")
        if self.mode == "unit" and not isinstance(c, UnitScalar):
            raise CoefficientModeError("unit-mode element needs UnitScalar coefficients")

    def index(self, name: str) -> int:
        try:
            return self.gens.index(name)
        except ValueError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def field_context(self) -> "Context":
        return Context(self.gens, self.conductor)


def word_key(w: Word):
    return (len(w), w)


class FreeElement:
    """Finitely supported map from words to coefficients."""

    __slots__ = ("ctx", "terms", "_degree")

    def __init__(self, ctx: Context, terms: dict | None = None) -> None:
        self.ctx = ctx
        self.terms = {}
        if terms:
            for w, c in terms.items():
                ctx.check_coeff(c)
                if not ctx.coeff_is_zero(c):
                    self.terms[tuple(w)] = c
        self._degree = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "FreeElement":
        return FreeElement(ctx)

    @staticmethod
    def monomial(ctx: Context, word, coeff=None) -> "FreeElement":
        if coeff is None:
            coeff = ctx.one()
        return FreeElement(ctx, {tuple(word): coeff})

    @staticmethod
    def gen(ctx: Context, i: int) -> "FreeElement":
        if not 0 <= i < ctx.n:
            raise AlgebraError(f"generator index {i} out of range")
        return FreeElement.monomial(ctx, (i,))

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Word]:
        return sorted(self.terms, key=word_key)

    def coeff(self, word):
        return self.terms.get(tuple(word))

    def is_homogeneous(self) -> bool:
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    @property
    def degree(self) -> int:
        """Degree of a nonzero homogeneous element."""
        if self._degree is None:
            degs = {len(w) for w in self.terms}
            if not degs:
                raise HomogeneityError("zero element has no degree")
            if len(degs) > 1:
                raise HomogeneityError(f"element is not homogeneous (degrees {sorted(degs)})")
            self._degree = degs.pop()
        return self._degree

    def require_homogeneous(self, what: str = "operation") -> int:
        if not self.is_homogeneous():
            raise HomogeneityError(f"{what} requires a homogeneous element")
        return self.degree if self.terms else 0

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "FreeElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("elements from different contexts")

    def _add_coeffs(self, a, b):
        if self.ctx.mode == "field":
            return a + b
        # Unit coefficients only cancel; any other collision leaves the group.
        if a == -b:
            return None
        raise CoefficientModeError(
            "sum of unit coefficients is not a unit; specialize first"
        )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            if w in out:
                s = self._add_coeffs(out[w], c)
                if s is None or self.ctx.coeff_is_zero(s):
                    del out[w]
                else:
                    out[w] = s
            else:
                out[w] = c
        res = FreeElement(self.ctx)
        res.terms = out
        return res

    def __neg__(self) -> "FreeElement":
        res = FreeElement(self.ctx)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def scale(self, c) -> "FreeElement":
        self.ctx.check_coeff(c)
        if self.ctx.coeff_is_zero(c):
            return FreeElement.zero(self.ctx)
        res = FreeElement(self.ctx)
        res.terms = {w: v * c for w, v in self.terms.items()}
        return res

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        out: dict = {}
        add = self._add_coeffs
        zero = self.ctx.coeff_is_zero
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                if w in out:
                    s = add(out[w], c)
                    if s is None or zero(s):
                        del out[w]
                    else:
                        out[w] = s
                else:
                    out[w] = c
        res = FreeElement(self.ctx)
        res.terms = out
        return res

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        if self.ctx != other.ctx or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    __hash__ = None

    # -- stripping operators ----------------------------------------------

    def left_derivative(self, i: int) -> "FreeElement":
        """Strip a leading x_i from every word; kill the others."""
        if not 0 <= i < self.ctx.n:
            raise AlgebraError(f"generator index {i} out of range 0..{self.ctx.n - 1}")
        res = FreeElement(self.ctx)
        res.terms = {w[1:]: c for w, c in self.terms.items() if w and w[0] == i}
        return res

    def right_derivative(self, i: int) -> "FreeElement":
        """Strip a trailing x_i from every word; kill the others."""
        if not 0 <= i < self.ctx.n:
            raise AlgebraError(f"generator index {i} out of range 0..{self.ctx.n - 1}")
        res = FreeElement(self.ctx)
        res.terms = {w[:-1]: c for w, c in self.terms.items() if w and w[-1] == i}
        return res

    # -- structure maps ------------------------------------------------------

    def rescale_words(self, factor) -> "FreeElement":
        """Multiply each word's coefficient by factor(word); drop zeros."""
        out: dict = {}
        for w, c in self.terms.items():
            f = factor(w)
            v = c * f
            if not self.ctx.coeff_is_zero(v):
                out[w] = v
        res = FreeElement(self.ctx)
        res.terms = out
        return res

    def linear_substitute(self, images: list["FreeElement"]) -> "FreeElement":
        """Apply the algebra map x_i -> images[i] (degree-1 images)."""
        if len(images) != self.ctx.n:
            raise AlgebraError("need one image per generator")
        ctx = images[0].ctx if images else self.ctx
        res = FreeElement.zero(ctx)
        for w, c in sorted(self.terms.items(), key=lambda kv: word_key(kv[0])):
            prod = FreeElement.monomial(ctx, (), c)
            for i in w:
                prod = prod * images[i]
            res = res + prod
        return res

    def specialize(self, assignment: Assignment) -> "FreeElement":
        """Map a unit-mode element into the field-mode context."""
        if self.ctx.mode != "unit":
            raise CoefficientModeError("specialize applies to unit-mode elements")
        ctx = self.ctx.field_context()
        res = FreeElement(ctx)
        res.terms = {w: assignment.specialize(c) for w, c in self.terms.items()}
        return res

    # -- text ------------------------------------------------------------------

    def __str__(self) -> str:
        from .dsl import print_poly

        return print_poly(self)

    def __repr__(self) -> str:
        return f"<{self}>"


def gens(ctx: Context) -> list[FreeElement]:
    return [FreeElement.gen(ctx, i) for i in range(ctx.n)]


def matmul(a: list, b: list) -> list:
    """The product of two matrices of elements, each given as a list of rows.

    Entry (i, j) is a[i][0]*b[0][j] + a[i][1]*b[1][j] + ..., summed in that
    order; a row of a and a column of b must have one length."""
    cols = list(zip(*b))
    return [[reduce(add, (x * y for x, y in zip(row, col, strict=True))) for col in cols] for row in a]
