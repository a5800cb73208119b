"""Degree-truncated computation in graded quotients TV/(R).

Two independent engines compute graded dimensions, normal words and
normal forms:

* ``LinearEngine`` (this module) -- exact sparse row reduction over
  Q(zeta_N).  The degree-d ideal component is built incrementally as
  V * I_{d-1} + sum_r r * S_{d - deg r}, where S_k is spanned by the
  standard words of degree k (those that are not pivots of I_k); the rest
  of r * T_k already lies in V * I_{d-1}.  The first summand arrives
  pre-echelonized (prefixing a fixed letter preserves deglex among
  same-degree words), so only the relation-tail rows need reduction, and
  there are |R| * dim A_k of them instead of |R| * n^k.  Its rows are not
  copied: each is stored as a ``ShiftedRow`` view of a pivot row one level
  below, and built only when a reduction first cancels its lead (as F4
  reuses the rows reduced at the degree below).  A relation row
  r_j * v whose prefix row r_j * v' (v = v'x_a) lay in the span of the rows
  before it at the level below is skipped: a syzygy stays a syzygy after
  right multiplication, so the row is in the span of the rows before it
  too (the free-algebra, Macaulay-matrix form of Faugere's F5 syzygy
  criterion; the proof is at ``_relation_rows``).  Normal words are
  the standard words, listed once per level from the level below, and a
  normal form is a full reduction against the echelon basis.  Rows are
  keyed by ``word_code``, the bijective base-n numeral of a word: integer
  keys sort in deglex order, and prefixing a letter or appending a word is
  integer arithmetic on the key.
* ``GBState`` (rewriting module) -- truncated noncommutative Buchberger
  completion; normal words avoid every rule lead.

Both engines start empty and grow on demand: ``extend(d)`` completes
through degree d, and ``dims``, ``normal_words`` and ``normal_form`` each
extend to the degree they need first, so an answer never depends on what
was asked before.

``GradedQuotient`` is the one way into the engines, and the interface the
certificates are written against: it runs either engine, or both,
comparing every dimension, normal-word list and normal form and raising on
disagreement.  ``hilbert_table`` is the one call on it, and builds the
``DegreeTable`` report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .freealg import AlgebraError, CoefficientModeError, Context, FreeElement, word_key
from .linalg import RowReducer, ShiftedRow
from .dsl import print_poly
from .rewriting import GBState


class EngineDisagreementError(AssertionError):
    """The two engines disagree; a build-blocking defect, not bad input."""

    def __init__(self, label: str, degree: int, la, gb) -> None:
        super().__init__(
            f"engine disagreement for {label!r} at degree {degree}: "
            f"linear algebra {la} vs rewriting {gb}"
        )
        self.degree = degree


class Presentation:
    """Generators plus a homogeneous relation list in canonical form.

    Relations are normalized monic at their deglex-leading word, sorted,
    and deduplicated; zero elements are dropped so constructions that
    naturally produce them (coordinate fibers) need no special casing.  A
    nonzero relation of degree 0 would make the quotient zero in every
    degree and is refused.
    """

    __slots__ = ("ctx", "relations", "texts", "label", "_key")

    def __init__(self, ctx: Context, relations, label: str = "") -> None:
        self.ctx = ctx
        rels = []
        for r in relations:
            if r.ctx != ctx:
                raise CoefficientModeError("relation from a different context")
            if r.is_zero():
                continue
            if r.require_homogeneous("presentation relation") == 0:
                raise AlgebraError("a relation of degree 0 makes the quotient zero")
            lead = max(r.terms, key=word_key)
            if ctx.mode == "field":
                r = r.scale(r.terms[lead].inv())
            rels.append((r.degree, word_key(lead), print_poly(r), r))
        uniq = {}
        for *_, text, r in sorted(rels, key=lambda t: t[:3]):
            uniq.setdefault(text, r)
        self.texts = tuple(uniq)
        self.relations = tuple(uniq.values())
        self.label = label
        self._key = None

    def key(self) -> str:
        if self._key is None:
            self._key = json.dumps(
                {
                    "gens": self.ctx.gens,
                    "N": self.ctx.conductor,
                    "mode": self.ctx.mode,
                    "rels": self.texts,
                },
                sort_keys=True,
            )
        return self._key

    def require_field(self) -> None:
        if self.ctx.mode != "field":
            raise CoefficientModeError(
                "unit-mode coefficients without assignment; specialize the presentation first"
            )

    def text(self) -> str:
        return f"<{', '.join(self.ctx.gens)} | {' ; '.join(self.texts)}>"

    def __repr__(self) -> str:
        return f"Presentation({self.label or self.text()})"


@dataclass(frozen=True)
class DegreeTable:
    label: str
    bound: int
    dims: tuple
    engine: str

    def to_tsv(self) -> str:
        lines = ["degree\tdim"]
        lines += [f"{d}\t{v}" for d, v in enumerate(self.dims)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "bound": self.bound,
            "dims": list(self.dims),
            "engine": self.engine,
        }


def word_code(word, n: int) -> int:
    """The bijective base-n numeral of a word: deglex-monotone, onto the
    integers >= 0, and code(u.v) = code(u) * n^len(v) + code(v)."""
    code = 0
    for a in word:
        code = code * n + a + 1
    return code


def code_word(code: int, n: int) -> tuple:
    """The word whose ``word_code`` is code."""
    out = []
    while code:
        code, a = divmod(code - 1, n)
        out.append(a)
    return tuple(reversed(out))


class LinearEngine:
    """Exact row-reduction engine for one presentation.

    ``entry_limit`` bounds the entries each level holds, counted as if
    every row were built: a view of a row below counts its full length
    though it stores none, so the limit over-states the memory in use."""

    def __init__(self, pres: Presentation, entry_limit: int | None = 40_000_000) -> None:
        pres.require_field()
        self.pres = pres
        self.entry_limit = entry_limit
        # no relation has degree 0, so level 0 is empty and the empty word,
        # code 0, is standard
        self.levels: list[RowReducer] = [RowReducer(entry_limit=entry_limit)]
        self.standard: list[list[int]] = [[0]]  # codes of each level's standard words, ascending
        self._zero: set[int] = set()  # keys of the top level's relation rows known to be zero
        # degree -> its standard words and their code -> word table, once asked for
        self._words: dict[int, tuple[list[tuple], dict[int, tuple]]] = {}

    def _relation_rows(self, d: int, known: set):
        """(key, row) for each relation row r_j * v of level d: relations
        in order, then the standard words v of degree k = d - deg r_j in
        increasing order, with key = code(v) * |R| + j.  row is None when
        the row is known to lie in the span of the rows before it; known
        holds the keys of level d-1 known so.

        A word v that is a pivot of level k is not offered: modulo I_k it is
        a combination of smaller words, and writing r = sum_i x_i r'_i gives
        r * I_k in V * I_{d-1}, which is already inserted.  So r * v lies in
        the span of V * I_{d-1} and the rows (j, y) with y < v standard.

        Row (j, v x_a) with k >= 1 is known to lie in the span when its
        prefix row (j, v) at level d-1 is in known.  Write r_j v = g + sum
        c * r_j' v'' with g in V * I_{d-2} and (j', v'') before (j, v), and
        multiply on the right by x_a.  g x_a lies in V * I_{d-1}, the
        shifted part of level d.  If v'' x_a is standard, (j', v'' x_a)
        comes before (j, v x_a): the relations keep their order at every
        level, and v'' < v in one degree gives v'' x_a < v x_a.  If it is
        not, the paragraph above puts r_j' v'' x_a in V * I_{d-1} plus rows
        (j', y) with y < v'' x_a standard.  A skipped row would have reduced
        to zero and stored nothing, so the span, the pivots and every pivot
        row are those of inserting it.  ``(v - 1) // n`` is the code of v's
        prefix.
        """
        n, nrel = self.pres.ctx.n, len(self.pres.relations)
        for j, r in enumerate(self.pres.relations):
            k = d - r.degree
            if k < 0:
                continue
            terms = sorted(r.terms.items(), key=lambda t: word_key(t[0]))
            # code(u.v) = code(u) * n^k + code(v)
            scaled = [(word_code(u, n) * n**k, c) for u, c in terms]
            for v in self.standard[k]:
                if k and (v - 1) // n * nrel + j in known:
                    yield v * nrel + j, None
                else:
                    yield v * nrel + j, {code + v: c for code, c in scaled}

    def extend(self, bound: int) -> None:
        """Build levels through bound.  Level d starts with x_a * row for
        each letter and each pivot row of level d-1, stored as a
        ``ShiftedRow`` view that ``RowReducer.normal_form`` builds the first
        time it cancels the view's lead; most are never built.  Level d also
        lists its standard words, from the candidates x_a appended to a
        standard word of degree d-1: if u leads an element g of I_{d-1},
        then u*x_a leads g*x_a in I_d, so a prefix of a standard word is
        standard."""
        n = self.pres.ctx.n
        while len(self.levels) <= bound:
            d = len(self.levels)
            prev = self.levels[-1]
            red = RowReducer(entry_limit=self.entry_limit)
            below = sorted(prev.pivots.items())  # leads are distinct: rows are never compared
            for i in range(n):
                shift = (i + 1) * n ** (d - 1)  # code(x_i.w) - code(w)
                for lead, row in below:
                    red.store(lead + shift, ShiftedRow(row, shift))
            zero = set()  # this level's relation rows known to reduce to zero
            for key, row in self._relation_rows(d, self._zero):
                if row is None or not red.insert(row):
                    zero.add(key)
            self._zero = zero
            words = [c * n + a for c in self.standard[-1] for a in range(1, n + 1)]
            self.levels.append(red)
            self.standard.append([c for c in words if c not in red.pivots])

    def dims(self, bound: int) -> list[int]:
        self.extend(bound)
        return [len(words) for words in self.standard[: bound + 1]]

    def _level(self, d: int) -> RowReducer:
        if d >= len(self.levels):
            self.extend(d)
        return self.levels[d]

    def _standard_words(self, d: int) -> tuple[list[tuple], dict[int, tuple]]:
        """The standard words of degree d, in deglex order, and the table
        from each one's code to it: built together on the first request."""
        if d not in self._words:
            self._level(d)
            words = [code_word(c, self.pres.ctx.n) for c in self.standard[d]]
            self._words[d] = words, dict(zip(self.standard[d], words))
        return self._words[d]

    def normal_words(self, d: int) -> list[tuple]:
        """Standard words of degree d (the non-pivots), in deglex order: a
        list built on the first request and kept, which callers must not mutate."""
        return self._standard_words(d)[0]

    def normal_form(self, f: FreeElement) -> FreeElement:
        """f fully reduced against the echelon basis of its degree."""
        d = f.require_homogeneous("normal form")
        n, conductor = self.pres.ctx.n, self.pres.ctx.conductor
        row = {word_code(w, n): c.promote(conductor) for w, c in f.terms.items()}
        nf = self._level(d).normal_form(row)
        out = FreeElement(self.pres.ctx)
        if nf:  # a degree whose forms are all zero builds no table
            # every term is a standard word: read it from the table of degree d
            table = self._standard_words(d)[1]
            out.terms = {table[c]: v for c, v in nf.items()}
        return out


_LA_CACHE: dict[str, LinearEngine] = {}
_GB_CACHE: dict[str, GBState] = {}


def _engine(cache: dict, cls, pres: Presentation):
    """The one engine of class cls for pres, kept in cache by presentation."""
    eng = cache.get(pres.key())
    if eng is None:
        eng = cache[pres.key()] = cls(pres)
    return eng


class GradedQuotient:
    """Dimensions, normal words and normal forms of TV/(R), in any degree.

    With engine ``la`` or ``gb`` that engine's own methods are bound onto
    the instance.  With ``both`` each answer comes from both engines and a
    mismatch raises ``EngineDisagreementError``: the LA pivots are the
    deglex leading words, so the two must agree term by term.  Each engine
    is shared through a cache per presentation and extends itself to the
    degree a call needs, so every answer is exact whatever was asked before.
    """

    def __init__(self, pres: Presentation, engine: str = "both") -> None:
        if engine not in ("la", "gb", "both"):
            raise ValueError(f"unknown engine {engine!r}")
        self.pres = pres
        self.label = pres.label or pres.text()
        if engine != "gb":
            self.la = _engine(_LA_CACHE, LinearEngine, pres)
        if engine != "la":
            self.gb = _engine(_GB_CACHE, GBState, pres)
        if engine != "both":
            own = self.la if engine == "la" else self.gb
            self.dims = own.dims
            self.normal_words = own.normal_words
            self.normal_form = own.normal_form

    def _agree(self, degree: int, la, gb):
        if la != gb:
            raise EngineDisagreementError(self.label, degree, la, gb)
        return la

    def dims(self, bound: int) -> list[int]:
        pairs = zip(self.la.dims(bound), self.gb.dims(bound))
        return [self._agree(d, la, gb) for d, (la, gb) in enumerate(pairs)]

    def normal_words(self, d: int) -> list[tuple]:
        return self._agree(d, self.la.normal_words(d), self.gb.normal_words(d))

    def normal_form(self, f: FreeElement) -> FreeElement:
        return self._agree(f.require_homogeneous(), self.la.normal_form(f), self.gb.normal_form(f))

    def contains(self, f: FreeElement) -> bool:
        """Does f lie in the two-sided ideal (R)?"""
        return self.normal_form(f).is_zero()


def hilbert_table(pres: Presentation, bound: int, engine: str = "both") -> DegreeTable:
    """Graded dimensions of TV/(R) up to bound, via the chosen engine(s)."""
    q = GradedQuotient(pres, engine)
    return DegreeTable(label=q.label, bound=bound, dims=tuple(q.dims(bound)), engine=engine)

