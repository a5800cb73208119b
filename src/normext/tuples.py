"""Good-tuple constraint systems over the unit group and their solver.

A system has unknowns p_1..p_n, the pinned equation p_k = q_k, and one
equation prod_t p_{j_t} = q_k per support monomial of w.  Additively this
is C*y = r for the integer matrix C of exponent counts, where r has one
column for the torsion (read modulo 1) and one per parameter; one integer
diagonalization of C solves all the columns together.  The solution set
comes back as a list of at most one parametric family, empty when the
system is inconsistent: a particular solution, free multiplicative
directions carrying fresh symbols, and a finite set of torsion cosets that
are distinct by construction.  One Smith form of a family's directions
decides every membership question about it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import prod

from .dsl import print_poly
from .freealg import AlgebraError, FreeElement, matmul
from .linalg import diagonalize_integer_matrix
from .scalars import UnitScalar, unit_from_scalar
from .superpotential import (
    DiagonalMap,
    NotEigenvectorError,
    Superpotential,
    coefficient_matrix,
    eigen_scale,
)

COSET_CAP = 729


class SolveError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSystem:
    """Multiplicative equations prod_i p_i^{c_ei} = rhs_e."""

    nparams: int
    params: tuple
    n: int
    k: int  # omitted index, 0-based
    rows: tuple  # of (counts tuple[int], rhs UnitScalar)
    labels: tuple  # row provenance, parallel to rows

    def check_member(self, units) -> bool:
        for counts, rhs in self.rows:
            acc = UnitScalar.one(self.nparams)
            for i, c in enumerate(counts):
                if c:
                    acc = acc * units[i].pow(c)
            if acc != rhs:
                return False
        return True


def _unit_twist_scales(sp: Superpotential) -> list[UnitScalar]:
    ctx = sp.ctx
    if ctx.mode == "unit":
        return list(sp.twist.scales)
    out = []
    for i, s in enumerate(sp.twist.scales):
        u = unit_from_scalar(s, 0)
        if u is None:
            raise SolveError(
                f"twist entry q_{i + 1} = {s} is not a root of unity; "
                "solve on the parametric form of the algebra instead"
            )
        out.append(u)
    return out


def _system(sp: Superpotential, k: int, monomials) -> ConstraintSystem:
    """The row p_k = q_k, then one row prod p^counts = q_k per distinct
    exponent vector of the (counts, label) pairs, under its first label."""
    n = sp.n
    if not 0 <= k < n:
        raise SolveError(f"omitted index {k + 1} out of range 1..{n}")
    q = _unit_twist_scales(sp)
    labels = {tuple(int(i == k) for i in range(n)): f"p_{k + 1} = q_{k + 1}"}
    for counts, label in monomials:
        labels.setdefault(counts, label)
    return ConstraintSystem(
        nparams=len(q[k].exps),
        params=sp.ctx.params,
        n=n,
        k=k,
        rows=tuple((counts, q[k]) for counts in labels),
        labels=tuple(labels.values()),
    )


def _counts(n: int, word) -> tuple:
    return tuple(word.count(a) for a in range(n))


def goodness_system(sp: Superpotential, k: int) -> ConstraintSystem:
    """One equation per support monomial of w, plus p_k = q_k."""
    gens = sp.ctx.gens
    monomials = [
        (_counts(sp.n, u), "monomial " + "*".join(gens[a] for a in u)) for u in sp.w.support()
    ]
    return _system(sp, k, monomials)


def matrix_goodness_system(sp: Superpotential, k: int) -> ConstraintSystem:
    """The same conditions read off the coefficient matrix entries.

    For every i, j and every word u in the support of M_ij, require
    p_i p_j prod(u) = q_k.  Used as the cross-check against
    goodness_system; the two must have identical deduplicated rows.
    """
    n = sp.n
    m = coefficient_matrix(sp.w)
    entries = [
        (_counts(n, (i, j, *u)), f"entry M[{i + 1}][{j + 1}]")
        for i in range(n)
        for j in range(n)
        for u in m[i][j].support()
    ]
    return _system(sp, k, sorted(entries))


@dataclass
class SolutionFamily:
    """particular * prod_d symbol_d^{direction_d} * (torsion coset)."""

    params: tuple  # underlying formal parameters
    n: int
    k: int  # omitted index, 0-based
    particular: tuple  # of UnitScalar over params
    directions: tuple  # of (symbol, tuple[int])
    cosets: tuple  # of tuple[Fraction] length n (first is all-zero)
    w_hash: str = ""

    @property
    def symbols(self) -> tuple:
        return tuple(sym for sym, _ in self.directions)

    def member_units(self, coset_index: int = 0) -> list[UnitScalar]:
        """Tuple entries over the extended parameter list params+symbols."""
        out = []
        for i in range(self.n):
            exps = list(self.particular[i].exps) + [
                Fraction(vec[i]) for _, vec in self.directions
            ]
            tor = self.particular[i].tor + self.cosets[coset_index][i]
            out.append(UnitScalar(tor, exps))
        return out

    def entry_texts(self, coset_index: int = 0, conductor: int = 1) -> list[str]:
        names = tuple(self.params) + self.symbols
        return [u.text(names, conductor) for u in self.member_units(coset_index)]

    @cached_property
    def _smith(self) -> tuple:
        """(U, rank) with U*D*V diagonal, for D the n x r matrix whose
        columns are the directions."""
        s, u, _v = diagonalize_integer_matrix(
            [[vec[i] for _, vec in self.directions] for i in range(self.n)]
        )
        return u, sum(1 for i in range(min(self.n, len(self.directions))) if s[i][i])

    def _span_residues(self, x) -> list:
        """(U x)_i for i >= rank.  U is unimodular, so these are all zero
        exactly when x is a rational combination of the directions, and all
        integers exactly when x is one plus an integer vector."""
        u, rank = self._smith
        return [sum(c * xj for c, xj in zip(u[i], x)) for i in range(rank, self.n)]

    def contains(self, target) -> bool:
        """Is the concrete tuple (UnitScalars over params) in the family?"""
        if len(target) != self.n:
            return False
        pairs = list(zip(target, self.particular))
        for j in range(len(self.params)):
            if any(self._span_residues([t.exps[j] - p.exps[j] for t, p in pairs])):
                return False
        tor = [t.tor - p.tor for t, p in pairs]
        return any(
            all(r.denominator == 1 for r in self._span_residues([d - c for d, c in zip(tor, coset)]))
            for coset in self.cosets
        )

    def contains_family(self, other: "SolutionFamily") -> bool:
        """Does this family contain every member of the other one?"""
        if other.params != self.params or other.n != self.n:
            return False
        if any(any(self._span_residues(vec)) for _, vec in other.directions):
            return False
        return all(
            self.contains([UnitScalar(p.tor + c, p.exps) for p, c in zip(other.particular, coset)])
            for coset in other.cosets
        )

    def to_json(self, conductor: int = 1) -> dict:
        return {
            "params": list(self.params),
            "particular": self.entry_texts(0, conductor),
            "free_directions": [
                {"symbol": sym, "exponents": list(vec)} for sym, vec in self.directions
            ],
            "torsion_cosets": [[str(x) for x in coset] for coset in self.cosets],
            "members": [self.entry_texts(ci, conductor) for ci in range(len(self.cosets))],
            "provenance": {"w_hash": self.w_hash, "k": self.k + 1},
        }


def w_hash(w: FreeElement) -> str:
    return hashlib.sha256(print_poly(w).encode()).hexdigest()[:16]


def solve_units(sys: ConstraintSystem, w_digest: str = "") -> list[SolutionFamily]:
    """Complete solution set of the system: a list of one family, or the
    empty list when the system is inconsistent.

    Additively the system is C*y = r, with C the rows' counts and one
    column of r per component of the right-hand sides: column 0 the
    torsion, read modulo 1, and column 1 + j the exponent of parameter j.
    With U*C*V = S diagonal, every column is solved at once: a row i whose
    s_i is 0 is consistent when (U*r)_i is an integer in column 0 and 0 in
    the others, x_i = (U*r)_i / s_i otherwise, and y = V*x.  The free
    directions are the columns of V at the zero s_i, and the torsion cosets
    are V*x for x_i = j/s_i, 0 <= j < s_i."""
    n, m = sys.n, len(sys.rows)
    s, u, v = diagonalize_integer_matrix([list(counts) for counts, _ in sys.rows])
    ur = matmul(u, [[rhs.tor, *rhs.exps] for _, rhs in sys.rows])
    diag = [s[i][i] if i < min(m, n) else 0 for i in range(max(m, n))]
    if any(not si and (ri[0] % 1 or any(ri[1:])) for si, ri in zip(diag, ur)):
        return []
    x = [[c / diag[i] for c in ur[i]] if diag[i] else [Fraction(0)] * len(ur[0]) for i in range(n)]
    particular = tuple(UnitScalar(yi[0], yi[1:]) for yi in matmul(v, x))
    coset_slots = [(i, si) for i, si in enumerate(diag[:n]) if si > 1]
    free_slots = [i for i, si in enumerate(diag[:n]) if not si]

    directions = []
    for d, slot in enumerate(free_slots):
        vec = [v[i][slot] for i in range(n)]
        lead = next((e for e in vec if e), 1)
        if lead < 0:
            vec = [-e for e in vec]
        directions.append((f"l{d + 1}", tuple(vec)))

    total = prod(mod for _, mod in coset_slots)
    if total > COSET_CAP:
        raise SolveError(f"torsion multiplicity {total} exceeds cap {COSET_CAP}")

    # The cosets are distinct modulo the directions plus Z^n.  If V*y and
    # V*y' were congruent, V*(y - y') = V*t + z with t on the free slots and
    # z integral; V is unimodular, so y - y' - t is integral, and on each
    # coset slot (j - j')/s is an integer, which forces j = j'.
    cosets = []
    for choice in itertools.product(*[range(mod) for _, mod in coset_slots]):
        x = [[Fraction(0)] for _ in range(n)]
        for (slot, mod), j in zip(coset_slots, choice):
            x[slot] = [Fraction(j, mod)]
        cosets.append(tuple(yi % 1 for (yi,) in matmul(v, x)))
    family = SolutionFamily(
        params=sys.params,
        n=n,
        k=sys.k,
        particular=particular,
        directions=tuple(directions),
        cosets=tuple(cosets),
        w_hash=w_digest,
    )
    _validate_family(sys, family)
    return [family]


def _validate_family(sys: ConstraintSystem, fam: SolutionFamily) -> None:
    if not sys.check_member(list(fam.particular)):
        raise AssertionError("solver defect: particular solution fails the system")
    for _, vec in fam.directions:
        for counts, _ in sys.rows:
            if sum(counts[i] * vec[i] for i in range(sys.n)) != 0:
                raise AssertionError("solver defect: free direction fails the system")
    for coset in fam.cosets:
        for counts, _ in sys.rows:
            if sum(Fraction(counts[i]) * coset[i] for i in range(sys.n)) % 1 != 0:
                raise AssertionError("solver defect: torsion coset fails the system")


@dataclass(frozen=True)
class GoodnessResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_good(sp: Superpotential, k: int, p) -> GoodnessResult:
    """Monomial-product criterion with a failing-monomial witness."""
    if len(p) != sp.n:
        raise AlgebraError("tuple length must match generator count")
    qk = sp.twist.scales[k]
    if p[k] != qk:
        raise AlgebraError(f"p_{k + 1} must equal q_{k + 1} (got {p[k]}, need {qk})")
    phi = DiagonalMap(sp.ctx, p)
    try:
        value = eigen_scale(phi, sp.w)
    except NotEigenvectorError as e:
        return GoodnessResult(
            False,
            witness=e.witnesses[1],
            detail="monomials scale inconsistently: "
            + " vs ".join("*".join(sp.ctx.gens[a] for a in wd) for wd in e.witnesses),
        )
    if value == qk:
        return GoodnessResult(True)
    wd = sp.w.support()[0]
    return GoodnessResult(
        False,
        witness=wd,
        detail=f"monomial product is {value}, expected q_{k + 1} = {qk}",
    )
