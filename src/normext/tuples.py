"""Good-tuple constraint systems over the unit group and their solver.

A system has unknowns p_1..p_n, the pinned equation p_k = q_k, and one
equation prod_t p_{j_t} = q_k per support monomial of w.  Additively this
is an integer matrix acting on (Q/Z) + Q^params, solved exactly: the
rational part by Gaussian elimination, the torsion part modulo 1 through
an integer diagonalization.  Solutions come back as finitely many
parametric families: a particular solution, free multiplicative
directions carrying fresh symbols, and a finite set of torsion cosets.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dsl import print_poly
from .freealg import AlgebraError, FreeElement
from .linalg import RowReducer, diagonalize_integer_matrix
from .scalars import Scalar, UnitScalar, unit_from_scalar
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


def goodness_system(sp: Superpotential, k: int) -> ConstraintSystem:
    """One equation per support monomial of w, plus p_k = q_k."""
    n = sp.n
    if not 0 <= k < n:
        raise SolveError(f"omitted index {k + 1} out of range 1..{n}")
    q = _unit_twist_scales(sp)
    nparams = len(q[k].exps)
    rows = [(tuple(1 if i == k else 0 for i in range(n)), q[k])]
    labels = [f"p_{k + 1} = q_{k + 1}"]
    seen = {rows[0][0]}
    for word in sp.w.support():
        counts = [0] * n
        for a in word:
            counts[a] += 1
        counts = tuple(counts)
        if counts in seen:
            continue
        seen.add(counts)
        rows.append((counts, q[k]))
        labels.append("monomial " + "*".join(sp.ctx.gens[a] for a in word))
    return ConstraintSystem(
        nparams=nparams, params=sp.ctx.params, n=n, k=k, rows=tuple(rows), labels=tuple(labels)
    )


def matrix_goodness_system(sp: Superpotential, k: int) -> ConstraintSystem:
    """The same conditions read off the coefficient matrix entries.

    For every i, j and every word u in the support of M_ij, require
    p_i p_j prod(u) = q_k.  Used as the cross-check against
    goodness_system; the two must have identical deduplicated rows.
    """
    n = sp.n
    q = _unit_twist_scales(sp)
    nparams = len(q[k].exps)
    m = coefficient_matrix(sp.w)
    rows = [(tuple(1 if i == k else 0 for i in range(n)), q[k])]
    labels = [f"p_{k + 1} = q_{k + 1}"]
    seen = {rows[0][0]}
    entries = []
    for i in range(n):
        for j in range(n):
            for u in m[i][j].support():
                counts = [0] * n
                counts[i] += 1
                counts[j] += 1
                for a in u:
                    counts[a] += 1
                entries.append((tuple(counts), f"entry M[{i + 1}][{j + 1}]"))
    for counts, lab in sorted(entries):
        if counts in seen:
            continue
        seen.add(counts)
        rows.append((counts, q[k]))
        labels.append(lab)
    return ConstraintSystem(
        nparams=nparams, params=sp.ctx.params, n=n, k=k, rows=tuple(rows), labels=tuple(labels)
    )


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
        ext = len(self.params) + len(self.directions)
        out = []
        for i in range(self.n):
            exps = list(self.particular[i].exps) + [
                Fraction(vec[i]) for _, vec in self.directions
            ]
            tor = self.particular[i].tor + self.cosets[coset_index][i]
            out.append(UnitScalar(tor, exps[:ext]))
        return out

    def entry_texts(self, coset_index: int = 0, conductor: int = 1) -> list[str]:
        names = tuple(self.params) + self.symbols
        return [u.text(names, conductor) for u in self.member_units(coset_index)]

    def _torsion_reachable(self, delta) -> bool:
        """Is delta (mod 1) of the form sum_d t_d * v_d with rational t?"""
        if all(x % 1 == 0 for x in delta):
            return True
        if not self.directions:
            return False
        mat = [[vec[i] for _, vec in self.directions] for i in range(self.n)]
        s, u, _v = diagonalize_integer_matrix(mat)
        rank = sum(1 for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i])
        udelta = [
            sum(Fraction(u[i][j]) * delta[j] for j in range(self.n)) for i in range(self.n)
        ]
        return all(udelta[i] % 1 == 0 for i in range(rank, self.n))

    def contains(self, target) -> bool:
        """Is the concrete tuple (UnitScalars over params) in the family?"""
        if len(target) != self.n:
            return False
        nparams = len(self.params)
        dirs = [vec for _, vec in self.directions]
        # rational exponents per parameter
        for j in range(nparams):
            rhs = [target[i].exps[j] - self.particular[i].exps[j] for i in range(self.n)]
            if not _rational_span_contains(dirs, rhs):
                return False
        # torsion part, per coset
        for coset in self.cosets:
            delta = [
                (target[i].tor - self.particular[i].tor - coset[i]) % 1 for i in range(self.n)
            ]
            if self._torsion_reachable(delta):
                return True
        return False

    def contains_family(self, other: "SolutionFamily") -> bool:
        """Does this family contain every member of the other one?"""
        if other.params != self.params or other.n != self.n:
            return False
        self_dirs = [vec for _, vec in self.directions]
        for _, vec in other.directions:
            if not _rational_span_contains(self_dirs, vec):
                return False
        base = [UnitScalar(u.tor, u.exps[: len(self.params)]) for u in other.member_units(0)]
        return all(
            self.contains(
                [
                    UnitScalar(
                        (u.tor + other.cosets[ci][i]) - other.cosets[0][i], u.exps
                    )
                    for i, u in enumerate(base)
                ]
            )
            for ci in range(len(other.cosets))
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


def _rational_span_contains(vectors, target) -> bool:
    """Is the rational vector target a rational combination of vectors?"""

    def sparse(vec) -> dict:
        return {i: Scalar.from_rational(x) for i, x in enumerate(vec) if x}

    return RowReducer(map(sparse, vectors)).contains(sparse(target))


def w_hash(w: FreeElement) -> str:
    return hashlib.sha256(print_poly(w).encode()).hexdigest()[:16]


def solve_units(sys: ConstraintSystem, w_digest: str = "") -> list[SolutionFamily]:
    """Complete solution set of the system; empty list when inconsistent."""
    n = sys.n
    kp = sys.nparams
    c = [list(counts) for counts, _ in sys.rows]
    rho = [rhs.tor for _, rhs in sys.rows]
    b = [[rhs.exps[j] for j in range(kp)] for _, rhs in sys.rows]
    m = len(c)
    s, u, v = diagonalize_integer_matrix(c)

    def urow_dot(i, col):
        return sum(Fraction(u[i][j]) * col[j] for j in range(m))

    urho = [urow_dot(i, rho) for i in range(m)]
    ub = [[urow_dot(i, [b[e][j] for e in range(m)]) for j in range(kp)] for i in range(m)]

    y_base_tor = [Fraction(0)] * n
    y_param = [[Fraction(0)] * kp for _ in range(n)]
    coset_slots: list[tuple[int, int]] = []  # (slot, modulus)
    free_slots: list[int] = []
    for i in range(n):
        si = s[i][i] if i < m else 0
        if si:
            y_base_tor[i] = urho[i] / si
            for j in range(kp):
                y_param[i][j] = ub[i][j] / si
            if si > 1:
                coset_slots.append((i, si))
        else:
            free_slots.append(i)
            if i < m:
                if urho[i] % 1 != 0 or any(ub[i][j] for j in range(kp)):
                    return []
    for i in range(n, m):
        if urho[i] % 1 != 0 or any(ub[i][j] for j in range(kp)):
            return []

    def vmul_tor(y):
        return [sum(Fraction(v[i][j]) * y[j] for j in range(n)) % 1 for i in range(n)]

    base_tor = vmul_tor(y_base_tor)
    base_exps = [
        [sum(Fraction(v[i][j]) * y_param[j][jj] for j in range(n)) for jj in range(kp)]
        for i in range(n)
    ]
    particular = tuple(UnitScalar(base_tor[i], base_exps[i]) for i in range(n))

    directions = []
    for d, slot in enumerate(free_slots):
        vec = [v[i][slot] for i in range(n)]
        lead = next((x for x in vec if x), 1)
        if lead < 0:
            vec = [-x for x in vec]
        directions.append((f"l{d + 1}", tuple(vec)))

    total = 1
    for _, mod in coset_slots:
        total *= mod
    if total > COSET_CAP:
        raise SolveError(f"torsion multiplicity {total} exceeds cap {COSET_CAP}")

    family = SolutionFamily(
        params=sys.params,
        n=n,
        k=sys.k,
        particular=particular,
        directions=tuple(directions),
        cosets=(tuple([Fraction(0)] * n),),
        w_hash=w_digest,
    )
    cosets = [tuple([Fraction(0)] * n)]
    seen_cosets = [tuple([Fraction(0)] * n)]
    for choice in itertools.product(*[range(mod) for _, mod in coset_slots]):
        if not any(choice):
            continue
        y = [Fraction(0)] * n
        for (slot, mod), j in zip(coset_slots, choice):
            y[slot] = Fraction(j, mod)
        cvec = vmul_tor(y)
        if any(
            family._torsion_reachable([(cvec[i] - prev[i]) % 1 for i in range(n)])
            for prev in seen_cosets
        ):
            continue
        seen_cosets.append(cvec)
        cosets.append(tuple(cvec))
    family.cosets = tuple(cosets)

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
