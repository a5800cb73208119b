"""Exact scalars: cyclotomic field elements and multiplicative units.

Two coefficient domains coexist:

* ``Scalar`` -- an element of Q(zeta_N), stored as integer coefficients
  over the power basis 1, z, ..., z^(d-1) (d = deg Phi_N) and one positive
  common denominator, in lowest terms.  All linear algebra in the package
  runs over these.  Sums, differences, products and the elimination step
  ``sc_fms`` (a - c*b) work on Python integers only: a product is a
  convolution reduced mod Phi_N through a table of z^k mod Phi_N, which
  has integer entries because Phi_N is monic.  No Fraction is built on
  these paths.  For ``a*b`` and ``sc_fms`` that whole computation is a
  fixed formula in the d numerators, so ``_kernel_source`` writes it out
  as straight-line Python with the table's integers inlined, and
  ``_compile_kernels`` compiles it once per conductor; ``fms_kernel``
  hands a reduction loop the one ``fms`` of its conductor.  When d >= 2
  and both factors, and the ``a`` of an ``sc_fms`` if given, are rational
  (every numerator after the first is 0), a branch at the top of each
  kernel multiplies the first numerators only and returns the same
  canonical Scalar as the full convolution would; 16 of the 19 corpus
  instances have only such coefficients in D.
  The inverse of a rational is read off; any other inverse multiplies
  through the same kernels over denominator 1: the product of the Galois
  conjugates of a numerator is its cofactor against the norm, an integer.
* ``UnitScalar`` -- an element of the divisible abelian group
  (Q/Z) + Q^k, written multiplicatively as e^(2*pi*i*r) * prod params^a_j.
  The good-tuple equations are purely multiplicative, so this group is
  enough to solve them symbolically.

``Assignment`` bridges the two: it sends parameters (and designated
fractional roots of them) to field values, giving a group homomorphism
from the units it is defined on into Q(zeta_N)*.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Conductor ceiling for promotions and exponent-denominator ceiling for
# units.  Both are soft limits: breaching them raises instead of degrading.
MAX_CONDUCTOR = 120
MAX_EXP_DENOM = 12


class ScalarError(ArithmeticError):
    pass


class ConductorLimitError(ScalarError):
    pass


class UnitExponentError(ScalarError):
    pass


class SpecializeError(ScalarError):
    pass


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, remainder 0)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
    result = tuple(poly)
    _CYCLO_CACHE[n] = result
    return result


def _degree(n: int) -> int:
    """d = deg Phi_n, the length of every coefficient vector at conductor n.

    ``Scalar.__init__``, ``promote`` and ``_kernel_source`` all ask for it,
    so it holds the conductor ceiling.
    """
    if n > MAX_CONDUCTOR:
        raise ConductorLimitError(f"conductor {n} exceeds limit {MAX_CONDUCTOR}")
    return len(cyclotomic_poly(n)) - 1


_FOLD_CACHE: dict[int, list[tuple[tuple[int, int], ...]]] = {}


def _fold_table(n: int, upto: int) -> list[tuple[tuple[int, int], ...]]:
    """z^k mod Phi_n for k in 0..upto-1, as sparse (index, coefficient) pairs.

    Phi_n is monic, so every z^k reduces to a vector of integers.
    """
    rows = _FOLD_CACHE.setdefault(n, [])
    if len(rows) >= upto:
        return rows
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    while len(rows) < upto:
        k = len(rows)
        vec = [0] * d
        if k < d:
            vec[k] = 1
        else:
            # z^k = z * z^(k-1), folding z^d = -(phi_0 + ... + phi_{d-1} z^{d-1}).
            prev = [0] * d
            for j, t in rows[k - 1]:
                prev[j] = t
            top = prev[d - 1]
            vec[1:] = prev[: d - 1]
            if top:
                for j in range(d):
                    vec[j] -= top * phi[j]
        rows.append(tuple((j, t) for j, t in enumerate(vec) if t))
    return rows


def _fold(n: int, vec: list[int], d: int) -> list[int]:
    """Integer coefficients of sum_k vec[k] z^k mod Phi_n, padded to length d."""
    if len(vec) <= d:
        return vec + [0] * (d - len(vec))
    table = _fold_table(n, len(vec))
    out = vec[:d]
    for k, v in enumerate(vec[d:], d):
        if v:
            for j, t in table[k]:
                out[j] += v * t
    return out


def _difference(xn, xd: int, yn, yd: int) -> tuple[list[int], int]:
    """Numerators and denominator of xn/xd - yn/yd over lcm(xd, yd)."""
    if xd == yd:
        return [x - y for x, y in zip(xn, yn)], xd
    g = gcd(xd, yd)
    fx, fy = yd // g, xd // g
    return [x * fx - y * fy for x, y in zip(xn, yn)], xd * fx


def _lowest(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """num/den (den > 0) in lowest terms: gcd(den, *num) == 1."""
    g = gcd(den, *num)
    if g != 1:
        return tuple([v // g for v in num]), den // g
    return tuple(num), den


def _make(n: int, num: list[int], den: int) -> "Scalar":
    """A Scalar from numerators reduced mod Phi_n over den > 0."""
    s = Scalar.__new__(Scalar)
    s.n = n
    s.num, s.den = _lowest(num, den)
    return s


def _norm_inverse(a: "Scalar") -> "Scalar":
    """a^(-1) through the norm, for a != 0: with a = num/den and
    c = prod_{sigma != 1} sigma(num) over the Galois automorphisms
    sigma_k: z -> z^k (k coprime to N), num * c = N(num) is a nonzero
    integer, so a^(-1) = den * c / N(num).  The products are Scalars over
    denominator 1, which ``_make`` leaves as they are: gcd(1, ...) = 1."""
    n, num = a.n, a.num
    cofactor = Scalar.one(n)
    for k in range(2, n):
        if gcd(k, n) == 1:
            spread = [0] * n
            for i, v in enumerate(num):
                spread[i * k % n] += v
            cofactor = cofactor * _make(n, _fold(n, spread, len(num)), 1)
    norm = (_make(n, num, 1) * cofactor).num[0]
    sign = 1 if norm > 0 else -1
    return _make(n, [sign * a.den * v for v in cofactor.num], sign * norm)


class Scalar:
    """Element of Q(zeta_N) in canonical form.

    ``num`` holds d = deg Phi_N integer coefficients over the power basis
    1, z, ..., z^(d-1), all over the one denominator ``den``.  The form is
    canonical: den > 0 and gcd(den, *num) == 1, so zero is (0, ..., 0)/1
    and two scalars of one conductor are equal exactly when their parts
    are.  ``c`` is the same vector as rationals, for printing.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs) -> None:
        fr = [Fraction(v) for v in coeffs]
        den = lcm(*(f.denominator for f in fr))
        num = _fold(n, [f.numerator * (den // f.denominator) for f in fr], _degree(n))
        self.n = n
        self.num, self.den = _lowest(num, den)

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficients over 1, z, ..., z^(d-1) as Fractions (read-only)."""
        den = self.den
        return tuple([Fraction(v, den) for v in self.num])

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(v, n: int = 1) -> "Scalar":
        return Scalar(n, [Fraction(v)])

    @staticmethod
    def zero(n: int = 1) -> "Scalar":
        return Scalar(n, [])

    @staticmethod
    def one(n: int = 1) -> "Scalar":
        return Scalar(n, [1])

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Scalar":
        """zeta_n^k."""
        k %= n
        return Scalar(n, [0] * k + [1])

    # -- conductor handling -------------------------------------------

    def promote(self, n: int) -> "Scalar":
        if n == self.n:
            return self
        if n % self.n != 0:
            raise ScalarError(f"cannot embed conductor {self.n} into {n}")
        step = n // self.n
        vec = [0] * ((len(self.num) - 1) * step + 1)
        vec[::step] = self.num
        return _make(n, _fold(n, vec, _degree(n)), self.den)

    @staticmethod
    def common(a: "Scalar", b: "Scalar") -> tuple["Scalar", "Scalar"]:
        if a.n == b.n:
            return a, b
        m = a.n * b.n // gcd(a.n, b.n)
        return a.promote(m), b.promote(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b = Scalar.common(self, other)
        return _make(a.n, *_difference(a.num, a.den, [-v for v in b.num], b.den))

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b = Scalar.common(self, other)
        return _make(a.n, *_difference(a.num, a.den, b.num, b.den))

    def __neg__(self) -> "Scalar":
        """Negating the numerators keeps the form canonical: no gcd."""
        s = Scalar.__new__(Scalar)
        s.n, s.num, s.den = self.n, tuple([-v for v in self.num]), self.den
        return s

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = Scalar.common(self, other)
        return (_KERNELS.get(a.n) or _compile_kernels(a.n))[0](a, b)

    def inv(self) -> "Scalar":
        """Multiplicative inverse.  A rational num_0/den inverts to
        den/num_0, its sign moved to the numerator; any other scalar goes
        through ``_norm_inverse``.  Both results are canonical, so they agree."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        num = self.num
        if not any(num[1:]):
            sign = 1 if num[0] > 0 else -1
            return _make(self.n, [sign * self.den] + [0] * (len(num) - 1), sign * num[0])
        return _norm_inverse(self)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = Scalar.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = Scalar.common(self, other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # promotion-dependent representation; compare, don't hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- text ------------------------------------------------------------

    def term_texts(self, allow_z: bool = True) -> list[str]:
        """One text per nonzero term v*z^k, from k = 0 up: ``v``, ``z^k``,
        ``-z^k`` or ``v*z^k``, the root spelled ``e(k/N)`` unless allow_z."""
        out = []
        for k, v in enumerate(self.c):
            if not v:
                continue
            if k == 0:
                out.append(str(v))
                continue
            z = root_text(Fraction(k, self.n), self.n if allow_z else None)
            out.append(z if v == 1 else f"-{z}" if v == -1 else f"{v}*{z}")
        return out

    def __str__(self) -> str:
        return signed_sum(self.term_texts())

    def __repr__(self) -> str:
        return f"Scalar(N={self.n}, {self})"


def _kernel_source(n: int) -> str:
    """Python source of ``mul(a, b)`` and ``fms(a, c, b)`` at conductor n.

    Both are straight-line code in the d = deg Phi_n numerators: the d*d
    products summed into the 2d-1 convolution terms p_k, the fold
    q_j = p_j + sum_{k >= d} t_kj * p_k with the integer entries t_kj of
    z^k mod Phi_n written in as constants, the common denominator and one
    gcd.  The source is built from index names and those integers only.

    For d >= 2 each kernel opens with a rational branch, taken when both
    factors have every numerator after the first equal to 0: their product
    is then (x0*y0, 0, ..., 0) over the product of the denominators.
    ``mul``, and ``fms`` with ``a`` None or rational, finish on the first
    numerator alone (one product, one subtraction, ``gcd(den, q0)``), and
    return the same canonical Scalar as the general path.  That path
    follows the branch unchanged and runs whenever a factor, or the ``a``
    of an ``fms``, has another nonzero numerator.  16 of the 19
    corpus instances (all those at N = 12, and sklyanin's p = (1,1,1))
    have only rational coefficients in D, so their eliminations take it.
    """
    d = _degree(n)
    table = _fold_table(n, 2 * d - 1)
    idx = range(d)

    def names(pattern: str, js=idx) -> str:
        """pattern.format(j) for every j in js, comma-separated; the trailing
        comma at d = 1 keeps the list a tuple."""
        return ", ".join(pattern.format(j) for j in js) + ("," if d == 1 else "")

    def indent(lines: list[str], depth: int = 1) -> list[str]:
        return ["    " * depth + line for line in lines]

    def others(*xs: str) -> str:
        """A test, as source, that is false exactly when every numerator
        after the first of each of xs is 0."""
        return " or ".join(f"{x}{i}" for x in xs for i in range(1, d))

    def product(x: str, y: str) -> list[str]:
        lines = []
        for k in range(2 * d - 1):
            terms = [f"{x}{i}*{y}{k - i}" for i in range(max(0, k - d + 1), min(k, d - 1) + 1)]
            lines.append(f"p{k} = {' + '.join(terms)}")
        folds = {j: [] for j in idx}
        for k in range(d, 2 * d - 1):
            for j, t in table[k]:
                sign = "-" if t < 0 else "+"
                folds[j].append(f" {sign} {abs(t)}*p{k}" if abs(t) != 1 else f" {sign} p{k}")
        lines += [f"q{j} = p{j}{''.join(folds[j])}" for j in idx]
        return lines

    def nonzero(js) -> str:
        return " or ".join(f"q{j}" for j in js)

    def negate(js) -> list[str]:
        """q_j = -q_j, or return None when every q_j is 0."""
        return [f"if not ({nonzero(js)}):", "    return None", f"{names('q{}', js)} = {names('-q{}', js)}"]

    def subtract(js) -> list[str]:
        """q_j = a_j - q_j over the common denominator of e = a.den and
        den, or return None when every q_j is then 0."""
        return [
            "if e == den:",
            *(f"    q{j} = a{j} - q{j}" for j in js),
            "else:",
            "    g = gcd(e, den)",
            "    f = den // g",
            "    h = e // g",
            *(f"    q{j} = a{j}*f - q{j}*h" for j in js),
            "    den = e * f",
            f"if not ({nonzero(js)}):",
            "    return None",
        ]

    def lowest(js) -> list[str]:
        """Return the Scalar with numerators q_j (j in js, 0 elsewhere)
        over den, in lowest terms."""
        num = [f"q{j}" if j in js else "0" for j in idx]
        return [
            f"g = gcd(den, {names('q{}', js)})",
            "s = new(Scalar)",
            "s.n = n",
            "if g == 1:",
            f"    s.num = ({names('{}', num)})",
            "    s.den = den",
            "else:",
            f"    s.num = ({names('{}', [v if v == '0' else v + ' // g' for v in num])})",
            "    s.den = den // g",
            "return s",
        ]

    first = [0]
    mul = [f"{names('a{}')} = a.num", f"{names('b{}')} = b.num"]
    fms = [f"{names('c{}')} = c.num", f"{names('b{}')} = b.num"]
    if d > 1:
        mul += [f"if not ({others('a', 'b')}):", "    q0 = a0*b0", "    den = a.den * b.den", *indent(lowest(first))]
        rational = ["q0 = c0*b0", "den = c.den * b.den"]
        fms += [
            f"if not ({others('c', 'b')}):",
            "    if a is None:",
            *indent(rational + negate(first) + lowest(first), 2),
            f"    {names('a{}')} = a.num",
            f"    if not ({others('a')}):",
            *indent(rational + ["e = a.den"] + subtract(first) + lowest(first), 2),
        ]
    mul += [*product("a", "b"), "den = a.den * b.den", *lowest(idx)]
    fms += [
        *product("c", "b"),
        "den = c.den * b.den",
        "if a is None:",
        *indent(negate(idx)),
        "else:",
        f"    {names('a{}')} = a.num",
        "    e = a.den",
        *indent(subtract(idx)),
        *lowest(idx),
    ]
    body = "\n    ".join
    return f"def mul(a, b):\n    {body(mul)}\n\n\ndef fms(a, c, b):\n    {body(fms)}\n"


# conductor -> (mul, fms), compiled from _kernel_source on first use
_KERNELS: dict[int, tuple] = {}


def _compile_kernels(n: int) -> tuple:
    """Compile the (mul, fms) pair of conductor n and cache it in _KERNELS."""
    space = {"gcd": gcd, "new": object.__new__, "Scalar": Scalar, "n": n}
    exec(compile(_kernel_source(n), f"<scalar kernels, conductor {n}>", "exec"), space)
    kernels = _KERNELS[n] = (space["mul"], space["fms"])
    return kernels


def sc_fms(a: Scalar | None, c: Scalar, b: Scalar) -> Scalar | None:
    """a - c*b for a, c, b of one conductor; None encodes zero (hot path)."""
    return (_KERNELS.get(c.n) or _compile_kernels(c.n))[1](a, c, b)


def fms_kernel(n: int):
    """The compiled ``fms(a, c, b)`` of conductor n, which ``sc_fms``
    dispatches to: a loop whose operands all have conductor n fetches it
    once instead of once per term."""
    return (_KERNELS.get(n) or _compile_kernels(n))[1]


def root_order(n: int) -> int:
    """Order of the group of roots of unity inside Q(zeta_n)."""
    return n if n % 2 == 0 else 2 * n


def torsion_scalar(r: Fraction, n: int) -> Scalar:
    """e^(2*pi*i*r) as an element of Q(zeta_n); raises if it is not one."""
    r = Fraction(r) % 1
    m = root_order(n)
    if (r * m).denominator != 1:
        raise SpecializeError(
            f"torsion denominator {r.denominator} does not divide root order {m} of Q(zeta_{n})"
        )
    j = int(r * m) % m
    if n % 2 == 0:
        return Scalar.zeta(n, j)
    # m = 2n with n odd: e^(2*pi*i*j/2n) = +-zeta_n^(...)
    if j % 2 == 0:
        return Scalar.zeta(n, j // 2)
    return -Scalar.zeta(n, ((j + n) // 2) % n)


def root_text(r: Fraction, conductor: int | None = None) -> str:
    """e^(2*pi*i*r) as ``z^k`` when r*N = k is an integer for the given
    conductor N (zeta_N^k), as ``e(r)`` otherwise."""
    if conductor and (r * conductor).denominator == 1:
        k = int(r * conductor)
        return "z" if k == 1 else f"z^{k}"
    return f"e({r})"


def signed_sum(texts) -> str:
    """Term texts joined by " + ", a term's leading "-" becoming " - "; "0"
    for no terms."""
    if not texts:
        return "0"
    out = texts[0]
    for t in texts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def recognize_torsion(s: Scalar) -> Fraction | None:
    """Return r with s = e^(2*pi*i*r), or None if s is not a root of unity."""
    m = root_order(s.n)
    for j in range(m):
        if s == torsion_scalar(Fraction(j, m), s.n):
            return Fraction(j, m)
    return None


class UnitScalar:
    """e^(2*pi*i*tor) * prod_j param_j^exps[j]; always invertible."""

    __slots__ = ("tor", "exps")

    def __init__(self, tor, exps=()) -> None:
        tor = Fraction(tor) % 1
        exps = tuple(Fraction(e) for e in exps)
        for e in (tor, *exps):
            if e.denominator > MAX_EXP_DENOM:
                raise UnitExponentError(
                    f"exponent denominator {e.denominator} exceeds cap {MAX_EXP_DENOM}"
                )
        self.tor = tor
        self.exps = exps

    @staticmethod
    def one(k: int = 0) -> "UnitScalar":
        return UnitScalar(0, (0,) * k)

    @staticmethod
    def minus_one(k: int = 0) -> "UnitScalar":
        return UnitScalar(Fraction(1, 2), (0,) * k)

    @staticmethod
    def param(i: int, k: int) -> "UnitScalar":
        exps = [Fraction(0)] * k
        exps[i] = Fraction(1)
        return UnitScalar(0, exps)

    def _check(self, other: "UnitScalar") -> None:
        if len(self.exps) != len(other.exps):
            raise ScalarError("unit scalars over different parameter lists")

    def __mul__(self, other: "UnitScalar") -> "UnitScalar":
        self._check(other)
        return UnitScalar(self.tor + other.tor, [a + b for a, b in zip(self.exps, other.exps)])

    def inv(self) -> "UnitScalar":
        return UnitScalar(-self.tor, [-a for a in self.exps])

    def __truediv__(self, other: "UnitScalar") -> "UnitScalar":
        return self * other.inv()

    def __neg__(self) -> "UnitScalar":
        return UnitScalar(self.tor + Fraction(1, 2), self.exps)

    def pow(self, r) -> "UnitScalar":
        r = Fraction(r)
        return UnitScalar(self.tor * r, [a * r for a in self.exps])

    def __pow__(self, k: int) -> "UnitScalar":
        return self.pow(k)

    def is_one(self) -> bool:
        return self.tor == 0 and all(e == 0 for e in self.exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return self.tor == other.tor and self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.tor, self.exps))

    def text(self, params=(), conductor: int | None = None) -> str:
        """``-1``, ``e(1/8)*a^{-1/2}``, ...: the sign, the root of unity (see
        ``root_text``; ``z^k`` only when given the conductor) and params^exps."""
        sign = "-" if self.tor == Fraction(1, 2) else ""
        factors = [root_text(self.tor, conductor)] if self.tor and not sign else []
        for name, e in zip(params, self.exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{{{e}}}")
        return sign + ("*".join(factors) or "1")

    def __str__(self) -> str:
        return self.text([f"t{i+1}" for i in range(len(self.exps))])

    def __repr__(self) -> str:
        return f"UnitScalar({self})"


class Assignment:
    """Map from formal parameters to nonzero field values.

    Fractional exponents specialize through explicitly designated roots:
    ``roots[(name, q)]`` is the chosen q-th root of ``values[name]``.  The
    designation set is validated for coherence (root_{q'}^{q'/q} = root_q
    whenever q | q'), which makes specialization a group homomorphism on
    everything it is defined on.
    """

    def __init__(self, params, values: dict, roots: dict | None = None, conductor: int = 1):
        self.params = tuple(params)
        self.conductor = conductor
        self.values: dict[str, Scalar] = {}
        for name, v in values.items():
            if name not in self.params:
                raise SpecializeError(f"assignment for undeclared parameter {name!r}")
            s = v if isinstance(v, Scalar) else Scalar.from_rational(v, conductor)
            s = s.promote(conductor) if s.n != conductor and conductor % s.n == 0 else s
            if s.is_zero():
                raise SpecializeError(f"parameter {name!r} assigned zero")
            self.values[name] = s
        self.roots: dict[tuple[str, int], Scalar] = {}
        if roots:
            for (name, q), r in roots.items():
                s = r if isinstance(r, Scalar) else Scalar.from_rational(r, conductor)
                self.roots[(name, int(q))] = s
        self._validate_roots()

    def _validate_roots(self) -> None:
        for (name, q), r in self.roots.items():
            if name not in self.values:
                raise SpecializeError(f"root designated for unassigned parameter {name!r}")
            if r**q != self.values[name]:
                raise SpecializeError(f"designated root for {name!r}^(1/{q}) fails root^{q} = value")
        by_name: dict[str, list[int]] = {}
        for name, q in self.roots:
            by_name.setdefault(name, []).append(q)
        for name, qs in by_name.items():
            for q in qs:
                for q2 in qs:
                    if q2 % q == 0 and q2 != q:
                        if self.roots[(name, q2)] ** (q2 // q) != self.roots[(name, q)]:
                            raise SpecializeError(
                                f"incoherent root designations for {name!r} (1/{q} vs 1/{q2})"
                            )

    def _power(self, name: str, e: Fraction) -> Scalar:
        if name not in self.values:
            raise SpecializeError(f"unassigned parameter {name!r}")
        if e.denominator == 1:
            return self.values[name] ** e.numerator
        q = e.denominator
        candidates = sorted(q2 for (nm, q2) in self.roots if nm == name and q2 % q == 0)
        if not candidates:
            raise SpecializeError(
                f"exponent {e} of {name!r} not realizable: no designated 1/{q} root"
            )
        q2 = candidates[0]
        return self.roots[(name, q2)] ** int(e * q2)

    def specialize(self, u: UnitScalar) -> Scalar:
        """Field value of u; raises when a factor is not realizable."""
        if len(u.exps) != len(self.params):
            raise SpecializeError("unit scalar and assignment parameter lists differ")
        out = torsion_scalar(u.tor, self.conductor)
        for name, e in zip(self.params, u.exps):
            if e:
                out = out * self._power(name, e).promote(self.conductor)
        return out


def unit_from_scalar(s: Scalar, nparams: int = 0) -> UnitScalar | None:
    """Recognize a field scalar as a parameter-free unit (root of unity)."""
    r = recognize_torsion(s)
    if r is None:
        return None
    return UnitScalar(r, (Fraction(0),) * nparams)
