import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scalar
from normext.scalars import (
    _KERNELS,
    Assignment,
    _kernel_source,
    _norm_inverse,
    Scalar,
    SpecializeError,
    UnitExponentError,
    UnitScalar,
    cyclotomic_poly,
    fms_kernel,
    recognize_torsion,
    sc_fms,
    torsion_scalar,
    unit_from_scalar,
)

CONDUCTORS = [1, 3, 4, 5, 6, 8, 12]


def test_zeta4_squared_is_minus_one():
    z4 = Scalar.zeta(4)
    assert z4 * z4 == Scalar.from_rational(-1, 4)


def test_cyclotomic_product_reduces():
    # (1+z3)(1+z3^2) = 1 + z3 + z3^2 + 1 = 1, using z3^2 = -1 - z3
    one = Scalar.one(3)
    z = Scalar.zeta(3)
    assert (one + z) * (one + z * z) == one


def test_rational_inverse():
    assert Scalar.from_rational(Fraction(2, 3)).inv() == Scalar.from_rational(Fraction(3, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(4).inv()


def test_conductor_promotion():
    assert Scalar.zeta(3).promote(12) == Scalar.zeta(12, 4)
    assert Scalar.zeta(3) == Scalar.zeta(12, 4)  # cross-conductor equality


def test_conductor_limit():
    from normext.scalars import ConductorLimitError

    with pytest.raises(ConductorLimitError):
        Scalar.zeta(7).promote(7 * 64)
    with pytest.raises(ConductorLimitError):
        Scalar.zeta(211)
    with pytest.raises(ConductorLimitError):
        Scalar(121, [1])


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        n = rng.choice(CONDUCTORS)
        a, b, c = (random_scalar(rng, n) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_canonical_idempotence():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice(CONDUCTORS)
        a = random_scalar(rng, n)
        again = Scalar(n, a.c)
        assert again.c == a.c and again == a


def test_unit_arithmetic():
    z3 = UnitScalar(Fraction(1, 3))
    z32 = UnitScalar(Fraction(2, 3))
    assert (z3 * z32).is_one()
    a = UnitScalar.param(0, 1)
    half = a.pow(Fraction(1, 2))
    assert half * half == a
    assert -a != a
    assert (-a) * (-a) == a * a


def test_unit_exponent_cap():
    with pytest.raises(UnitExponentError):
        UnitScalar(0, (Fraction(1, 13),))


def test_torsion_embedding():
    # zeta_3 into conductor 12 is zeta_12^4
    assert torsion_scalar(Fraction(1, 3), 12) == Scalar.zeta(12, 4)
    # odd conductor: -1 and -zeta_3 live in Q(zeta_3)
    assert torsion_scalar(Fraction(1, 2), 3) == Scalar.from_rational(-1, 3)
    assert recognize_torsion(-Scalar.zeta(3)) == Fraction(5, 6)
    assert recognize_torsion(Scalar.from_rational(2)) is None
    with pytest.raises(SpecializeError):
        torsion_scalar(Fraction(1, 5), 12)


def test_specialize_examples():
    asg = Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): 2}, conductor=12)
    # alpha^{-1/2} with the + root choice
    assert asg.specialize(UnitScalar(0, (Fraction(-1, 2),))) == Scalar.from_rational(
        Fraction(1, 2), 12
    )
    assert asg.specialize(UnitScalar(0, (Fraction(1),))) == Scalar.from_rational(4, 12)
    neg = Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): -2}, conductor=12)
    assert neg.specialize(UnitScalar(0, (Fraction(-1, 2),))) == Scalar.from_rational(
        Fraction(-1, 2), 12
    )


def test_specialize_rejects_unrealizable():
    asg = Assignment(("alpha",), {"alpha": 4}, conductor=12)
    with pytest.raises(SpecializeError):
        asg.specialize(UnitScalar(0, (Fraction(1, 2),)))
    with pytest.raises(SpecializeError):
        Assignment(("alpha",), {"alpha": 0}, conductor=12)
    with pytest.raises(SpecializeError):
        Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): 3}, conductor=12)


def test_specialize_homomorphism_randomized():
    rng = random.Random(99)
    asg = Assignment(
        ("alpha", "beta"),
        {"alpha": 4, "beta": Scalar.from_rational(Fraction(9, 4), 12)},
        {("alpha", 2): 2, ("beta", 2): Scalar.from_rational(Fraction(3, 2), 12)},
        conductor=12,
    )
    halves = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-3, 2)]
    tors = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(5, 6)]
    for _ in range(100):
        u = UnitScalar(rng.choice(tors), (rng.choice(halves), rng.choice(halves)))
        v = UnitScalar(rng.choice(tors), (rng.choice(halves), rng.choice(halves)))
        assert asg.specialize(u * v) == asg.specialize(u) * asg.specialize(v)


def test_unit_from_scalar():
    u = unit_from_scalar(Scalar.zeta(12, 3), 0)
    assert u == UnitScalar(Fraction(1, 4))
    assert unit_from_scalar(Scalar.from_rational(7), 0) is None


# -- the integer kernel against a Fraction reference ---------------------
#
# The reference keeps coefficient vectors as Fractions: products are a
# plain convolution, folded with z^k mod Phi_N computed over Q.

PROPERTY_CONDUCTORS = [1, 3, 4, 8, 12]
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def ref_fold(n, vec):
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    powers = []
    for k in range(max(len(vec), d)):
        if k < d:
            row = [Fraction(0)] * d
            row[k] = Fraction(1)
        else:
            prev = powers[k - 1]
            row = [Fraction(0)] + prev[: d - 1]
            row = [r - prev[d - 1] * phi[j] for j, r in enumerate(row)]
        powers.append(row)
    out = [Fraction(0)] * d
    for k, v in enumerate(vec):
        for j in range(d):
            out[j] += v * powers[k][j]
    return tuple(out)


def ref_mul(n, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_fold(n, conv)


def ref_str(c):
    terms = []
    for k, v in enumerate(c):
        if v:
            z = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if not z:
                terms.append(str(v))
            elif v in (1, -1):
                terms.append(("-" if v < 0 else "") + z)
            else:
                terms.append(f"{v}*{z}")
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def coefficient_vectors(draw, count, conductors=PROPERTY_CONDUCTORS):
    """(n, [vector, ...]): count reduced Fraction vectors at one conductor."""
    n = draw(st.sampled_from(conductors))
    d = len(cyclotomic_poly(n)) - 1
    sparse = st.one_of(st.just(Fraction(0)), fractions)
    vecs = [tuple(draw(st.lists(sparse, min_size=d, max_size=d))) for _ in range(count)]
    return n, vecs


def assert_canonical(s):
    d = len(cyclotomic_poly(s.n)) - 1
    assert len(s.num) == d and s.den > 0
    assert all(isinstance(v, int) for v in (*s.num, s.den))
    assert gcd(s.den, *s.num) == 1
    if s.is_zero():
        assert s.den == 1


@PROPERTY
@given(coefficient_vectors(3))
def test_kernel_ring_ops_match_reference(data):
    n, (ca, cb, cc) = data
    a, b, c = (Scalar(n, v) for v in (ca, cb, cc))
    assert (a.c, b.c) == (ca, cb)
    for got, want in (
        (a + b, tuple(x + y for x, y in zip(ca, cb))),
        (a - b, tuple(x - y for x, y in zip(ca, cb))),
        (a * b, ref_mul(n, ca, cb)),
        (-a, tuple(-x for x in ca)),
    ):
        assert_canonical(got)
        assert got.c == want
        assert got == Scalar(n, want)
    want = tuple(x - y for x, y in zip(ca, ref_mul(n, cc, cb)))
    got = sc_fms(a, c, b)
    if any(want):
        assert got is not None and got.c == want and got == a - c * b
        assert_canonical(got)
    else:
        assert got is None
    got = sc_fms(None, c, b)
    if c.is_zero() or b.is_zero():
        assert got is None
    else:
        assert got == -(c * b)
        assert got.c == tuple(-v for v in ref_mul(n, cc, cb))


@PROPERTY
# 5, 7, 15 and 24 add non-cyclic Galois groups and degrees up to 8
@given(coefficient_vectors(1, PROPERTY_CONDUCTORS + [5, 7, 15, 24]))
def test_kernel_inverse_and_text_match_reference(data):
    n, (ca,) = data
    a = Scalar(n, ca)
    assert_canonical(a)
    assert str(a) == ref_str(ca)
    if any(ca):
        inv = a.inv()
        assert_canonical(inv)
        assert (a * inv).is_one()
        assert ref_mul(n, ca, inv.c) == ref_fold(n, [Fraction(1)])
    else:
        assert a == Scalar.zero(n) and a.num == (0,) * len(ca) and a.den == 1


@PROPERTY
@given(st.sampled_from([1, 2, 3, 4, 5, 7, 12, 15, 24]), fractions.filter(bool))
def test_rational_inverse_equals_the_norm_path(n, q):
    """A rational skips the Galois norm; the canonical form makes the two
    results equal part by part."""
    a = Scalar(n, [q])
    inv = a.inv()
    assert_canonical(inv)
    want = _norm_inverse(a)
    assert (inv.n, inv.num, inv.den) == (want.n, want.num, want.den)
    assert inv.c == ref_fold(n, [1 / q])


@PROPERTY
@given(coefficient_vectors(1), st.sampled_from([3, 4, 8, 12, 24]))
def test_kernel_promote_matches_reference(data, m):
    n, (ca,) = data
    if m % n:
        m = 24
    step = m // n
    spread = [Fraction(0)] * ((len(ca) - 1) * step + 1)
    spread[::step] = ca
    got = Scalar(n, ca).promote(m)
    assert_canonical(got)
    assert got.n == m and got.c == ref_fold(m, spread)


@PROPERTY
@given(st.sampled_from(PROPERTY_CONDUCTORS), st.lists(fractions, max_size=30))
def test_kernel_folds_long_vectors(n, vec):
    s = Scalar(n, vec)
    assert_canonical(s)
    assert s.c == ref_fold(n, vec)


# -- the rational branch of the generated kernels -----------------------
#
# For d >= 2 both kernels open with a branch for rational operands (two
# factors, and the a of an fms when given).
# coefficient_vectors makes every numerator after the first zero only
# about once in 2^(d-1) draws per operand, so these draws make each
# operand rational or general on purpose, and a also None.


@st.composite
def mixed_operands(draw, conductors=PROPERTY_CONDUCTORS + [5, 7, 15, 24]):
    """(n, a, c, b) as Fraction vectors, each rational (zero after the
    first numerator) or general, independently; a may be None."""
    n = draw(st.sampled_from(conductors))
    d = len(cyclotomic_poly(n)) - 1
    sparse = st.one_of(st.just(Fraction(0)), fractions)

    def operand():
        width = d if draw(st.booleans()) else 1
        vec = draw(st.lists(sparse, min_size=width, max_size=width))
        return tuple(vec) + (Fraction(0),) * (d - width)

    a = operand() if draw(st.booleans()) else None
    return n, a, operand(), operand()


def assert_is_reference(got, n, want):
    """got is the canonical Scalar whose coefficients are want, part by part."""
    assert_canonical(got)
    ref = Scalar(n, want)
    assert (got.n, got.num, got.den) == (ref.n, ref.num, ref.den)
    assert got.c == want


@PROPERTY
@given(mixed_operands())
def test_kernels_on_rational_and_general_operands_match_reference(data):
    n, ca, cc, cb = data
    c, b = Scalar(n, cc), Scalar(n, cb)
    fms_kernel(n)
    mul = _KERNELS[n][0]
    prod = ref_mul(n, cc, cb)
    assert_is_reference(mul(c, b), n, prod)
    assert_is_reference(c * b, n, prod)
    a = None if ca is None else Scalar(n, ca)
    want = tuple(-v for v in prod) if ca is None else tuple(x - y for x, y in zip(ca, prod))
    got = sc_fms(a, c, b)
    if any(want):
        assert_is_reference(got, n, want)
    else:
        assert got is None
    # cancellation: a = c*b, and a = c*b + q, leaving only the rational q
    assert sc_fms(c * b, c, b) is None
    q = Fraction(7, 6)
    rest = sc_fms(c * b + Scalar(n, [q]), c, b)
    assert_is_reference(rest, n, ref_fold(n, [q]))


# -- the generated kernels against the reference product -----------------
#
# Every hypothesis test above already multiplies through the generated
# kernels at PROPERTY_CONDUCTORS.  These add conductors no workload
# declares: d = 1 (N = 1, 2) and the widest fields below MAX_CONDUCTOR,
# d = 48 (N = 105, whose Phi has a coefficient -2) and d = 112 (N = 113).
# A canonical result equal to ref_mul's value has its num and den fixed.


@pytest.mark.parametrize("n", [1, 2, 105, 113])
def test_generated_kernels_match_the_generic_path(n):
    rng = random.Random(n)
    d = len(cyclotomic_poly(n)) - 1

    def draw(width):  # every coefficient below width nonzero, so no product vanishes
        return Scalar(n, [Fraction(rng.randint(-40, 40) or 41, rng.randint(1, 12)) for _ in range(width)])

    # each of a, b, c rational (width 1) or general (width d), in every combination
    sizes = sorted({1, d})
    widths = [(wa, wb, wc) for wa in sizes for wb in sizes for wc in sizes]
    for wa, wb, wc in widths * (40 if d == 1 else 1):
        a, b, c = draw(wa), draw(wb), draw(wc)
        prod = b * c
        want = ref_mul(n, c.c, b.c)
        assert_canonical(prod)
        assert prod.c == want
        got = sc_fms(a, c, b)
        assert_canonical(got)
        assert got.c == tuple(x - y for x, y in zip(a.c, want))
        neg = sc_fms(None, c, b)
        assert_canonical(neg)
        assert neg.c == tuple(-v for v in want) and neg == -prod
        assert sc_fms(c * b, c, b) is None
        assert sc_fms(None, Scalar.zero(n), b) is None


def test_generated_source_spells_out_the_fold_of_phi_12():
    """Phi_12 = z^4 - z^2 + 1, so z^4 = z^2 - 1, z^5 = z^3 - z and z^6 = -1."""
    source = _kernel_source(12)
    print(source)
    for line in ("q0 = p0 - p4 - p6", "q1 = p1 - p5", "q2 = p2 + p4", "q3 = p3 + p5"):
        assert f"    {line}\n" in source
    assert "    p3 = a0*b3 + a1*b2 + a2*b1 + a3*b0\n" in source
    assert "    g = gcd(den, q0, q1, q2, q3)\n" in source
    # two rational factors: one product, gcd(den, q0), the zeros written in
    assert (
        "    if not (a1 or a2 or a3 or b1 or b2 or b3):\n"
        "        q0 = a0*b0\n"
        "        den = a.den * b.den\n"
        "        g = gcd(den, q0)\n"
        "        s = new(Scalar)\n"
        "        s.n = n\n"
        "        if g == 1:\n"
        "            s.num = (q0, 0, 0, 0)\n"
    ) in source
