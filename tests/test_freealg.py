import random
from fractions import Fraction

import pytest

from conftest import random_element
from normext.dsl import DslError, parse_poly, print_poly
from normext.freealg import (
    CoefficientModeError,
    Context,
    ContextMismatchError,
    FreeElement,
    HomogeneityError,
    gens,
    matmul,
)
from normext.scalars import Scalar, UnitScalar

CTX = Context(("x", "y", "z"), 1)
W_POLY_TEXT = "x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z"


def test_parse_commutator():
    f = parse_poly("x*y - y*x", CTX)
    assert f.terms == {
        (0, 1): Scalar.one(1),
        (1, 0): Scalar.from_rational(-1),
    }


def test_parse_antisymmetrizer():
    w = parse_poly(W_POLY_TEXT, CTX)
    assert len(w.terms) == 6
    assert w.coeff((0, 1, 2)).is_one()
    assert w.coeff((2, 1, 0)) == Scalar.from_rational(-1)


def test_parse_unit_mode_quartic():
    ctx = Context(("x", "y"), 12, ("a",))
    g = parse_poly("x*x*y*y + a*x*y*y*x", ctx)
    assert g.coeff((0, 1, 1, 0)) == UnitScalar(0, (Fraction(1),))


def test_parse_error_positions():
    with pytest.raises(DslError) as e:
        parse_poly("x*y + [", CTX)
    assert "line 1" in str(e.value)
    with pytest.raises(DslError):
        parse_poly("x*w", CTX)  # unknown generator


def test_unit_mode_rejects_nonunit_rational():
    ctx = Context(("x", "y"), 12, ("a",))
    with pytest.raises(DslError):
        parse_poly("2*x*y", ctx)


def test_mul_examples():
    x, y, z = gens(CTX)
    assert (x * y).terms == {(0, 1): Scalar.one(1)}
    lhs = (x + y) * (x - y)
    assert lhs == parse_poly("x*x - x*y + y*x - y*y", CTX)
    f = parse_poly("y*z - z*y", CTX)
    assert f * x == parse_poly("y*z*x - z*y*x", CTX)


def test_mul_context_mismatch():
    other = Context(("x", "y"), 1)
    with pytest.raises(ContextMismatchError):
        gens(CTX)[0] * gens(other)[0]


def test_left_derivative_examples():
    w = parse_poly(W_POLY_TEXT, CTX)
    assert w.left_derivative(0) == parse_poly("y*z - z*y", CTX)
    assert parse_poly("x*y", CTX).left_derivative(1).is_zero()
    assert parse_poly("x*x*y", CTX).left_derivative(0) == parse_poly("x*y", CTX)


def test_reconstruction_identity():
    rng = random.Random(4210)
    for _ in range(40):
        deg = rng.randint(1, 4)
        f = random_element(rng, CTX, deg, rng.randint(1, 6))
        if f.is_zero():
            continue
        acc = FreeElement.zero(CTX)
        for i in range(CTX.n):
            acc = acc + FreeElement.gen(CTX, i) * f.left_derivative(i)
        assert acc == f


def test_left_derivative_inverts_prefix():
    rng = random.Random(11)
    for _ in range(30):
        g = random_element(rng, CTX, rng.randint(0, 3), rng.randint(1, 5))
        i = rng.randrange(CTX.n)
        assert (FreeElement.gen(CTX, i) * g).left_derivative(i) == g


def test_mul_associative_randomized():
    rng = random.Random(5)
    for _ in range(25):
        a = random_element(rng, CTX, rng.randint(0, 2), 3)
        b = random_element(rng, CTX, rng.randint(0, 2), 3)
        c = random_element(rng, CTX, rng.randint(0, 2), 3)
        assert (a * b) * c == a * (b * c)


def test_matmul_sums_entrywise_and_associates():
    """An n x 2(n-1) times a 2(n-1) x n matrix, as the resolution's M_l M_r:
    each entry is the sum of its products, and (ab)c = a(bc)."""
    rng = random.Random(15)
    n = CTX.n

    def matrix(rows, cols):
        return [
            [random_element(rng, CTX, rng.randint(0, 2), rng.randint(0, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]

    for _ in range(5):
        a, b, c = matrix(n, 2 * (n - 1)), matrix(2 * (n - 1), n), matrix(n, 2)
        ab = matmul(a, b)
        assert len(ab) == n and all(len(row) == n for row in ab)
        for i in range(n):
            for j in range(n):
                want = FreeElement.zero(CTX)
                for t in range(2 * (n - 1)):
                    want = want + a[i][t] * b[t][j]
                assert ab[i][j] == want
        assert matmul(ab, c) == matmul(a, matmul(b, c))


def test_print_parse_roundtrip_randomized():
    rng = random.Random(31337)
    contexts = [
        CTX,
        Context(("x", "y"), 3),
        Context(("x", "y", "w"), 4),
        Context(("x", "y"), 12),
        # a generator named z: roots of unity print as e(k/N)
        Context(("x", "y", "z"), 12),
    ]
    for ctx in contexts:
        for _ in range(40):
            f = random_element(rng, ctx, rng.randint(0, 4), rng.randint(0, 6))
            f = f.scale(Scalar.from_rational(Fraction(rng.randint(1, 5), rng.randint(1, 6)), ctx.conductor))
            assert parse_poly(print_poly(f), ctx) == f
    for ctx, text in [
        (contexts[1], "(-3 + z)*x*x - (-1/2 - z)*y"),
        (contexts[3], "(-3 + z + 2*z^2)*x*x"),
        (contexts[4], "(-3 + e(1/12) + 2*e(1/6))*x*x"),
    ]:
        f = parse_poly(text, ctx)
        assert len(f.terms[(0, 0)].term_texts()) > 1
        assert parse_poly(print_poly(f), ctx) == f


def test_print_parse_roundtrip_unit_mode():
    ctx = Context(("x", "y"), 12, ("a", "b"))
    f = parse_poly("x*y - a^{-1/2}*y*x + e(1/3)*b*x*x", ctx)
    assert parse_poly(print_poly(f), ctx) == f


def test_homogeneity_guards():
    f = parse_poly("x + x*y", CTX)
    assert not f.is_homogeneous()
    with pytest.raises(HomogeneityError):
        _ = f.degree
    assert parse_poly("x*y - y*x", CTX).degree == 2


def test_unit_addition_only_cancels():
    ctx = Context(("x", "y"), 12, ("a",))
    f = parse_poly("a*x*y", ctx)
    g = parse_poly("-a*x*y", ctx)
    assert (f + g).is_zero()
    with pytest.raises(CoefficientModeError):
        f + f


def test_specialize_element():
    from normext.scalars import Assignment

    ctx = Context(("x", "y"), 12, ("a",))
    f = parse_poly("x*y + a*y*x", ctx)
    asg = Assignment(("a",), {"a": 4}, conductor=12)
    g = f.specialize(asg)
    assert g.ctx.mode == "field"
    assert g.coeff((1, 0)) == Scalar.from_rational(4, 12)
