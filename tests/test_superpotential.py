import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element
from normext.dsl import parse_poly, print_poly
from normext.freealg import Context, FreeElement, gens, matmul
from normext.linalg import RowReducer
from normext.scalars import Assignment, Scalar, UnitScalar
from normext.superpotential import (
    DiagonalMap,
    IntersectionError,
    NotEigenvectorError,
    Superpotential,
    TwistError,
    coefficient_matrix,
    cyclic_derivatives,
    eigen_scale,
    superpotential_from_relations,
)

CTX = Context(("x", "y", "z"), 1)
W_POLY = parse_poly("x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z", CTX)
UCTX = Context(("x", "y"), 12, ("alpha",))
W_S2 = parse_poly("x*x*y*y + alpha*x*y*y*x + alpha^{2}*y*y*x*x - alpha*y*x*x*y", UCTX)


def test_cyclic_derivatives_poly():
    f = cyclic_derivatives(W_POLY)
    assert f[0] == parse_poly("y*z - z*y", CTX)
    assert f[1] == parse_poly("z*x - x*z", CTX)
    assert f[2] == parse_poly("x*y - y*x", CTX)


def test_cyclic_derivatives_s2():
    f = cyclic_derivatives(W_S2)
    assert f[0] == parse_poly("x*y*y + alpha*y*y*x", UCTX)
    assert f[1] == parse_poly("alpha^{2}*y*x*x - alpha*x*x*y", UCTX)


def test_cyclic_derivatives_corner():
    c1 = Context(("x", "y"), 1)
    f = cyclic_derivatives(parse_poly("x*x*x", c1))
    assert f[0] == parse_poly("x*x", c1) and f[1].is_zero()


def test_twist_poly_identity():
    assert Superpotential(W_POLY).twist.is_identity()


def test_twist_s2():
    q = Superpotential(W_S2).twist
    assert q.scales[0] == UnitScalar(0, (Fraction(1),))  # alpha
    assert q.scales[1] == UnitScalar(Fraction(1, 2), (Fraction(-1),))  # -alpha^{-1}
    assert not q.is_identity()


def test_twist_error():
    with pytest.raises(TwistError):
        Superpotential(parse_poly("x*y", UCTX))


def _strip_oracle(w):
    """Brute-force stripping: collect c * mid into M[first][last]."""
    n = w.ctx.n
    m = [[FreeElement.zero(w.ctx) for _ in range(n)] for _ in range(n)]
    for word, c in w.terms.items():
        m[word[0]][word[-1]] = m[word[0]][word[-1]] + FreeElement.monomial(
            w.ctx, word[1:-1], c
        )
    return m


def test_coefficient_matrix_poly():
    m = coefficient_matrix(W_POLY)
    # w = x^t M x with M x = (yz-zy, zx-xz, xy-yx)
    assert m[0][0].is_zero()
    assert print_poly(m[0][1]) == "-z" and print_poly(m[0][2]) == "y"
    assert print_poly(m[1][0]) == "z" and print_poly(m[1][2]) == "-x"
    assert print_poly(m[2][0]) == "-y" and print_poly(m[2][1]) == "x"
    oracle = _strip_oracle(W_POLY)
    assert all(m[i][j] == oracle[i][j] for i in range(3) for j in range(3))


def test_coefficient_matrix_s2_by_oracle():
    m = coefficient_matrix(W_S2)
    oracle = _strip_oracle(W_S2)
    assert all(m[i][j] == oracle[i][j] for i in range(2) for j in range(2))
    assert m[0][0] == parse_poly("alpha*y*y", UCTX)
    assert m[0][1] == parse_poly("x*y", UCTX)
    assert m[1][0] == parse_poly("alpha^{2}*y*x", UCTX)
    assert m[1][1] == parse_poly("-alpha*x*x", UCTX)


def test_coefficient_matrix_single_generator():
    c1 = Context(("x",), 1)
    m = coefficient_matrix(parse_poly("x*x*x", c1))
    assert m[0][0] == parse_poly("x", c1)


def test_bundle_identities():
    sp = Superpotential(W_S2)
    xs = [FreeElement.gen(UCTX, i) for i in range(2)]
    lead = xs[0] * sp.f[0] + xs[1] * sp.f[1]
    trail = sp.f[0].scale(sp.twist.scales[0]) * xs[0] + sp.f[1].scale(sp.twist.scales[1]) * xs[1]
    assert lead == W_S2 and trail == W_S2


def test_recover_poly_superpotential():
    rels = cyclic_derivatives(W_POLY)
    w = superpotential_from_relations(rels)
    lead = max(W_POLY.terms, key=lambda t: (len(t), t))
    assert w == W_POLY.scale(W_POLY.terms[lead].inv())


def test_recover_s2_specialized():
    from normext.scalars import Assignment

    asg = Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): 2}, conductor=12)
    w4 = W_S2.specialize(asg)
    rels = cyclic_derivatives(w4)
    w = superpotential_from_relations(rels)
    lead = max(w4.terms, key=lambda t: (len(t), t))
    assert w == w4.scale(w4.terms[lead].inv())


def test_recover_failure_reports_dimension():
    c2 = Context(("x", "y"), 1)
    with pytest.raises(IntersectionError) as e:
        superpotential_from_relations([parse_poly("x*y", c2)])
    assert e.value.dim == 0


def test_recover_every_corpus_superpotential(corpus_entries):
    from conftest import field_w

    for entry in corpus_entries.values():
        w = field_w(entry)
        rec = superpotential_from_relations(cyclic_derivatives(w))
        lead = max(w.terms, key=lambda t: (len(t), t))
        assert rec == w.scale(w.terms[lead].inv()), entry.name


@st.composite
def relation_sets(draw):
    """Nonzero homogeneous relations of one degree: 2-3 letters, degree 2-3,
    1-3 relations of 1-3 terms over Q or Q(zeta_3)."""
    n = draw(st.sampled_from([2, 3]))
    deg = draw(st.sampled_from([2, 3]))
    conductor = draw(st.sampled_from([1, 3]))
    ctx = Context(("x", "y", "z")[:n], conductor)
    word = st.tuples(*[st.integers(0, n - 1)] * deg)
    small = st.integers(-2, 2)
    coeff = st.tuples(small, small).map(lambda c: Scalar(conductor, c)).filter(bool)
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        rel = FreeElement(ctx)
        words = draw(st.lists(word, min_size=1, max_size=3, unique=True))
        rel.terms = {w: draw(coeff) for w in words}
        rels.append(rel)
    return rels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relation_sets())
def test_recovered_dimension_is_the_grassmann_count(rels):
    """dim (V R) cap (R V) = rank(V R) + rank(R V) - rank(V R + R V)."""
    n = rels[0].ctx.n
    left = [{(i,) + u: c for u, c in r.terms.items()} for i in range(n) for r in rels]
    right = [{u + (i,): c for u, c in r.terms.items()} for i in range(n) for r in rels]
    want = RowReducer(left).rank + RowReducer(right).rank - RowReducer(left + right).rank
    try:
        w = superpotential_from_relations(rels)
    except IntersectionError as e:
        assert e.dim == want != 1
    else:
        assert want == 1
        assert RowReducer(left).contains(w.terms) and RowReducer(right).contains(w.terms)
        assert w.terms[max(w.terms)].is_one()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.fractions(-5, 5, max_denominator=4).filter(bool), min_size=3, max_size=3))
def test_skew_round_trip(corpus_entries, values):
    """skew.alg at random nonzero rational a, b, c: the potential recovered
    from its derivatives is w made monic at its deglex-largest word."""
    af = corpus_entries["skew"].algebra
    w = af.w.specialize(Assignment(af.params, dict(zip(af.params, values)), conductor=af.conductor))
    lead = max(w.terms, key=lambda t: (len(t), t))
    assert superpotential_from_relations(Superpotential(w).f) == w.scale(w.terms[lead].inv())


def test_eigen_scale_identity():
    assert eigen_scale(DiagonalMap.identity(UCTX), W_S2).is_one()


def test_eigen_scale_nakayama_fixes_w():
    nu_a = DiagonalMap(
        UCTX,
        (UnitScalar(0, (Fraction(-1),)), UnitScalar(Fraction(1, 2), (Fraction(1),))),
    )
    assert eigen_scale(nu_a, W_S2).is_one()


def test_eigen_scale_tau_value():
    # tau = (p_1^{-1}, p_2^{-1}) for p = (alpha, alpha^{-1/2}) gives alpha^{-1}
    tau = DiagonalMap(
        UCTX, (UnitScalar(0, (Fraction(-1),)), UnitScalar(0, (Fraction(1, 2),)))
    )
    assert eigen_scale(tau, W_S2) == UnitScalar(0, (Fraction(-1),))


def test_eigen_scale_failure_reports_both_monomials():
    c2 = Context(("x", "y"), 1)
    f = parse_poly("x*x + x*y", c2)
    sig = DiagonalMap(c2, (Scalar.from_rational(2), Scalar.one(1)))
    with pytest.raises(NotEigenvectorError) as e:
        eigen_scale(sig, f)
    assert len(e.value.witnesses) == 2 and e.value.values[0] != e.value.values[1]


def test_coefficient_matrix_verifies_mx_f_randomized():
    """On random homogeneous w, twisted or not, over Q and Q(zeta_3):
    M x = f, x^t M = g^t, x^t f = w and g^t x = w."""
    rng = random.Random(8)
    for conductor in (1, 3):
        ctx = Context(("x", "y", "z"), conductor)
        xrow = [gens(ctx)]
        xcol = [[x] for x in xrow[0]]
        for _ in range(20):
            w = random_element(rng, ctx, 3, 5)
            if w.is_zero():
                continue
            m = coefficient_matrix(w)
            f = cyclic_derivatives(w)
            g = [w.right_derivative(i) for i in range(3)]
            assert matmul(m, xcol) == [[fi] for fi in f]
            assert matmul(xrow, m) == [g]
            assert matmul(xrow, [[fi] for fi in f]) == [[w]]
            assert matmul([g], xcol) == [[w]]


def test_every_corpus_superpotential_has_g_equal_to_q_f(corpus_entries):
    """g_i = q_i f_i for every corpus w as written, in unit mode when it has
    parameters, and for each specialization a certificate instance uses."""
    from conftest import field_instances, field_w

    ws = []
    for entry in corpus_entries.values():
        ws.append(entry.algebra.w)
        ws += [field_w(entry, assign) for _, _, assign, _ in field_instances(entry)]
    assert {w.ctx.mode for w in ws} == {"field", "unit"}
    for w in ws:
        sp = Superpotential(w)
        assert sp.g == [fi.scale(q) for fi, q in zip(sp.f, sp.twist.scales)]
