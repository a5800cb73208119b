from fractions import Fraction

import pytest

from conftest import field_instances, field_w, parse_tuple
from normext.certify import build_extension
from normext.dsl import parse_poly, print_poly
from normext.family import (
    FamilyError,
    adapt_basis,
    fiber,
    flatness_probe,
    ideal_components_match,
    twisted_tuple,
    zhang_certificate,
    zhang_twist,
    zhang_twist_presentation,
)
from normext.freealg import Context, FreeElement
from normext.quotient import Presentation, hilbert_table
from normext.scalars import Scalar, UnitScalar
from normext.superpotential import DiagonalMap, Superpotential, eigen_scale

CTX = Context(("x", "y", "z"), 1)
W_POLY = parse_poly("x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z", CTX)
SP = Superpotential(W_POLY)
ONE = Scalar.one(1)
ZERO = Scalar.zero(1)
TWO = Scalar.from_rational(2)
THREE = Scalar.from_rational(3)


def test_coordinate_fiber_matches_extension():
    fb = fiber(SP, (ONE, ZERO, ZERO))
    spec = build_extension(SP, (ONE, ONE, ONE), 0)
    assert fb.pivot == 0 and fb.omega == spec.omega
    assert ideal_components_match(fb.presentation, spec.D, [2, 3])
    fb2 = fiber(SP, (ZERO, ONE, ZERO))
    spec2 = build_extension(SP, (ONE, ONE, ONE), 1)
    assert ideal_components_match(fb2.presentation, spec2.D, [2, 3])
    assert not ideal_components_match(fb.presentation, spec2.D, [2, 3])
    for k in range(SP.n):
        e_k = tuple(ONE if j == k else ZERO for j in range(SP.n))
        texts = build_extension(SP, (ONE,) * SP.n, k).D.texts
        assert fiber(SP, e_k).presentation.texts == texts


def test_fiber_scaling_invariance():
    fa = fiber(SP, (ONE, TWO, THREE))
    fb = fiber(SP, (TWO, Scalar.from_rational(4), Scalar.from_rational(6)))
    assert ideal_components_match(fa.presentation, fb.presentation, [2, 3])
    assert fa.presentation.texts == fb.presentation.texts


def pairs_and_commutators(sp, coords):
    """A reference D_c: all n(n-1)/2 relations c_i f_j - c_j f_i and all n^2
    commutators [x_i, f_j]."""
    xs = [FreeElement.gen(sp.ctx, i) for i in range(sp.n)]
    rels = [
        sp.f[j].scale(coords[i]) - sp.f[i].scale(coords[j])
        for i in range(sp.n)
        for j in range(i + 1, sp.n)
    ]
    rels += [x * f - f * x for x in xs for f in sp.f]
    return Presentation(sp.ctx, rels)


FIBER_POINTS = {
    "cubic_a": ("1,0", "0,1", "1,1", "1,-2", "0,3", "2,5"),
    "sklyanin": ("1,0,0", "0,1,0", "0,0,1", "1,1,1", "0,1,2", "0,z,1", "3,-1,z^2"),
    "w_poly": ("1,0,0", "0,1,0", "0,0,1", "1,2,3", "0,1,2", "0,0,5", "2,0,-1"),
}


@pytest.mark.parametrize("name", sorted(FIBER_POINTS))
def test_a_fiber_generates_the_reference_ideal(corpus_entries, name):
    """The 2(n-1) pivot relations generate the ideal of every pair relation
    and every commutator [x_i, f_j], at points with any pivot."""
    entry = corpus_entries[name]
    sp = Superpotential(field_w(entry))
    for text in FIBER_POINTS[name]:
        coords = parse_tuple(text, sp.ctx.conductor)
        fb = fiber(sp, coords)
        assert len(fb.presentation.relations) == 2 * (sp.n - 1), text
        ref = pairs_and_commutators(sp, coords)
        assert ideal_components_match(fb.presentation, ref, range(sp.m, sp.m + 4)), text
        bound = 2 * sp.m + 2
        assert hilbert_table(fb.presentation, bound, "gb").dims == hilbert_table(ref, bound, "gb").dims


def test_a_fiber_of_dependent_derivatives_is_refused():
    ctx = Context(("x", "y"), 1)
    sp = Superpotential(parse_poly("x*x*x", ctx))
    assert sp.twist.is_identity()  # only the dependent derivatives are wrong
    with pytest.raises(FamilyError, match="linearly dependent"):
        fiber(sp, (ONE, ONE))


def test_fiber_guards():
    with pytest.raises(FamilyError):
        fiber(SP, (ZERO, ZERO, ZERO))
    uc = Context(("x", "y"), 12, ("alpha",))
    w = parse_poly("x*x*y*y + alpha*x*y*y*x + alpha^{2}*y*y*x*x - alpha*y*x*x*y", uc)
    from normext.scalars import Assignment

    w4 = w.specialize(Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): 2}, 12))
    with pytest.raises(FamilyError):
        fiber(Superpotential(w4), (Scalar.one(12), Scalar.one(12)))  # twist not identity


def test_flatness_probe_poly():
    pts = [
        (ONE, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, ONE),
        (ONE, ONE, ONE),
        (ONE, TWO, THREE),
    ]
    rep = flatness_probe(SP, pts, 6)
    assert rep.passed
    assert all(dims == (1, 3, 7, 13, 22, 34, 50) for _lbl, dims in rep.rows)
    tsv = rep.to_tsv()
    assert tsv.strip().splitlines()[-1] == "pass\ttrue"


def test_flatness_probe_repeated_point_trivially_passes():
    rep = flatness_probe(SP, [(ONE, ONE, ONE), (ONE, ONE, ONE)], 4)
    assert rep.passed


def test_flatness_probe_needs_two_points():
    with pytest.raises(FamilyError):
        flatness_probe(SP, [(ONE, ZERO, ZERO)], 4)


def test_zhang_twist_examples():
    uctx = Context(("x", "y"), 1, ("s", "u"))
    sig = DiagonalMap(uctx, (UnitScalar.param(0, 2), UnitScalar.param(1, 2)))
    assert print_poly(zhang_twist(parse_poly("x*y", uctx), sig)) == "u*x*y"
    assert print_poly(zhang_twist(parse_poly("x*x*x", uctx), sig)) == "s^{3}*x*x*x"
    f = parse_poly("x*y - y*x", uctx)
    assert zhang_twist(f, DiagonalMap.identity(uctx)) == f


def test_zhang_twist_inverse_restores_spans():
    spec = build_extension(SP, (ONE, ONE, ONE), 0)
    sig = DiagonalMap(CTX, (TWO, ONE, THREE))
    there = zhang_twist_presentation(spec.D, sig)
    back = zhang_twist_presentation(there, sig.inverse())
    assert [print_poly(r) for r in back.relations] == [
        print_poly(r) for r in spec.D.relations
    ]


# two diagonal maps per corpus entry, each scaling w
W_SCALING_SIGMAS = {
    "cubic_a": ("2,2", "3,-3"),
    "cubic_s2": ("2,1", "2,3"),
    "skew": ("2,1,1", "2,3,5"),
    "sklyanin": ("2,2,2", "2,2*z,2*z^2"),
    "w_poly": ("2,1,1", "2,3,5"),
}


def test_a_zhang_twist_keeps_the_hilbert_series(corpus_entries):
    """Zhang 1996: twisting a graded algebra by a graded automorphism keeps
    its Hilbert series.  A diagonal sigma that scales w scales each f_i and
    each commutator with omega, so it is an automorphism of every D(w, p);
    checked at 2m+2 under both engines for every instance and bad tuple."""
    assert set(W_SCALING_SIGMAS) == set(corpus_entries)
    compared = 0
    for name, entry in sorted(corpus_entries.items()):
        cases = field_instances(entry)
        cases += [(int(k) - 1, t, None, "bad") for k, t in entry.expect["bad"].items()]
        for k0, ptext, assign, _label in cases:
            sp = Superpotential(field_w(entry, assign))
            spec = build_extension(sp, parse_tuple(ptext, sp.ctx.conductor), k0)
            bound = 2 * spec.m + 2
            dims = hilbert_table(spec.D, bound, "both").dims
            for text in W_SCALING_SIGMAS[name]:
                sigma = DiagonalMap(sp.ctx, parse_tuple(text, sp.ctx.conductor))
                eigen_scale(sigma, sp.w)  # raises unless sigma scales w
                twisted = zhang_twist_presentation(spec.D, sigma)
                assert hilbert_table(twisted, bound, "both").dims == dims, (name, ptext, text)
                compared += 1
    assert compared == 48


def test_zhang_certificate_identity():
    rep = zhang_certificate(SP, (ONE, ONE, ONE), 0, DiagonalMap.identity(CTX))
    assert rep.passed and rep.p_prime == ["1", "1", "1"]


def test_zhang_certificate_poly_nontrivial():
    rep = zhang_certificate(SP, (ONE, ONE, ONE), 0, DiagonalMap(CTX, (TWO, ONE, ONE)))
    assert rep.passed


def test_zhang_certificate_s2_formula_values():
    # sigma = (2, 1) on the S2 cubic with alpha := 4 and p = (4, 1/2):
    # hdet = 4, p'_1 = p_1 * s^2 = 16, p'_2 = p_2 / s = 1/4
    c12 = Context(("x", "y"), 12)
    w = parse_poly(
        "x*x*y*y + 4*x*y*y*x + 16*y*y*x*x - 4*y*x*x*y", c12
    )
    sp = Superpotential(w)
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    sig = DiagonalMap(c12, (Scalar.from_rational(2, 12), Scalar.one(12)))
    p_prime, hd = twisted_tuple(sp, p, 0, sig)
    assert hd == Scalar.from_rational(4, 12)
    assert p_prime[0] == Scalar.from_rational(16, 12)
    assert p_prime[1] == Scalar.from_rational(Fraction(1, 4), 12)
    rep = zhang_certificate(sp, p, 0, sig)
    assert rep.passed and rep.p_prime == ["16", "1/4"]


def test_adapt_basis_identity():
    bc = adapt_basis(W_POLY, SP.f)
    assert bc.verified
    assert bc.to_json()["P"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert [print_poly(g) for g in bc.new_generators] == ["x", "y", "z"]


def test_adapt_basis_swap_two_generator_cubic():
    c2 = Context(("x", "y"), 1)
    w2 = parse_poly(
        "x*x*y*y + y*y*x*x + x*y*y*x + y*x*x*y - 2*x*y*x*y - 2*y*x*y*x", c2
    )
    sp2 = Superpotential(w2)
    bc = adapt_basis(w2, [sp2.f[1], sp2.f[0]])
    assert bc.verified
    assert bc.to_json()["P"] == [["0", "1"], ["1", "0"]]
    assert [print_poly(g) for g in bc.new_generators] == ["y", "x"]


def test_adapt_basis_unipotent():
    f = SP.f
    bc = adapt_basis(W_POLY, [f[0] + f[1], f[1], f[2]])
    assert bc.verified
    assert bc.to_json()["P"] == [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_adapt_basis_guards():
    f = SP.f
    with pytest.raises(FamilyError):
        adapt_basis(W_POLY, [f[0], f[0], f[2]])  # singular P
    with pytest.raises(FamilyError):
        adapt_basis(W_POLY, [parse_poly("x*x", CTX), f[1], f[2]])  # span mismatch
