import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import field_instances, field_w, parse_tuple
from normext.certify import (
    BuildError,
    Certificate,
    ResolutionDefect,
    _graded_map_ranks,
    build_extension,
    full_certificate,
    hdet_certificate,
    multiples_by_degree,
    nakayama,
    omega_certificate,
    predicted_dims,
    resolution_certificate,
    resolution_maps,
    verify_hilbert,
)
from normext import certify, cli
from normext.cli import default_corpus_path
from normext.dsl import parse_algebra, parse_poly, print_poly, scalar_text
from normext.freealg import Context, FreeElement, matmul
from normext.linalg import RowReducer
from normext.quotient import GradedQuotient
from normext.scalars import Assignment, Scalar
from normext.superpotential import DiagonalMap, Superpotential
from normext.tuples import goodness_system, is_good, solve_units

CTX = Context(("x", "y", "z"), 1)
W_POLY = parse_poly("x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z", CTX)
SP_POLY = Superpotential(W_POLY)
ONE = Scalar.one(1)

S2_SRC = """
algebra s2
field cyclotomic 12
param alpha ; alpha := 4 ; alpha^{1/2} := 2
gens x, y
w = x*x*y*y + alpha*x*y*y*x + alpha^{2}*y*y*x*x - alpha*y*x*x*y ;
"""


def s2_superpotential(alpha=None):
    af = parse_algebra(S2_SRC)
    asg = af.assignment(None if alpha is None else f"alpha:={alpha}")
    return Superpotential(af.w.specialize(asg))


def gb(pres):
    return GradedQuotient(pres, "gb")


def poly_spec(p=(1, 1, 1), k=0):
    scal = tuple(Scalar.from_rational(v) for v in p)
    return build_extension(SP_POLY, scal, k, label="D(poly)")


def stage_cert(spec, bound=None):
    """An empty certificate for spec, for one stage to write into."""
    return Certificate(spec.label, spec.k + 1, [], bound)


def omega_stage(spec, bound, engine="gb"):
    """A certificate for spec with ``verify_hilbert`` and then
    ``omega_certificate`` run, as ``full_certificate`` runs them: the omega
    stage reads the annihilator dims from the Hilbert tables."""
    cert = stage_cert(spec, bound)
    D = GradedQuotient(spec.D, engine)
    verify_hilbert(cert, spec, GradedQuotient(spec.A, engine), D)
    omega_certificate(cert, spec, D)
    return cert


def test_build_extension_relations():
    spec = poly_spec()
    x, y, z = (FreeElement.gen(CTX, i) for i in range(3))
    f1 = SP_POLY.f[0]
    expected = [SP_POLY.f[1], SP_POLY.f[2], y * f1 - f1 * y, z * f1 - f1 * z]
    red = RowReducer()
    for r in spec.D.relations:
        red.insert(dict(r.terms))
    assert red.rank == 4
    for e in expected:
        assert red.contains(dict(e.terms))
    assert spec.omega == f1


def test_build_extension_guards():
    with pytest.raises(BuildError):
        poly_spec(p=(2, 1, 1))  # p_k != q_k
    with pytest.raises(BuildError):
        poly_spec(p=(1, 0, 1))
    c1 = Context(("x",), 1)
    w1 = parse_poly("x*x*x", c1)
    with pytest.raises(Exception):
        build_extension(Superpotential(w1), (Scalar.one(1),), 0)


def test_specialized_tuple_equals_direct_build():
    spec_a = poly_spec()
    spec_b = poly_spec(p=(1, 1, 1))
    assert [print_poly(r) for r in spec_a.D.relations] == [
        print_poly(r) for r in spec_b.D.relations
    ]


def test_lpwz_degree_four_relation():
    # S2 at k=2 with alpha := -4 and p = (2, 1/4): the quartic relation is
    # proportional to x^3 y - 2 x^2 y x + 4 x y x^2 - 8 y x^3
    sp = s2_superpotential(alpha=-4)
    p = (Scalar.from_rational(2, 12), Scalar.from_rational(Fraction(1, 4), 12))
    spec = build_extension(sp, p, 1, label="lpwz")
    quartic = [r for r in spec.D.relations if r.degree == 4]
    assert len(quartic) == 1
    target = parse_poly(
        "x*x*x*y - 2*x*x*y*x + 4*x*y*x*x - 8*y*x*x*x", Context(("x", "y"), 12)
    )
    lead = max(target.terms, key=lambda t: (len(t), t))
    assert quartic[0] == target.scale(target.terms[lead].inv())


def test_hilbert_pass_and_tables():
    spec = poly_spec()
    cert = stage_cert(spec, 8)
    verify_hilbert(cert, spec, gb(spec.A), gb(spec.D))
    assert cert.checks[0].passed
    assert cert.tables["D"] == [1, 3, 7, 13, 22, 34, 50, 70, 95]
    assert cert.tables["predicted_D"] == cert.tables["D"]
    assert cert.diagnostics["e"] == [0] * 9


def test_hilbert_failure_locates_defect():
    spec = poly_spec(p=(1, 2, 1))
    cert = stage_cert(spec, 8)
    verify_hilbert(cert, spec, gb(spec.A), gb(spec.D))
    assert not cert.checks[0].passed
    assert cert.checks[0].witness == cert.diagnostics["first_defect_degree"]
    assert cert.diagnostics["first_defect_degree"] is not None


def test_predicted_dims_convolution():
    assert predicted_dims([1, 2, 3, 4, 5], 2, 4) == [1, 2, 4, 6, 9]


def test_omega_certificate_cy():
    spec = poly_spec()
    cert = omega_stage(spec, 8)
    by_name = {c.name: c for c in cert.checks}
    assert by_name["omega_normal"].passed and by_name["omega_regular"].passed
    assert cert.diagnostics["central"] is True


def test_omega_certificate_s2_normal_not_central():
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    cert = omega_stage(spec, 10)
    by_name = {c.name: c for c in cert.checks}
    assert by_name["omega_normal"].passed and by_name["omega_regular"].passed
    assert cert.diagnostics["central"] is False


def test_omega_bad_tuple_regularity_fails_where_z_positive():
    spec = poly_spec(p=(1, 2, 1))
    cert = omega_stage(spec, 8)
    by_name = {c.name: c for c in cert.checks}
    assert by_name["omega_normal"].passed  # normality needs no goodness
    assert not by_name["omega_regular"].passed
    hil = stage_cert(spec, 8)
    verify_hilbert(hil, spec, gb(spec.A), gb(spec.D))
    z_from_e = hil.diagnostics["z_from_e"]
    first_z = next(k for k, v in enumerate(z_from_e) if v)
    assert by_name["omega_regular"].witness["first_right"] == first_z
    assert cert.diagnostics["right_annihilator_dims"] == z_from_e


def test_a_non_normal_omega_fails_regularity_without_a_left_annihilator():
    """D is built with p_1 = q_1 = 1; read with p_1 = 2 afterwards,
    x*Omega - 2*Omega*x is not in D's ideal.  The left annihilator's dims
    then follow from no normality, so none are reported and regularity
    fails, on its own stage and in the full certificate."""
    spec = poly_spec()
    built = spec.goodness()  # is_good refuses p_1 != q_1
    spec.goodness = lambda: built
    spec.p = (Scalar.from_rational(2), *spec.p[1:])
    cert = omega_stage(spec, 6)
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["omega_normal"].passed and by_name["omega_normal"].witness == "x"
    assert cert.diagnostics["left_annihilator_dims"] is None
    assert cert.diagnostics["right_annihilator_dims"] == [0] * 5
    assert not by_name["omega_regular"].passed
    assert by_name["omega_regular"].witness == "omega not normal: left annihilator not derived"
    blob = json.loads(full_certificate(spec, bound=6).dumps())
    checks = {c["name"]: c for c in blob["checks"]}
    assert blob["pass"] is False and blob["diagnostics"]["left_annihilator_dims"] is None
    assert checks["omega_regular"] == by_name["omega_regular"].to_json()


def test_the_omega_stage_without_the_hilbert_stage_names_it():
    """The omega stage reads z_from_e, which only ``verify_hilbert`` writes."""
    spec = poly_spec()
    with pytest.raises(RuntimeError, match="run verify_hilbert"):
        omega_certificate(stage_cert(spec, 6), spec, gb(spec.D))


def test_resolution_shapes_and_identities():
    # n = 2: both blocks are 2x2
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    _, (_, (Ml, _), (Mr, _)) = resolution_maps(spec)  # identity checks run inside
    assert len(Ml) == 2 and len(Ml[0]) == 2
    assert len(Mr) == 2 and len(Mr[0]) == 2
    _, (_, (Ml, _), (Mr, _)) = resolution_maps(poly_spec())
    assert len(Ml) == 3 and len(Ml[0]) == 4
    assert len(Mr) == 4 and len(Mr[0]) == 3
    for row in matmul(Ml, Mr):
        for ent in row:
            assert ent.is_zero() or ent.degree == 3  # 2m - 1 with m = 2


def test_resolution_certificate_cy():
    spec = poly_spec()
    cert = stage_cert(spec, 8)
    resolution_certificate(cert, spec, gb(spec.D))
    assert all(c.passed for c in cert.checks)
    assert cert.diagnostics["euler_residuals"] == [0] * 9


def test_resolution_certificate_bad_tuple():
    spec = poly_spec(p=(1, 2, 1))
    cert = stage_cert(spec, 6)
    resolution_certificate(cert, spec, gb(spec.D))
    by_name = {c.name: c for c in cert.checks}
    assert not by_name["complex_property"].passed
    assert by_name["complex_property"].witness  # offending (i, j) pairs


def test_resolution_index_k_permutation():
    spec = build_extension(SP_POLY, (ONE, ONE, ONE), 2, label="k3")
    assert resolution_maps(spec)[0] == (2, 0, 1)
    cert = stage_cert(spec, 6)
    resolution_certificate(cert, spec, gb(spec.D))
    assert all(c.passed for c in cert.checks)


def test_a_broken_resolution_identity_is_an_internal_defect(monkeypatch, capsys):
    """One perturbed entry of M breaks x^t M_l = g_l^t: ``resolution_maps``
    raises, and ``normext verify`` reports an internal defect with exit 2."""
    spec = poly_spec()
    real = certify.coefficient_matrix

    def perturbed(w):
        m = real(w)
        m[0][0] = m[0][0] + FreeElement.monomial(w.ctx, (0,) * (w.degree - 2))
        return m

    monkeypatch.setattr(certify, "coefficient_matrix", perturbed)
    with pytest.raises(ResolutionDefect, match="x\\^t M_l = g_l\\^t fails"):
        resolution_maps(spec)
    path = str(default_corpus_path() / "w_poly.alg")
    assert cli.run(["verify", path, "--omit", "1", "--p", "1,1,1", "--engine", "gb"]) == 2
    assert capsys.readouterr().err.startswith("internal defect: x^t M_l = g_l^t fails")


def _rescale_one_derivative(spec):
    """Double f_j and halve q_j on spec's superpotential, for the first
    j != k: every q_j f_j, and so x^t M_l = g_l^t, is unchanged, while
    M_r x = g_r, whose g_r lists f_j itself, now fails."""
    sp = spec.sp
    j = 1 if spec.k == 0 else 0
    two = sp.ctx.one() + sp.ctx.one()
    sp.f = [fi.scale(two) if i == j else fi for i, fi in enumerate(sp.f)]
    scales = list(sp.twist.scales)
    scales[j] = scales[j] * two.inv()
    sp.twist = DiagonalMap(sp.ctx, scales)
    return spec


def test_a_broken_m_r_x_equals_g_r_is_an_internal_defect(corpus_entries, monkeypatch, capsys):
    """A rescaled f_j breaks only M_r x = g_r: ``resolution_maps`` raises on
    the first instance of w_poly, sklyanin and cubic_s2, and ``normext
    verify`` reports an internal defect with exit 2."""
    firsts = {}
    for label, spec in corpus_specs(corpus_entries):
        firsts.setdefault(label.split(":")[0], spec)
    for name in ("w_poly", "sklyanin", "cubic_s2"):
        spec = _rescale_one_derivative(firsts[name])
        with pytest.raises(ResolutionDefect, match="M_r x = g_r fails"):
            resolution_maps(spec)
    real = cli.build_extension
    monkeypatch.setattr(cli, "build_extension", lambda *a, **kw: _rescale_one_derivative(real(*a, **kw)))
    path = str(default_corpus_path() / "w_poly.alg")
    assert cli.run(["verify", path, "--omit", "1", "--p", "1,1,1", "--engine", "gb"]) == 2
    assert capsys.readouterr().err.startswith("internal defect: M_r x = g_r fails")


PARAMETER_VALUES = ["1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_tuple_is_good_exactly_when_the_complex_property_holds(corpus_entries, data):
    """On skew and cubic_a at random parameter values, with p_k = q_k and
    the other entries random (for skew, half the draws completed to
    p_1 p_2 p_3 = q_k): every entry of M_l M_r lies in D's ideal exactly
    when the tuple is good, and x_k*Omega = q_k*Omega*x_k in D for every
    draw, so the certificate always derives the left annihilator."""
    name = data.draw(st.sampled_from(["skew", "cubic_a"]))
    af = corpus_entries[name].algebra
    values = data.draw(st.lists(st.sampled_from(PARAMETER_VALUES), min_size=3, max_size=3))
    asg = af.assignment(",".join(f"{a}:={v}" for a, v in zip(af.params, values)))
    sp = Superpotential(af.w.specialize(asg))
    k = data.draw(st.integers(0, sp.n - 1))
    draws = data.draw(st.lists(st.sampled_from(PARAMETER_VALUES), min_size=sp.n, max_size=sp.n))
    p = [Scalar.from_rational(Fraction(v), af.conductor) for v in draws]
    p[k] = sp.twist.scales[k]
    if name == "skew" and data.draw(st.booleans()):
        j, l = (i for i in range(3) if i != k)
        p[j] = p[l].inv()  # so p_1 p_2 p_3 = p_k = q_k
    try:
        spec = build_extension(sp, p, k)
    except BuildError:
        assume(False)
    _, (_, (Ml, _), (Mr, _)) = resolution_maps(spec)
    D = GradedQuotient(spec.D, "both")
    complex_ok = all(D.contains(ent) for row in matmul(Ml, Mr) for ent in row)
    assert bool(is_good(sp, k, p)) == complex_ok
    # Omega is normal by construction, good tuple or not
    x = FreeElement.gen(spec.ctx, k)
    assert D.contains(x * spec.omega - spec.omega.scale(sp.twist.scales[k]) * x)


def test_nakayama_cy_identity():
    spec = poly_spec()
    cert = stage_cert(spec)
    nakayama(cert, spec, gb(spec.D))
    assert all(c.passed for c in cert.checks)
    assert cert.nakayama == ["1", "1", "1"]
    assert cert.diagnostics["nakayama_omega_eigenvalue"] == "1"


def test_nakayama_reports_a_tau_that_does_not_conjugate():
    """D is built with p_1 = 1, so Omega x_1 = x_1 Omega in D; read with
    p_1 = 2 afterwards, tau(x_1) = x_1 / 2 does not conjugate."""
    spec = poly_spec()
    cert = stage_cert(spec)
    nakayama(cert, spec, gb(spec.D))
    assert {c.name: c.passed for c in cert.checks}["tau_conjugation"]
    spec.p = (Scalar.from_rational(2), *spec.p[1:])
    cert = stage_cert(spec)
    nakayama(cert, spec, gb(spec.D))
    assert not {c.name: c.passed for c in cert.checks}["tau_conjugation"]
    assert cert.diagnostics["tau"] == ["1/2", "1", "1"]


def test_nakayama_s2_values():
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    cert = stage_cert(spec)
    nakayama(cert, spec, gb(spec.D))
    assert all(c.passed for c in cert.checks)
    # (p_i q_i)^{-1} with q = (4, -1/4), p = (4, 1/2)
    assert cert.nakayama == ["1/16", "-8"]
    assert cert.diagnostics["tau"] == ["1/4", "2"]


def test_hdet_factors():
    spec = poly_spec()
    cert = stage_cert(spec)
    hdet_certificate(cert, spec)
    assert cert.checks[0].passed
    assert cert.hdet["factors"] == {
        "omega_eigenvalue": "1",
        "hdet_tau_on_A": "1",
        "hdet_nakayama_of_A": "1",
    }
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec2 = build_extension(sp, p, 0, label="s2")
    cert2 = stage_cert(spec2)
    hdet_certificate(cert2, spec2)
    assert cert2.checks[0].passed and cert2.hdet["factor_pattern_matches"]
    assert cert2.hdet["factors"]["omega_eigenvalue"] == "4"
    assert cert2.hdet["factors"]["hdet_tau_on_A"] == "1/4"
    assert cert2.hdet["factors"]["hdet_nakayama_of_A"] == "1"


def test_full_certificate_json_roundtrip():
    spec = poly_spec()
    cert = full_certificate(spec, bound=6)
    blob = json.loads(cert.dumps())
    assert blob["pass"] is True
    assert blob["verified_to_degree"] == 6
    assert {c["name"] for c in blob["checks"]} >= {
        "good_tuple",
        "hilbert_identity",
        "omega_normal",
        "omega_regular",
        "complex_property",
        "euler_residuals",
        "rank_exactness",
        "hdet_one",
    }


def test_theorem_equivalence_three_routes():
    # goodness, Hilbert identity and the complex property agree on both a
    # good and a bad tuple
    for p, expect in (((1, 1, 1), True), ((1, 2, 1), False), ((1, -1, -1), True)):
        spec = poly_spec(p=p)
        good = bool(spec.goodness())
        hcert, rcert = stage_cert(spec, 8), stage_cert(spec, 8)
        verify_hilbert(hcert, spec, gb(spec.A), gb(spec.D))
        resolution_certificate(rcert, spec, gb(spec.D))
        complex_ok = {c.name: c for c in rcert.checks}["complex_property"].passed
        assert good == expect and hcert.checks[0].passed == expect and complex_ok == expect


def corpus_specs(corpus_entries):
    """(label, spec) for every corpus instance and bad tuple, each labelled
    as ``perfbench/reference.json`` keys it and built as ``normext verify``
    builds it."""
    out = []
    for entry in sorted(corpus_entries.values(), key=lambda e: e.name):
        cases = field_instances(entry)
        cases += [(int(k) - 1, t, None, f"{entry.name}:k={k}:p=({t})") for k, t in entry.expect["bad"].items()]
        for k0, ptext, assign, label in cases:
            sp = Superpotential(field_w(entry, assign))
            p = parse_tuple(ptext, entry.algebra.conductor)
            out.append((label, build_extension(sp, p, k0, label=f"D({entry.name})")))
    return out


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_normal_forms_from_the_degree_below_equal_direct_ones(corpus_entries, engine):
    """Each degree's dict equals NF(u*e) built from u directly, for Omega and
    every nonzero entry of M_l and M_r, to the degree the certificate at
    2m+2 walks it."""
    specs = corpus_specs(corpus_entries)
    assert len(specs) == 24
    for label, spec in specs:
        m, n = spec.m, spec.n
        bound = 2 * m + 2
        D = GradedQuotient(spec.D, engine)
        _, (_, (Ml, _), (Mr, _)) = resolution_maps(spec)
        cases = [(spec.omega, bound - m)]
        cases += [(e, bound - 2 * m) for row in Ml for e in row if not e.is_zero()]
        shifts_p2 = [m] * (n - 1) + [m + 1] * (n - 1)
        cases += [(e, bound - a) for row, a in zip(Mr, shifts_p2) for e in row if not e.is_zero()]
        for e, top in cases:
            for d, nfs in zip(range(top + 1), multiples_by_degree(D, e)):
                words = D.normal_words(d)
                assert list(nfs) == words, (label, d)
                for u in words:
                    direct = D.normal_form(FreeElement.monomial(spec.ctx, u) * e)
                    assert nfs[u].terms == direct.terms, (label, engine, u)


def right_multiples_by_degree(quot, e):
    """Yield {u: NF(e*u)} over the normal words u of ``quot``, for degrees
    d = 0, 1, 2, ...: the reference walk on the other side of
    ``multiples_by_degree``.  A prefix of a normal word is normal, so
    u = u'*x_a with u' = u[:-1] of degree d-1, and NF(e*u) = NF(NF(e*u')*x_a)."""
    nfs = {(): quot.normal_form(e)}
    d = 0
    while True:
        yield nfs
        d += 1
        below, nfs = nfs, {}
        for u in quot.normal_words(d):
            f = FreeElement(e.ctx, {w + u[-1:]: c for w, c in below[u[:-1]].terms.items()})
            nfs[u] = quot.normal_form(f)


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_the_reported_left_annihilator_is_the_right_walks_kernel(corpus_entries, engine):
    """Omega is normal in every corpus D, so the certificate derives the
    dims of ker(v -> Omega*v) instead of walking that side.  The reference
    walk's dicts equal NF(Omega*u) built from u directly, and its kernel,
    ranked degree by degree, has the reported dims, to the degree the
    certificate at 2m+2 reports."""
    for label, spec in corpus_specs(corpus_entries):
        m = spec.m
        D = GradedQuotient(spec.D, engine)
        cert = omega_stage(spec, 2 * m + 2, engine)
        walked = []
        for d, nfs in zip(range(m + 3), right_multiples_by_degree(D, spec.omega)):
            assert list(nfs) == D.normal_words(d), (label, d)
            pos = {w: i for i, w in enumerate(D.normal_words(d + m))}
            red = RowReducer()
            for u, nf in nfs.items():
                direct = D.normal_form(spec.omega * FreeElement.monomial(spec.ctx, u))
                assert nf.terms == direct.terms, (label, engine, u)
                red.insert({pos[w]: c for w, c in nf.terms.items()})
            walked.append(len(nfs) - red.rank)
        assert cert.diagnostics["left_annihilator_dims"] == walked, (label, engine)


def walked_omega_kernels(D, spec, top):
    """dim ker(u -> u*Omega) on D_d for d = 0..top, ranked from the
    ``multiples_by_degree`` walk of Omega: the reference for the
    ``right_annihilator_dims`` that the omega stage reads off the Hilbert
    tables as z_from_e."""
    kernels = []
    for d, nfs in zip(range(top + 1), multiples_by_degree(D, spec.omega)):
        pos = {w: i for i, w in enumerate(D.normal_words(d + spec.m))}
        red = RowReducer()
        for nf in nfs.values():
            red.insert({pos[w]: c for w, c in nf.terms.items()})
        kernels.append(len(nfs) - red.rank)
    return kernels


def walked_p2_ranks(D, spec, top):
    """The rank of P2 -> P1, the map M_r, for deg = 0..top, walked by
    ``_graded_map_ranks``: the reference for the r2 that the resolution
    stage derives as dim P1 - r1."""
    (ranks,) = _graded_map_ranks(D, resolution_maps(spec)[1][2:])
    return [rank for _, rank in zip(range(top + 1), ranks)]


def assert_derived_numbers_are_walked_ones(spec, engine, bound, label):
    """Certify spec through the resolution stage and compare, degree by
    degree, the two derived numbers with their walks: Omega's kernel dims
    with z_from_e, and the rank of P2 -> P1 with dim P1 - r1.  Returns
    z_from_e."""
    D = GradedQuotient(spec.D, engine)
    cert = stage_cert(spec, bound)
    verify_hilbert(cert, spec, GradedQuotient(spec.A, engine), D)
    omega_certificate(cert, spec, D)
    resolution_certificate(cert, spec, D)
    z = cert.diagnostics["z_from_e"]
    assert walked_omega_kernels(D, spec, bound - spec.m) == z == cert.diagnostics["right_annihilator_dims"], (
        label,
        engine,
    )
    profile = cert.diagnostics["rank_profile"]
    derived = [row["dims"][3] - row["ranks"][3] for row in profile]
    assert walked_p2_ranks(D, spec, bound) == derived == [row["ranks"][2] for row in profile], (label, engine)
    return z


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_derived_kernels_and_p2_ranks_equal_their_walks_on_the_corpus(corpus_entries, engine):
    """On every corpus instance and bad tuple at 2m+2, the walked kernel of
    u -> u*Omega is z_from_e and the walked rank of M_r is dim P1 - r1, in
    every degree (proofs (a) and (b) of the ``certify`` docstring)."""
    for label, spec in corpus_specs(corpus_entries):
        assert_derived_numbers_are_walked_ones(spec, engine, 2 * spec.m + 2, label)


TUPLE_FACTORS = ["-1", "2", "1/2", "-2", "3"]


def random_tuple_spec(corpus_entries, rng):
    """(label, spec) for a seeded draw: a corpus w at its file's values, an
    omitted index k, and a member of a solved family of good tuples
    (``solve_units``) with random values for its free symbols; half the
    draws then scale one entry other than p_k by a random factor, which
    usually makes the tuple bad.  p_k = q_k always."""
    entry = corpus_entries[rng.choice(sorted(corpus_entries))]
    af = entry.algebra
    sp = Superpotential(field_w(entry))
    k = rng.randrange(sp.n)
    fam = rng.choice(solve_units(goodness_system(Superpotential(af.w), k)))
    base = af.assignment(None)
    values = dict(base.values) if base else {}
    for sym in fam.symbols:
        values[sym] = Fraction(rng.choice(TUPLE_FACTORS))
    asg = Assignment(af.params + fam.symbols, values, base.roots if base else None, af.conductor)
    p = [asg.specialize(u) for u in fam.member_units(rng.randrange(len(fam.cosets)))]
    if rng.random() < 0.5:
        j = rng.choice([i for i in range(sp.n) if i != k])
        p[j] = p[j] * Scalar.from_rational(Fraction(rng.choice(TUPLE_FACTORS)), af.conductor)
    label = f"{entry.name}:k={k + 1}:p=({','.join(map(scalar_text, p))})"
    return label, build_extension(sp, p, k)


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_derived_kernels_and_p2_ranks_equal_their_walks_on_random_tuples(corpus_entries, engine):
    """The same on 40 seeded tuples with p_k = q_k over the five corpus w,
    at 2m+2.  At least ten draws are good and ten bad by ``is_good``, and
    at least ten have z_from_e != 0, so the kernels compared are not all
    zero."""
    good = bad = nonzero_z = 0
    for seed in range(40):
        label, spec = random_tuple_spec(corpus_entries, random.Random(seed))
        z = assert_derived_numbers_are_walked_ones(spec, engine, 2 * spec.m + 2, label)
        ok = bool(is_good(spec.sp, spec.k, spec.p))
        good += ok
        bad += not ok
        nonzero_z += any(z)
    assert good >= 10 and bad >= 10 and nonzero_z >= 10, (good, bad, nonzero_z)


def unshared_ranks(quot, entries, shifts_src, top):
    """The ranks, for deg = 0..top, of the degree-deg block of the map
    u*e_s -> sum_t u*entries[s][t]*e_t, with source block s starting at
    degree shifts_src[s]: the reference for ``_graded_map_ranks``.  Each
    nonzero entry walks its own ``multiples_by_degree``, unscaled, and a
    row's columns are (target block, normal word) pairs."""
    walks = [
        [(t, multiples_by_degree(quot, e)) for t, e in enumerate(row) if not e.is_zero()] for row in entries
    ]
    ranks = []
    for deg in range(top + 1):
        red = RowReducer()
        for own, a_s in zip(walks, shifts_src):
            if deg < a_s:
                continue
            images = [(t, next(degrees)) for t, degrees in own]
            for u in quot.normal_words(deg - a_s):
                row = {(t, wd): c for t, nfs in images for wd, c in nfs[u].terms.items()}
                if row:
                    red.insert(row)
        ranks.append(red.rank)
    return ranks


@pytest.mark.parametrize("engine", ["la", "gb"])
def test_shared_walks_rank_as_each_entry_walking_its_own(corpus_entries, engine, monkeypatch):
    """The letter row, M_l and M_r, ranked in one call that shares one walk
    per entry up to a nonzero scalar, have the ranks the unshared reference
    gives, degree by degree to 2m+2.  The call walks each distinct monic
    entry once, which is fewer walks than nonzero entries."""
    for label, spec in corpus_specs(corpus_entries):
        bound = 2 * spec.m + 2
        D = GradedQuotient(spec.D, engine)
        maps = resolution_maps(spec)[1]
        want = [unshared_ranks(D, entries, shifts, bound) for entries, shifts in maps]

        walked = []

        def counting(quot, e, walked=walked):
            walked.append(e)
            return multiples_by_degree(quot, e)

        monkeypatch.setattr(certify, "multiples_by_degree", counting)
        got = [[r for _, r in zip(range(bound + 1), ranks)] for ranks in _graded_map_ranks(D, maps)]
        monkeypatch.undo()
        assert got == want, (label, engine)

        nonzero = [e for entries, _ in maps for row in entries for e in row if not e.is_zero()]
        monics = []
        for e in nonzero:
            monic = e.scale(e.terms[max(e.terms)].inv())
            if monic not in monics:
                monics.append(monic)
        assert walked == monics and len(walked) < len(nonzero), label


def test_m_l_reads_shared_letter_walks_at_their_scales(corpus_entries):
    """In skew:k=1:p=(2,3,1/3), M_l has -3*z beside y in one row, and -2*x
    and 3*x in rows with other nonzero entries, so it reads the walks of
    the letters, which the letter row shares, at scales other than 1.  The
    resolution stage's ranks of the letter row and M_l equal the unshared
    reference degree by degree to 2m+2, and rank exactness holds."""
    spec = dict(corpus_specs(corpus_entries))["skew:k=1:p=(2,3,1/3)"]
    bound = 2 * spec.m + 2
    D = gb(spec.D)
    cert = stage_cert(spec, bound)
    resolution_certificate(cert, spec, D)
    (letters, shifts4), (Ml, shifts3), _ = resolution_maps(spec)[1]
    profile = cert.diagnostics["rank_profile"]
    assert [row["ranks"][0] for row in profile] == unshared_ranks(D, letters, shifts4, bound)
    assert [row["ranks"][1] for row in profile] == unshared_ranks(D, Ml, shifts3, bound)
    assert {c.name: c.passed for c in cert.checks}["rank_exactness"]


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_the_letter_column_rank_is_the_augmentation_dimension(corpus_entries, engine):
    """The map u*e_i -> u*x_i of the candidate resolution, walked and ranked
    as the other three maps are, has rank dim D_d - [d = 0] in every degree
    to 2m+2: the value the certificate reports as r1 without walking it.
    Under ``both`` the two engines compare NF(u*x_i) for every normal word
    u to degree 2m+1, further than the certificate's own walks read them."""
    for label, spec in corpus_specs(corpus_entries):
        n, bound = spec.n, 2 * spec.m + 2
        D = GradedQuotient(spec.D, engine)
        letters = [[FreeElement.gen(spec.ctx, i)] for i in range(n)]
        (ranks,) = _graded_map_ranks(D, [(letters, [1] * n)])
        walked = [rank for _, rank in zip(range(bound + 1), ranks)]
        cert = stage_cert(spec, bound)
        resolution_certificate(cert, spec, D)
        reported = [row["ranks"][3] for row in cert.diagnostics["rank_profile"]]
        augmentation = [dim - (1 if d == 0 else 0) for d, dim in enumerate(D.dims(bound))]
        assert walked == reported == augmentation, label


def reversed_letters(spec):
    """spec with its generators in reverse order: x_i becomes x_{n-1-i},
    and w, p and k are carried along."""
    ctx, n = spec.ctx, spec.n
    rctx = Context(tuple(reversed(ctx.gens)), ctx.conductor, ctx.params)
    w = FreeElement(rctx, {tuple(n - 1 - a for a in word): c for word, c in spec.sp.w.terms.items()})
    return build_extension(Superpotential(w), tuple(reversed(spec.p)), n - 1 - spec.k, label=spec.label)


@pytest.mark.parametrize("engine", ["la", "gb"])
def test_reversing_the_generators_changes_no_verdict_or_table(corpus_entries, engine):
    """An isomorphism of D that permutes the letters changes no Hilbert
    table, no check's verdict, no rank of the candidate resolution and no
    annihilator dimension; the Nakayama scales x_i -> (p_i q_i)^{-1} x_i
    come out in the reversed order."""
    for label, spec in corpus_specs(corpus_entries):
        bound = 2 * spec.m + 2
        cert, rcert = (full_certificate(s, bound=bound, engine=engine) for s in (spec, reversed_letters(spec)))
        assert rcert.tables == cert.tables, label
        assert rcert.passed == cert.passed, label
        assert [(c.name, c.passed) for c in rcert.checks] == [(c.name, c.passed) for c in cert.checks], label
        for key in ("rank_profile", "euler_residuals", "e", "right_annihilator_dims", "left_annihilator_dims"):
            assert rcert.diagnostics[key] == cert.diagnostics[key], (label, key)
        assert rcert.nakayama == (None if cert.nakayama is None else cert.nakayama[::-1]), label


@pytest.mark.parametrize("label", ["sklyanin:k=2:p=(z^2,1,z)", "cubic_a:k=2:p=(-1,1)"])
def test_engines_agree_at_the_default_bound(corpus_entries, label):
    """Above the benchmark's bound 2m+2, at the default 2m+4, gb and la
    certify the same checks, tables, rank profile and annihilator dims."""
    spec = dict(corpus_specs(corpus_entries))[label]
    gb_cert, la_cert = (full_certificate(spec, engine=engine).to_json() for engine in ("gb", "la"))
    assert gb_cert["bound"] == 2 * spec.m + 4 and gb_cert["pass"]
    assert gb_cert["checks"] == la_cert["checks"]
    assert gb_cert["tables"] == la_cert["tables"]
    for key in ("rank_profile", "right_annihilator_dims", "left_annihilator_dims"):
        assert gb_cert["diagnostics"][key] == la_cert["diagnostics"][key], key
    assert gb_cert == la_cert


@pytest.mark.parametrize("engine", ["gb", "la", "both"])
def test_reports_equal_the_benchmark_reference(corpus_entries, engine):
    """``verify --bound m+2`` prints, byte for byte, what the benchmark
    recorded under gb for every corpus instance and bad tuple, under every
    engine: the certificate names no engine."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    for label, spec in corpus_specs(corpus_entries):
        key = f"verify:gb:{spec.m + 2}:{label}"
        if key not in reference:
            pytest.fail(f"{path} has no entry {key!r}")
        text = full_certificate(spec, bound=spec.m + 2, engine=engine).dumps()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == reference[key], key
