import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import field_instances, field_w, parse_tuple
from normext.certify import (
    BuildError,
    EntryWalks,
    ExtensionSpec,
    ResolutionData,
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
from normext.dsl import parse_algebra, parse_poly, print_poly
from normext.freealg import Context, FreeElement
from normext.linalg import RowReducer
from normext.quotient import GradedQuotient
from normext.scalars import Scalar
from normext.superpotential import Superpotential

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
    data, checks = verify_hilbert(spec, gb(spec.A), gb(spec.D), 8)
    assert checks[0].passed
    assert data["tables"]["D"] == [1, 3, 7, 13, 22, 34, 50, 70, 95]
    assert data["tables"]["predicted_D"] == data["tables"]["D"]
    assert data["diagnostics"]["e"] == [0] * 9


def test_hilbert_failure_locates_defect():
    spec = poly_spec(p=(1, 2, 1))
    data, checks = verify_hilbert(spec, gb(spec.A), gb(spec.D), 8)
    assert not checks[0].passed
    assert checks[0].witness == data["diagnostics"]["first_defect_degree"]
    assert data["diagnostics"]["first_defect_degree"] is not None


def test_predicted_dims_convolution():
    assert predicted_dims([1, 2, 3, 4, 5], 2, 4) == [1, 2, 4, 6, 9]


def test_omega_certificate_cy():
    spec = poly_spec()
    data, checks = omega_certificate(spec, gb(spec.D), 8)
    by_name = {c.name: c for c in checks}
    assert by_name["omega_normal"].passed and by_name["omega_regular"].passed
    assert data["diagnostics"]["central"] is True


def test_omega_certificate_s2_normal_not_central():
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    data, checks = omega_certificate(spec, gb(spec.D), 10)
    by_name = {c.name: c for c in checks}
    assert by_name["omega_normal"].passed and by_name["omega_regular"].passed
    assert data["diagnostics"]["central"] is False


def test_omega_bad_tuple_regularity_fails_where_z_positive():
    spec = poly_spec(p=(1, 2, 1))
    data, checks = omega_certificate(spec, gb(spec.D), 8)
    by_name = {c.name: c for c in checks}
    assert by_name["omega_normal"].passed  # normality needs no goodness
    assert not by_name["omega_regular"].passed
    hil, _ = verify_hilbert(spec, gb(spec.A), gb(spec.D), 8)
    z_from_e = hil["diagnostics"]["z_from_e"]
    first_z = next(k for k, v in enumerate(z_from_e) if v)
    assert by_name["omega_regular"].witness["first_right"] == first_z
    assert data["diagnostics"]["right_annihilator_dims"] == z_from_e


def test_resolution_shapes_and_identities():
    # n = 2: both blocks are 2x2
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    res = ResolutionData(spec)  # identity checks run inside
    assert len(res.Ml) == 2 and len(res.Ml[0]) == 2
    assert len(res.Mr) == 2 and len(res.Mr[0]) == 2
    res3 = ResolutionData(poly_spec())
    assert len(res3.Ml) == 3 and len(res3.Ml[0]) == 4
    assert len(res3.Mr) == 4 and len(res3.Mr[0]) == 3
    for _a, _b, ent in res3.product_entries():
        assert ent.is_zero() or ent.degree == 3  # 2m - 1 with m = 2


def test_resolution_certificate_cy():
    spec = poly_spec()
    data, checks = resolution_certificate(spec, gb(spec.D), 8)
    assert all(c.passed for c in checks)
    assert data["diagnostics"]["euler_residuals"] == [0] * 9


def test_resolution_certificate_bad_tuple():
    spec = poly_spec(p=(1, 2, 1))
    _data, checks = resolution_certificate(spec, gb(spec.D), 6)
    by_name = {c.name: c for c in checks}
    assert not by_name["complex_property"].passed
    assert by_name["complex_property"].witness  # offending (i, j) pairs


def test_resolution_index_k_permutation():
    spec = build_extension(SP_POLY, (ONE, ONE, ONE), 2, label="k3")
    assert ResolutionData(spec).perm == (2, 0, 1)
    data, checks = resolution_certificate(spec, gb(spec.D), 6)
    assert all(c.passed for c in checks)


def test_nakayama_cy_identity():
    spec = poly_spec()
    data, checks = nakayama(spec, gb(spec.D))
    assert all(c.passed for c in checks)
    assert data["nakayama"] == ["1", "1", "1"]
    assert data["omega_eigenvalue"] == "1"


def test_nakayama_s2_values():
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec = build_extension(sp, p, 0, label="s2")
    data, checks = nakayama(spec, gb(spec.D))
    assert all(c.passed for c in checks)
    # (p_i q_i)^{-1} with q = (4, -1/4), p = (4, 1/2)
    assert data["nakayama"] == ["1/16", "-8"]
    assert data["tau"] == ["1/4", "2"]


def test_hdet_factors():
    spec = poly_spec()
    data, checks = hdet_certificate(spec)
    assert checks[0].passed
    assert data["factors"] == {
        "omega_eigenvalue": "1",
        "hdet_tau_on_A": "1",
        "hdet_nakayama_of_A": "1",
    }
    sp = s2_superpotential()
    p = (Scalar.from_rational(4, 12), Scalar.from_rational(Fraction(1, 2), 12))
    spec2 = build_extension(sp, p, 0, label="s2")
    data2, checks2 = hdet_certificate(spec2)
    assert checks2[0].passed and data2["factor_pattern_matches"]
    assert data2["factors"]["omega_eigenvalue"] == "4"
    assert data2["factors"]["hdet_tau_on_A"] == "1/4"
    assert data2["factors"]["hdet_nakayama_of_A"] == "1"


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
        _d, hchecks = verify_hilbert(spec, gb(spec.A), gb(spec.D), 8)
        _d2, rchecks = resolution_certificate(spec, gb(spec.D), 8)
        complex_ok = {c.name: c for c in rchecks}["complex_property"].passed
        assert good == expect and hchecks[0].passed == expect and complex_ok == expect


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
    """Each degree's dict equals NF(u*e) or NF(e*u) built from u directly, for
    Omega on both sides and every nonzero entry of M_l and M_r, to the degree
    the certificate at 2m+2 walks it."""
    specs = corpus_specs(corpus_entries)
    assert len(specs) == 24
    for label, spec in specs:
        m, n = spec.m, spec.n
        bound = 2 * m + 2
        D = GradedQuotient(spec.D, engine)
        res = ResolutionData(spec)
        cases = [(spec.omega, True, bound - m), (spec.omega, False, bound - m)]
        cases += [(e, True, bound - 2 * m) for row in res.Ml for e in row if not e.is_zero()]
        shifts_p2 = [m] * (n - 1) + [m + 1] * (n - 1)
        cases += [(e, True, bound - a) for row, a in zip(res.Mr, shifts_p2) for e in row if not e.is_zero()]
        for e, left, top in cases:
            for d, nfs in zip(range(top + 1), multiples_by_degree(D, e, left)):
                words = D.normal_words(d)
                assert list(nfs) == words, (label, d)
                for u in words:
                    mono = FreeElement.monomial(spec.ctx, u)
                    direct = D.normal_form(mono * e if left else e * mono)
                    assert nfs[u].terms == direct.terms, (label, engine, left, u)


def exact_terms(terms):
    return {w: (c.n, c.num, c.den) for w, c in terms.items()}


@pytest.mark.parametrize("engine", ["la", "gb"])
def test_shared_walks_give_each_entry_its_own_rows(corpus_entries, engine):
    """Read in the certificate's order, the walk an entry of e43, M_l, M_r or
    e10 shares with the entries equal to it up to a scalar gives, degree by
    degree, the dicts of its own walk, to the degree the certificate at
    2m+2 reads; and so does a right-side walk of Omega."""
    for label, spec in corpus_specs(corpus_entries):
        bound = 2 * spec.m + 2
        D = GradedQuotient(spec.D, engine)
        walks = EntryWalks(D)
        readers = []  # (first degree, last degree, scale, shared walk, own walk)
        for entries, shifts in resolution_maps(spec, ResolutionData(spec)):
            for row, a in zip(entries, shifts):
                for ent in row:
                    if not ent.is_zero():
                        readers.append((a, bound, *walks.reader(ent), multiples_by_degree(D, ent, True)))
        assert len(walks._walks) < len(readers), label
        # a right-side store on Omega, read as far as omega_certificate reads
        # it: Omega and -Omega share one walk of NF(Omega*u)
        right = EntryWalks(D, left=False)
        for ent in (spec.omega, -spec.omega):
            readers.append((0, bound - spec.m, *right.reader(ent), multiples_by_degree(D, ent, False)))
        assert len(right._walks) == 1, label
        for deg in range(bound + 1):
            for first, last, scale, shared, own in readers:
                if not first <= deg <= last:
                    continue
                got, want = next(shared), next(own)
                assert list(got) == list(want), (label, deg)
                for u, nf in want.items():
                    scaled = {w: c if scale is None else scale(c) for w, c in got[u].terms.items()}
                    assert exact_terms(scaled) == exact_terms(nf.terms), (label, engine, u)


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


def test_reports_equal_the_benchmark_reference(corpus_entries):
    """``verify --engine gb --bound m+2`` prints, byte for byte, what the
    benchmark recorded for every corpus instance and bad tuple."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    for label, spec in corpus_specs(corpus_entries):
        key = f"verify:gb:{spec.m + 2}:{label}"
        if key not in reference:
            pytest.fail(f"{path} has no entry {key!r}")
        text = full_certificate(spec, bound=spec.m + 2, engine="gb").dumps()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == reference[key], key
