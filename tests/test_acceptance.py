"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run pytest with -s or
read the captured output).  Bounds are fixed at 2m+4 per instance; every
tolerance here is exact equality.
"""

import pytest

from conftest import field_instances, field_w, parse_tuple
from normext.certify import build_extension, default_bound, full_certificate
from normext.cli import default_corpus_path, tables_report
from normext.dsl import parse_poly
from normext.family import flatness_probe, fiber, ideal_components_match, zhang_certificate
from normext.freealg import Context
from normext.quotient import Presentation, hilbert_table
from normext.scalars import Scalar
from normext.superpotential import DiagonalMap, Superpotential


def report(number: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="session")
def instances(corpus_entries):
    """label -> (entry, spec, certificate) for every sidecar field instance."""
    out = {}
    for entry in corpus_entries.values():
        for k0, ptext, assign, label in field_instances(entry):
            w = field_w(entry, assign)
            sp = Superpotential(w)
            p = parse_tuple(ptext, entry.algebra.conductor)
            spec = build_extension(sp, p, k0, label=label)
            cert = full_certificate(spec, bound=default_bound(sp.m), engine="gb")
            out[label] = (entry, spec, cert)
    return out


def check_names(cert):
    return {c.name: c for c in cert.checks}


def test_criterion_1_table_reproduction():
    report_json, ok = tables_report(default_corpus_path())
    listed = [
        v
        for row in report_json["corpus"]
        for res in row["results"]
        for v in res["listed"]
    ]
    report(
        1,
        f"tables containment for {len(listed)} listed tuples across the corpus",
        ok and listed and all(v["contained"] for v in listed),
    )


def test_criterion_2_hilbert_identity(instances):
    ok = True
    for label, (_e, spec, cert) in sorted(instances.items()):
        ok &= check_names(cert)["hilbert_identity"].passed
        ok &= cert.tables["predicted_D"] == cert.tables["D"]
        ok &= all(v == 0 for v in cert.diagnostics["e"])
    poly_label = "w_poly:k=1:p=(1,1,1)"
    dims = instances[poly_label][2].tables["D"]
    ok &= dims[:6] == [1, 3, 7, 13, 22, 34]
    report(
        2,
        f"h_D*(1-t^m) = h_A exactly to 2m+4 on {len(instances)} good instances",
        ok,
    )


def test_criterion_3_negative_controls(corpus_entries):
    ok = True
    tested = 0
    for entry in sorted(corpus_entries.values(), key=lambda e: e.name):
        for k, ptext in entry.expect.get("bad", {}).items():
            w = field_w(entry)
            sp = Superpotential(w)
            p = parse_tuple(ptext, entry.algebra.conductor)
            spec = build_extension(sp, p, int(k) - 1, label=f"{entry.name}-bad")
            cert = full_certificate(spec, bound=default_bound(sp.m), engine="gb")
            names = check_names(cert)
            failed_all = (
                not names["good_tuple"].passed
                and not names["hilbert_identity"].passed
                and not names["complex_property"].passed
            )
            ok &= failed_all and not cert.passed
            tested += 1
    report(3, f"{tested} deliberately bad tuples fail all three routes", ok and tested >= 5)


def test_criterion_4_engine_agreement(corpus_entries, instances):
    checked = 0
    for entry in sorted(corpus_entries.values(), key=lambda e: e.name):
        w = field_w(entry)
        sp = Superpotential(w)
        pres = Presentation(sp.ctx, sp.f, label=f"A({entry.name})")
        hilbert_table(pres, default_bound(sp.m), engine="both")  # raises on mismatch
        checked += 1
    for label, (_e, spec, _c) in sorted(instances.items()):
        hilbert_table(spec.D, default_bound(spec.m), engine="both")
        checked += 1
    report(4, f"linear-algebra and rewriting dims agree on {checked} presentations", True)


def test_criterion_5_omega_certificates(instances):
    ok = True
    for label, (_e, spec, cert) in sorted(instances.items()):
        names = check_names(cert)
        ok &= names["omega_normal"].passed
        ok &= names["omega_regular"].passed
        ok &= not any(cert.diagnostics["right_annihilator_dims"])
        ok &= not any(cert.diagnostics["left_annihilator_dims"])
        q_identity = spec.sp.twist.is_identity()
        p_ones = all(c.is_one() for c in spec.p)
        ok &= cert.diagnostics["central"] == (q_identity and p_ones)
    report(5, "normality, regularity, and exact centrality pattern", ok)


def test_criterion_6_resolution_certificates(instances):
    ok = True
    for label, (_e, _spec, cert) in sorted(instances.items()):
        names = check_names(cert)
        ok &= names["complex_property"].passed
        ok &= names["euler_residuals"].passed
        ok &= names["rank_exactness"].passed
        ok &= not any(cert.diagnostics["euler_residuals"])
    report(6, "complex property, Euler residuals, rank exactness", ok)


def test_criterion_7_nakayama_and_hdet(instances):
    from normext.dsl import scalar_text

    ok = True
    for label, (_e, spec, cert) in sorted(instances.items()):
        names = check_names(cert)
        ok &= names["nakayama_preserves_relations"].passed
        ok &= names["nakayama_fixes_omega_line"].passed
        ok &= names["tau_conjugation"].passed
        ok &= names["hdet_one"].passed
        expected_nu = [
            scalar_text((spec.p[i] * spec.sp.twist.scales[i]).inv())
            for i in range(spec.n)
        ]
        ok &= cert.nakayama == expected_nu
        ok &= cert.hdet["product"] == "1"
        ok &= cert.hdet["factor_pattern_matches"] is True
    report(7, "Nakayama map preserves relations; hdet factors (q_k, q_k^{-1}, 1)", ok)


def test_criterion_8_flat_family(corpus_entries):
    ok = True
    for name in ("w_poly", "sklyanin"):
        entry = corpus_entries[name]
        w = field_w(entry)
        sp = Superpotential(w)
        n = sp.n
        cond = entry.algebra.conductor
        one = Scalar.one(cond)
        zero = Scalar.zero(cond)
        pts = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
        pts.append(tuple(one for _ in range(n)))
        pts.append(tuple(Scalar.from_rational(j + 1, cond) for j in range(n)))
        rep = flatness_probe(sp, pts, 6, engine="gb")
        ok &= rep.passed and len(rep.rows) >= 5
        for k in range(n):
            fb = fiber(sp, pts[k])
            spec = build_extension(sp, tuple(one for _ in range(n)), k)
            ok &= ideal_components_match(fb.presentation, spec.D, [sp.m, sp.m + 1])
    report(8, "five-point flat family probes and coordinate-fiber agreement", ok)


def test_criterion_9_zhang_certificates(corpus_entries):
    # sigma must be an automorphism of the base algebra, i.e. scale w; the
    # valid diagonals depend on the support of each superpotential
    sigma_scales = {
        "w_poly": [("2", "1", "1"), ("2", "3", "5")],
        "cubic_a": [("2", "2"), ("2", "-2")],
        "cubic_s2": [("2", "1"), ("3", "2")],
        "sklyanin": [("2", "2", "2"), ("2", "2*z", "2*z^2")],
        "skew": [("2", "1", "1"), ("2", "3", "5")],
    }
    ok = True
    count = 0
    for entry in sorted(corpus_entries.values(), key=lambda e: e.name):
        cond = entry.algebra.conductor
        k0, ptext, assign, _label = field_instances(entry)[0]
        sp = Superpotential(field_w(entry, assign))
        p = parse_tuple(ptext, cond)
        sigmas = [DiagonalMap.identity(sp.ctx)] + [
            DiagonalMap(sp.ctx, parse_tuple(",".join(scales), cond))
            for scales in sigma_scales[entry.name]
        ]
        for sig in sigmas:
            rep = zhang_certificate(sp, p, k0, sig)
            ok &= rep.passed
            count += 1
    report(9, f"{count} Zhang-twist span equalities (id plus two nontrivial each)", ok)


def test_criterion_10_lpwz_identification(corpus_entries):
    entry = corpus_entries["cubic_s2"]
    w = field_w(entry, "alpha:=-4")
    sp = Superpotential(w)
    cond = entry.algebra.conductor
    p = parse_tuple("2,1/4", cond)
    spec = build_extension(sp, p, 1, label="lpwz")
    quartic = [r for r in spec.D.relations if r.degree == 4]
    target = parse_poly(
        "x*x*x*y - 2*x*x*y*x + 4*x*y*x*x - 8*y*x*x*x", Context(("x", "y"), cond)
    )
    lead = max(target.terms, key=lambda t: (len(t), t))
    ok = len(quartic) == 1 and quartic[0] == target.scale(target.terms[lead].inv())
    report(10, "degree-4 relation at k=2, alpha=-4 matches the reference quartic", ok)
