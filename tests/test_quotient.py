import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_instances, field_w, parse_tuple
from normext import quotient
from normext.certify import build_extension, full_certificate
from normext.cli import default_corpus_path
from normext.dsl import parse_algebra, parse_poly
from normext.freealg import AlgebraError, CoefficientModeError, Context, FreeElement, word_key
from normext.linalg import ResourceLimitError
from normext.quotient import (
    EngineDisagreementError,
    GradedQuotient,
    LinearEngine,
    Presentation,
    code_word,
    hilbert_table,
    ideal_basis,
    membership,
    normal_form,
    word_code,
)
from normext.rewriting import GBState
from normext.scalars import Scalar, cyclotomic_poly
from normext.superpotential import Superpotential, cyclic_derivatives

CTX = Context(("x", "y", "z"), 1)
W_POLY = parse_poly("x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z", CTX)
RELS = cyclic_derivatives(W_POLY)
A_POLY = Presentation(CTX, RELS, label="poly3")


def _series_inverse_factor(series, m, bound):
    """Coefficients of series(t) / (1 - t^m): independent convolution oracle."""
    out = []
    for k in range(bound + 1):
        out.append(sum(series[k - j * m] for j in range(k // m + 1)))
    return out


def d_poly_extension():
    xs = [FreeElement.gen(CTX, i) for i in range(3)]
    f1 = RELS[0]
    return Presentation(
        CTX,
        [RELS[1], RELS[2], xs[1] * f1 - f1 * xs[1], xs[2] * f1 - f1 * xs[2]],
        label="poly3-ext",
    )


def test_ideal_basis_degree_two_is_relations():
    assert len(ideal_basis(A_POLY, 2)) == 3


def test_ideal_basis_degree_three_dimension():
    # 27 words minus the 10 cubic monomials of the commutative quotient
    assert len(ideal_basis(A_POLY, 3)) == 27 - 10


def test_free_algebra_has_zero_ideal():
    free = Presentation(Context(("x", "y"), 1), [], label="free2")
    for d in range(4):
        assert ideal_basis(free, d) == []
    assert hilbert_table(free, 3, "both").dims == (1, 2, 4, 8)


@pytest.mark.parametrize("rels", [["1"], ["x*y - y*x", "-3/2"]], ids=["one", "among-others"])
def test_a_degree_zero_relation_is_refused(rels):
    """A nonzero constant in the ideal makes the quotient zero in every
    degree, which the rewriting engine, matching only nonempty rule leads,
    would not see; such a presentation is refused rather than answered
    differently by the two engines."""
    ctx = Context(("x", "y"), 1)
    with pytest.raises(AlgebraError, match="degree 0"):
        Presentation(ctx, [parse_poly(r, ctx) for r in rels])


def test_hilbert_polynomial_ring_binomial_oracle():
    tab = hilbert_table(A_POLY, 8, engine="both")
    assert tab.dims == tuple(comb(k + 2, 2) for k in range(9))


def test_hilbert_extension_series_oracle():
    tab = hilbert_table(d_poly_extension(), 5, engine="both")
    poly_series = [comb(k + 2, 2) for k in range(6)]
    assert list(tab.dims) == _series_inverse_factor(poly_series, 2, 5)
    assert tab.dims == (1, 3, 7, 13, 22, 34)


def test_normal_form_commutator_rewrite():
    # deglex with x < y < z pivots on the larger word: yx -> xy
    nf = normal_form(parse_poly("y*x", CTX), A_POLY)
    assert nf == parse_poly("x*y", CTX)


def test_normal_form_of_relation_is_zero():
    assert normal_form(RELS[0], A_POLY).is_zero()
    assert normal_form(FreeElement.gen(CTX, 0) * RELS[0], A_POLY).is_zero()


def test_membership_examples():
    d = d_poly_extension()
    x = FreeElement.gen(CTX, 0)
    comm = x * RELS[0] - RELS[0] * x
    assert membership(comm, d, engine="both")
    assert not membership(parse_poly("x*x*x", CTX), A_POLY, engine="both")
    assert membership(FreeElement.zero(CTX), A_POLY)


def test_membership_is_linear_randomized():
    rng = random.Random(2718)
    basis = ideal_basis(A_POLY, 3)
    for _ in range(10):
        f = basis[rng.randrange(len(basis))]
        g = basis[rng.randrange(len(basis))]
        c = Scalar.from_rational(rng.randint(1, 5))
        assert membership(f + g.scale(c), A_POLY, engine="both")


def test_dimension_monotone_in_relations():
    smaller = Presentation(CTX, RELS[:2], label="partial")
    for d in range(5):
        assert len(ideal_basis(smaller, d)) <= len(ideal_basis(A_POLY, d))


def test_engine_agreement_on_quotients():
    for pres in (A_POLY, d_poly_extension()):
        hilbert_table(pres, 7, engine="both")  # raises on disagreement


def test_unit_mode_rejected():
    uctx = Context(("x", "y"), 12, ("a",), "unit")
    w = parse_poly("x*y - a*y*x", uctx)
    pres = Presentation(uctx, [w], label="unit")
    with pytest.raises(CoefficientModeError):
        hilbert_table(pres, 3)


def test_resource_limit_is_loud():
    eng = LinearEngine(d_poly_extension(), entry_limit=5)
    with pytest.raises(ResourceLimitError):
        eng.dims(6)
    # the limit counts every entry a level stores, rows copied from the
    # level below included
    full = LinearEngine(d_poly_extension(), entry_limit=None)
    full.extend(6)
    most = max(sum(map(len, level.pivots.values())) for level in full.levels)
    LinearEngine(d_poly_extension(), entry_limit=most).extend(6)
    with pytest.raises(ResourceLimitError):
        LinearEngine(d_poly_extension(), entry_limit=most - 1).extend(6)


def test_normal_words_above_the_completed_degree_extend_it():
    gb = GBState(A_POLY)
    gb.extend(3)
    assert gb.dims(5) == LinearEngine(A_POLY).dims(5) == [comb(k + 2, 2) for k in range(6)]
    assert gb.bound == 5


def test_normal_form_above_the_completed_degree_is_exact(corpus_entries, monkeypatch):
    """Completed at 4 and at 9, this D gives different normal forms for 111
    of the 224 words of degree 5-7.  A normal form extends the completion to
    its own degree, so gb and both answer what la and a completion at 9
    answer, whether the cache starts empty or already holds degree 9."""
    entry = corpus_entries["cubic_a"]
    spec = build_extension(Superpotential(field_w(entry)), parse_tuple("1,1", 12), 0)
    monos = [FreeElement.monomial(spec.ctx, w) for d in (5, 6, 7) for w in product(range(2), repeat=d)]
    at_four, at_nine = GBState(spec.D), GBState(spec.D)
    at_four.extend(4)
    at_nine.extend(9)
    assert sum(at_four._normal_form(f) != at_nine.normal_form(f) for f in monos) == 111
    la = GradedQuotient(spec.D, "la")
    for cached in (None, 9):
        monkeypatch.setattr(quotient, "_GB_CACHE", {})
        if cached is not None:
            GradedQuotient(spec.D, "gb").gb.extend(cached)
        for engine in ("gb", "both"):
            q = GradedQuotient(spec.D, engine)
            q.dims(4)
            for f in monos:
                assert q.normal_form(f) == la.normal_form(f) == at_nine.normal_form(f), (cached, engine, f)


def test_staged_completion_equals_one_completion(corpus_entries):
    """The truncated reduced system is unique, so extending degree by degree
    gives the rules and normal words of one extension to the same degree."""
    for pres, bound in corpus_presentations(corpus_entries):
        top = bound + 1  # m + 4
        staged, once = GBState(pres), GBState(pres)
        for d in range(top + 1):
            staged.extend(d)
        once.extend(top)
        assert staged.rules == once.rules, pres.label
        for d in range(top + 1):
            assert staged.normal_words(d) == once.normal_words(d), (pres.label, d)


def test_gb_state_is_deterministic():
    a = GBState(A_POLY)
    b = GBState(Presentation(CTX, RELS, label="poly3"))
    a.extend(6)
    b.extend(6)
    assert a.rules == b.rules
    assert a.log == b.log


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_word_codes_are_the_deglex_ranks(n):
    """Every word up to degree 4 in deglex order has the codes 0, 1, 2, ..."""
    words = sorted((w for d in range(5) for w in product(range(n), repeat=d)), key=word_key)
    assert [word_code(w, n) for w in words] == list(range(len(words)))
    assert [code_word(c, n) for c in range(len(words))] == words


class UnprunedEngine(LinearEngine):
    """Reference engine that offers r * v for every word v, standard or not."""

    def _relation_rows(self, d):
        n = self.pres.ctx.n
        for r in self.pres.relations:
            if r.degree > d:
                continue
            for v in product(range(n), repeat=d - r.degree):  # increasing code
                yield {word_code(u + v, n): c for u, c in r.terms.items()}


def corpus_presentations(entries):
    """(A, bound m+3) and (D, bound m+3) for every corpus entry, instance and bad tuple."""
    out = []
    for entry in sorted(entries.values(), key=lambda e: e.name):
        sp = Superpotential(field_w(entry))
        out.append((Presentation(sp.ctx, sp.f, label=f"A({entry.name})"), sp.m + 3))
        specs = [(sp, ptext, int(k) - 1) for k, ptext in entry.expect.get("bad", {}).items()]
        for k0, ptext, assign, _label in field_instances(entry):
            specs.append((Superpotential(field_w(entry, assign)), ptext, k0))
        for spk, ptext, k0 in specs:
            spec = build_extension(spk, parse_tuple(ptext, entry.algebra.conductor), k0)
            out.append((spec.D, spk.m + 3))
    return out


@pytest.fixture(scope="module")
def completed(corpus_entries):
    """Every corpus presentation completed at m+2."""
    states = []
    for pres, bound in corpus_presentations(corpus_entries):
        state = GBState(pres)
        state.extend(bound - 1)
        states.append(state)
    return states


def test_standard_word_pruning_keeps_every_level(corpus_entries):
    presentations = corpus_presentations(corpus_entries)
    assert len(presentations) == 29
    for pres, bound in presentations:
        pruned, full = LinearEngine(pres), UnprunedEngine(pres)
        pruned.extend(bound)
        full.extend(bound)
        for d in range(bound + 1):
            got, want = pruned.levels[d], full.levels[d]
            assert got.rank == want.rank, (pres.label, d)
            assert set(got.pivots) == set(want.pivots), (pres.label, d)
            assert got.pivots == want.pivots, (pres.label, d)
            # the standard words listed from the degree below are the
            # non-pivots among all n^d words
            n = pres.ctx.n
            first = word_code((0,) * d, n)
            scan = [code_word(c, n) for c in range(first, first + n**d) if c not in want.pivots]
            assert pruned.normal_words(d) == scan, (pres.label, d)


def test_engines_agree_on_normal_words_and_forms(completed):
    """The LA pivots are the deglex leading words, so the standard words are
    the GB normal words and the two normal forms agree term by term."""
    for gb in completed:
        pres, la = gb.pres, LinearEngine(gb.pres)
        for d in range(gb.bound + 1):
            assert la.normal_words(d) == gb.normal_words(d), (pres.label, d)
            for word in product(range(pres.ctx.n), repeat=d):
                f = FreeElement.monomial(pres.ctx, word)
                assert la.normal_form(f) == gb.normal_form(f), (pres.label, word)


def w_poly_extension(corpus_entries):
    entry = corpus_entries["w_poly"]
    return build_extension(Superpotential(field_w(entry)), parse_tuple("1,1,1", 12), 0)


def test_la_certificate_builds_no_rewriting_system(corpus_entries, monkeypatch):
    spec = w_poly_extension(corpus_entries)
    want = full_certificate(spec, bound=5, engine="gb").dumps()

    def refuse(*_args, **_kwargs):
        raise AssertionError("the la engine built a rewriting system")

    monkeypatch.setattr(quotient, "_GB_CACHE", {})
    monkeypatch.setattr(GBState, "__init__", refuse)
    assert full_certificate(spec, bound=5, engine="la").dumps() == want


def test_both_engines_catch_a_perturbed_la_normal_form(corpus_entries, monkeypatch):
    honest = LinearEngine.normal_form

    def doubled(self, f):
        nf = honest(self, f)
        return nf + nf

    monkeypatch.setattr(LinearEngine, "normal_form", doubled)
    with pytest.raises(EngineDisagreementError):
        GradedQuotient(A_POLY, "both").normal_form(parse_poly("y*x*x", CTX))
    with pytest.raises(EngineDisagreementError):
        full_certificate(w_poly_extension(corpus_entries), bound=5, engine="both")


@pytest.mark.parametrize("engine", ["la", "gb", "both"])
def test_normal_form_promotes_a_smaller_conductor(engine):
    """A coefficient of Q inside an element over Q(zeta_3) is read at N=3."""
    ctx = Context(("x", "y"), 3)
    pres = Presentation(ctx, [parse_poly("y*x + z*x*y", ctx)], label="yx")
    f = FreeElement.monomial(ctx, (1, 0), Scalar.from_rational(5))
    nf = GradedQuotient(pres, engine).normal_form(f)
    assert nf == FreeElement.monomial(ctx, (0, 1), Scalar.from_rational(-5, 3) * Scalar.zeta(3))


def declared_at(name, old, new):
    """The corpus algebra `name`, its `field cyclotomic old` line read as `new`."""
    text = (default_corpus_path() / f"{name}.alg").read_text()
    assert f"field cyclotomic {old}\n" in text
    af = parse_algebra(text.replace(f"field cyclotomic {old}\n", f"field cyclotomic {new}\n"))
    asg = af.assignment()
    return Superpotential(af.w.specialize(asg) if asg is not None else af.w)


@pytest.mark.parametrize("name, old, new", [("sklyanin", 3, 6), ("w_poly", 12, 24)])
def test_dims_do_not_depend_on_the_declared_conductor(corpus_entries, name, old, new):
    """Q(zeta_N) lies in Q(zeta_kN), so declaring an algebra at kN changes no
    dimension.  Q(zeta_6) = Q(zeta_3) is one field with a second kernel; at
    24 the numerators double to d = 8.  Each tuple is parsed at N and promoted."""
    entry = corpus_entries[name]
    tuples = [(k0, ptext) for k0, ptext, _assign, _label in field_instances(entry)]
    tuples += [(int(k) - 1, ptext) for k, ptext in entry.expect["bad"].items()]
    tables = {}
    for conductor in (old, new):
        sp = declared_at(name, old, conductor)
        assert sp.ctx.conductor == conductor
        presentations = [Presentation(sp.ctx, sp.f, label="A")]
        for k0, ptext in tuples:
            p = tuple(s.promote(conductor) for s in parse_tuple(ptext, old))
            presentations.append(build_extension(sp, p, k0).D)
        for engine in ("la", "gb"):
            tables[conductor, engine] = [
                hilbert_table(pres, sp.m + 2, engine).dims for pres in presentations
            ]
    assert tables[old, "la"] == tables[old, "gb"] == tables[new, "la"] == tables[new, "gb"]


def reference_find_occurrence(state, word):
    """The scan the dict lookup replaced: every lead at every position,
    the smallest lead first among those starting at one position."""
    for pos in range(len(word)):
        best = None
        for lead in state.rules:
            if word[pos : pos + len(lead)] == lead:
                if best is None or word_key(lead) < word_key(best):
                    best = lead
        if best is not None:
            return pos, best
    return None


def reference_normal_form(state, f):
    """The rewriting loop before the fused kernel op: the deglex-largest
    word first, two scalar ops per tail term."""
    work = dict(f.terms)
    out = {}
    while work:
        word = max(work, key=word_key)
        coeff = work.pop(word)
        occ = reference_find_occurrence(state, word)
        if occ is None:
            s = out[word] + coeff if word in out else coeff
            if s.is_zero():
                out.pop(word, None)
            else:
                out[word] = s
            continue
        pos, lead = occ
        u, v = word[:pos], word[pos + len(lead) :]
        for tw, tc in state.rules[lead].terms.items():
            nw = u + tw + v
            add = coeff * tc
            s = work[nw] + add if nw in work else add
            if s.is_zero():
                work.pop(nw, None)
            else:
                work[nw] = s
    return out


def exact_terms(terms):
    return {w: (c.n, c.num, c.den) for w, c in terms.items()}


def test_rule_leads_form_an_antichain(completed):
    for gb in completed:
        for lead in gb.rules:
            for other in gb.rules:
                if other != lead:
                    starts = range(len(other) - len(lead) + 1)
                    assert all(other[i : i + len(lead)] != lead for i in starts), (lead, other)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_rewriting_matches_the_reference_scan(completed, data):
    for gb in completed:
        ctx = gb.pres.ctx
        words = st.lists(st.integers(0, ctx.n - 1), max_size=gb.bound).map(tuple)
        dim = len(cyclotomic_poly(ctx.conductor)) - 1
        scalars = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(
            lambda c: Scalar(ctx.conductor, c)
        )
        for word in data.draw(st.lists(words, min_size=1, max_size=3)):
            assert gb._find_occurrence(word) == reference_find_occurrence(gb, word)
        f = FreeElement(ctx, data.draw(st.dictionaries(words, scalars, max_size=6)))
        want = reference_normal_form(gb, f)
        assert exact_terms(gb.normal_form(f).terms) == exact_terms(want), gb.pres.label


def a_and_one_good_d(entries):
    """(A, m) and (D, m) of every corpus entry, D at its first instance."""
    out = []
    for entry in sorted(entries.values(), key=lambda e: e.name):
        k0, ptext, assign, _label = field_instances(entry)[0]
        sp = Superpotential(field_w(entry, assign))
        spec = build_extension(sp, parse_tuple(ptext, entry.algebra.conductor), k0)
        out += [(spec.A, sp.m), (spec.D, sp.m)]
    return out


def test_normal_word_sets_agree_with_the_scan_across_staged_completion(corpus_entries):
    """Normal words listed degree by degree stay the words with no lead
    while the completion is extended further, since every lead added later
    is longer than every listed word; normal forms read off the sets equal
    the reference loop's against the final rules."""
    for pres, m in a_and_one_good_d(corpus_entries):
        state = GBState(pres)
        for d in range(m + 4):
            state.normal_words(d)
        state.extend(m + 5)
        for d in range(m + 4):
            for word in product(range(pres.ctx.n), repeat=d):
                normal = reference_find_occurrence(state, word) is None
                assert (word in state._normal[d]) == normal, (pres.label, word)
                f = FreeElement.monomial(pres.ctx, word)
                want = exact_terms(reference_normal_form(state, f))
                assert exact_terms(state.normal_form(f).terms) == want, (pres.label, word)
