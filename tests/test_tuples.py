import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normext.cli import default_corpus_path, load_corpus
from normext.dsl import parse_poly, parse_unit
from normext.freealg import Context
from normext.linalg import RowReducer, diagonalize_integer_matrix
from normext.scalars import Assignment, Scalar, ScalarError, UnitExponentError, UnitScalar
from normext.superpotential import Superpotential
from normext.tuples import (
    ConstraintSystem,
    SolutionFamily,
    SolveError,
    _validate_family,
    goodness_system,
    is_good,
    matrix_goodness_system,
    solve_units,
    w_hash,
)

CTX = Context(("x", "y", "z"), 1)
W_POLY = parse_poly("x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z", CTX)
SP_POLY = Superpotential(W_POLY)

UCTX = Context(("x", "y"), 12, ("alpha",))
W_S2 = parse_poly("x*x*y*y + alpha*x*y*y*x + alpha^{2}*y*y*x*x - alpha*y*x*x*y", UCTX)
SP_S2 = Superpotential(W_S2)

SCTX = Context(("x", "y", "z"), 3, ("a", "b", "c"))
W_SKLY = parse_poly(
    "a*x*y*z + a*y*z*x + a*z*x*y + b*x*z*y + b*z*y*x + b*y*x*z"
    " + c*x*x*x + c*y*y*y + c*z*z*z",
    SCTX,
)
SP_SKLY = Superpotential(W_SKLY)

HCTX = Context(("x", "y"), 1, ("a", "b", "c"))
W_CUBIC_A = parse_poly(
    "a*x*x*y*y + a*y*y*x*x + a*x*y*y*x + a*y*x*x*y + b*x*y*x*y + b*y*x*y*x"
    " + c*x*x*x*x + c*y*y*y*y",
    HCTX,
)
SP_CUBIC_A = Superpotential(W_CUBIC_A)


def units(text, ctx):
    return [parse_unit(part, ctx.conductor, ctx.params) for part in text.split(",")]


def test_system_poly_dedupes_to_two_rows():
    sys1 = goodness_system(SP_POLY, 0)
    assert len(sys1.rows) == 2
    assert sys1.rows[0][0] == (1, 0, 0)
    assert sys1.rows[1][0] == (1, 1, 1)


def test_system_s2_single_monomial_row():
    sys1 = goodness_system(SP_S2, 0)
    assert len(sys1.rows) == 2
    assert sys1.rows[1][0] == (2, 2)
    assert sys1.rows[1][1] == UnitScalar(0, (Fraction(1),))  # q_1 = alpha


def test_system_sklyanin_five_rows():
    sys1 = goodness_system(SP_SKLY, 0)
    counts = {r[0] for r in sys1.rows}
    assert counts == {(1, 0, 0), (1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3)}


def test_solver_cubic_a_pm_one():
    for k, expected in ((0, [("1", "1"), ("1", "-1")]), (1, [("1", "1"), ("-1", "1")])):
        fams = solve_units(goodness_system(SP_CUBIC_A, k))
        assert len(fams) == 1
        fam = fams[0]
        assert not fam.directions and len(fam.cosets) == 2
        members = {tuple(fam.entry_texts(i)) for i in range(2)}
        assert members == {e for e in map(tuple, expected)}


def test_solver_s2_square_roots():
    fam = solve_units(goodness_system(SP_S2, 0), w_hash(W_S2))[0]
    assert len(fam.cosets) == 2 and not fam.directions
    assert fam.contains(units("alpha,alpha^{-1/2}", UCTX))
    assert fam.contains(units("alpha,-alpha^{-1/2}", UCTX))
    assert not fam.contains(units("alpha,alpha^{1/2}", UCTX))


def test_solver_poly_free_direction():
    fam = solve_units(goodness_system(SP_POLY, 0))[0]
    assert len(fam.cosets) == 1 and len(fam.directions) == 1
    assert fam.entry_texts() == ["1", "l1", "l1^{-1}"]


def test_solver_inconsistent_system_is_empty():
    # p_1 = 1 and p_1^2 = -1 clash in the torsion; p_1 = a and p_1^2 = a
    # clash in the exponent of a
    a = UnitScalar.param(0, 1)
    for params, rows in (
        ((), (((1, 0), UnitScalar.one(0)), ((2, 0), UnitScalar.minus_one(0)))),
        (("a",), (((1, 0), a), ((2, 0), a))),
    ):
        sys1 = ConstraintSystem(params=params, n=2, k=0, rows=rows, labels=("a", "b"))
        assert solve_units(sys1) == []


def test_solver_refuses_cosets_past_the_exponent_cap():
    """p^13 = 1 has the 13 cosets j/13; the cap of 12 on exponent
    denominators refuses them in the solver, not later in to_json."""
    system = ConstraintSystem(params=(), n=1, k=0, rows=(((13,), UnitScalar.one()),), labels=("r",))
    with pytest.raises(UnitExponentError, match="exponent denominator 13 exceeds cap 12"):
        solve_units(system)


def test_is_good_examples():
    one = Scalar.one(1)
    assert is_good(SP_POLY, 0, (one, one, one))
    bad = is_good(SP_POLY, 0, (one, Scalar.from_rational(2), one))
    assert not bad and bad.witness is not None
    with pytest.raises(ValueError):
        is_good(SP_POLY, 0, (Scalar.from_rational(2), one, one))  # p_k != q_k


def test_is_good_sklyanin_cube_roots():
    asg = Assignment(("a", "b", "c"), {"a": 1, "b": 1, "c": 2}, conductor=3)
    w = W_SKLY.specialize(asg)
    sp = Superpotential(w)
    one = Scalar.one(3)
    z = Scalar.zeta(3)
    assert is_good(sp, 0, (one, z, z * z))
    assert not is_good(sp, 0, (one, z, z))


def test_condition_three_four_equivalence():
    for sp, k in (
        (SP_POLY, 0),
        (SP_POLY, 1),
        (SP_S2, 0),
        (SP_S2, 1),
        (SP_SKLY, 0),
        (SP_SKLY, 2),
        (SP_CUBIC_A, 0),
        (SP_CUBIC_A, 1),
    ):
        a = goodness_system(sp, k)
        b = matrix_goodness_system(sp, k)
        assert set(a.rows) == set(b.rows)


def test_family_members_specialize_to_good():
    fam = solve_units(goodness_system(SP_S2, 0), w_hash(W_S2))[0]
    names = tuple(fam.params) + fam.symbols
    values = {"alpha": 4, **{s: 1 for s in fam.symbols}}
    asg = Assignment(names, values, {("alpha", 2): 2}, conductor=12)
    w4 = W_S2.specialize(Assignment(("alpha",), {"alpha": 4}, {("alpha", 2): 2}, 12))
    sp4 = Superpotential(w4)
    for ci in range(len(fam.cosets)):
        member = fam.member_units(ci)
        p = tuple(asg.specialize(u) for u in member)
        assert is_good(sp4, 0, p)


def test_family_members_specialize_to_good_with_free_symbol():
    fam = solve_units(goodness_system(SP_POLY, 0))[0]
    for lval, roots in ((3, {}), (Fraction(1, 2), {}), (Scalar.zeta(12, 4), {})):
        asg = Assignment(("l1",), {"l1": lval}, roots, conductor=12)
        member = fam.member_units(0)
        p = tuple(asg.specialize(u) for u in member)
        w12 = parse_poly(
            "x*y*z + y*z*x + z*x*y - x*z*y - z*y*x - y*x*z",
            Context(("x", "y", "z"), 12),
        )
        assert is_good(Superpotential(w12), 0, p)


def test_identity_tuple_good_for_identity_twist_all_k():
    for sp in (SP_POLY, SP_SKLY, SP_CUBIC_A):
        for k in range(sp.n):
            fam = solve_units(goodness_system(sp, k))[0]
            nparams = len(sp.ctx.params)
            ones = [UnitScalar.one(nparams)] * sp.n
            assert fam.contains(ones)


def test_twist_power_tuples_good_when_q1_is_one():
    # three-generator skew family tuned to q = (1, b, b^{-1})
    ctx = Context(("x", "y", "z"), 12, ("b",))
    w = parse_poly(
        "x*y*z + y*z*x + b*z*x*y - b*x*z*y - b*z*y*x - y*x*z", ctx
    )
    sp = Superpotential(w)
    q = sp.twist.scales
    assert q[0].is_one()
    fam = solve_units(goodness_system(sp, 0))[0]
    for j in (-2, -1, 0, 1, 2, 3):
        tup = [UnitScalar.one(1), q[1].pow(j), q[2].pow(j)]
        assert fam.contains(tup), j


def test_solution_serialization_carries_provenance():
    digest = w_hash(W_S2)
    fam = solve_units(goodness_system(SP_S2, 0), digest)[0]
    blob = fam.to_json(12)
    assert blob["provenance"] == {"w_hash": digest, "k": 1}
    assert blob["particular"] == ["alpha", "alpha^{-1/2}"]
    assert len(blob["members"]) == 2


# -- the span test against the two routines it replaced -------------------------


def rational_span_reference(vectors, target) -> bool:
    """Is target a rational combination of vectors?  Row reduction over Q."""

    def sparse(vec) -> dict:
        return {i: Scalar.from_rational(x) for i, x in enumerate(vec) if x}

    return RowReducer(map(sparse, vectors)).contains(sparse(target))


def torsion_reference(vectors, n, delta) -> bool:
    """Is delta a rational combination of vectors plus an integer vector?
    Diagonalizes the vectors afresh on every call."""
    if all(x % 1 == 0 for x in delta):
        return True
    if not vectors:
        return False
    s, u, _v = diagonalize_integer_matrix([[vec[i] for vec in vectors] for i in range(n)])
    rank = sum(1 for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i])
    udelta = [sum(Fraction(u[i][j]) * delta[j] for j in range(n)) for i in range(n)]
    return all(udelta[i] % 1 == 0 for i in range(rank, n))


def family_with_directions(n, vectors, cosets=None) -> SolutionFamily:
    return SolutionFamily(
        params=(),
        n=n,
        k=0,
        particular=tuple(UnitScalar.one(0) for _ in range(n)),
        directions=tuple((f"l{d + 1}", tuple(vec)) for d, vec in enumerate(vectors)),
        cosets=cosets or (tuple([Fraction(0)] * n),),
    )


@st.composite
def directions_and_vector(draw):
    """n <= 4 letters, r <= 3 integer directions with entries in -3..3, and
    a rational vector that is a combination of them half the time."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if draw(st.booleans()):
        coeffs = [draw(small) for _ in vectors]
        x = [sum((c * vec[i] for c, vec in zip(coeffs, vectors)), Fraction(0)) for i in range(n)]
    else:
        x = [draw(small) for _ in range(n)]
    shift = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return n, vectors, x, shift


@settings(max_examples=400, deadline=None, derandomize=True)
@given(directions_and_vector())
def test_span_residues_agree_with_both_replaced_routines(case):
    """All residues zero is rational-span membership; all residues integral
    is membership up to an integer vector, shifted or not."""
    n, vectors, x, shift = case
    fam = family_with_directions(n, vectors)
    assert (not any(fam._span_residues(x))) == rational_span_reference(vectors, x)
    for y in (x, [a + b for a, b in zip(x, shift)]):
        integral = all(r.denominator == 1 for r in fam._span_residues(y))
        assert integral == torsion_reference(vectors, n, y)


# -- the solver's cosets are distinct without a deduplication pass --------------


def assert_cosets_distinct(system, fam):
    """No two cosets differ by a rational combination of the directions plus
    an integer vector, and the family solves the system."""
    _validate_family(system, fam)
    vectors = [vec for _, vec in fam.directions]
    for a, b in itertools.combinations(fam.cosets, 2):
        assert not torsion_reference(vectors, fam.n, [x - y for x, y in zip(a, b)]), (a, b)


def test_corpus_solutions_have_distinct_cosets():
    for entry in load_corpus(default_corpus_path()):
        sp = Superpotential(entry.algebra.w)
        for k in range(sp.n):
            system = goodness_system(sp, k)
            for fam in solve_units(system):
                assert_cosets_distinct(system, fam)


def test_random_solutions_have_distinct_cosets():
    """n <= 4 unknowns, at most 5 rows with counts 0..3, torsion right-hand
    sides in (1/12)Z."""
    rng = random.Random(20)
    solved = both = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        rows = tuple(
            (tuple(rng.randint(0, 3) for _ in range(n)), UnitScalar(Fraction(rng.randrange(12), 12)))
            for _ in range(rng.randint(1, 5))
        )
        system = ConstraintSystem(
            params=(), n=n, k=0, rows=rows, labels=tuple("r" * len(rows))
        )
        try:
            fams = solve_units(system)
        except (SolveError, ScalarError):
            continue
        for fam in fams:
            assert_cosets_distinct(system, fam)
            solved += 1
            both += bool(fam.directions) and len(fam.cosets) > 1
    assert solved >= 200 and both >= 10, (solved, both)


def test_containment_sees_every_coset_and_direction():
    """A family with two cosets and a direction contains its own members
    and shifts along the direction, and nothing off them."""
    fam = family_with_directions(
        2, [(1, 1)], (tuple([Fraction(0)] * 2), (Fraction(1, 2), Fraction(0)))
    )
    assert fam.contains([UnitScalar(Fraction(1, 2)), UnitScalar(0)])
    assert fam.contains([UnitScalar(Fraction(1, 3)), UnitScalar(Fraction(1, 3))])
    assert fam.contains([UnitScalar(Fraction(5, 6)), UnitScalar(Fraction(1, 3))])
    assert not fam.contains([UnitScalar(Fraction(1, 4)), UnitScalar(0)])
    narrow = family_with_directions(2, [])
    assert fam.contains_family(narrow) and not narrow.contains_family(fam)


def test_matrix_system_refuses_an_omitted_index_out_of_range():
    for k in (-1, SP_POLY.n):
        with pytest.raises(SolveError):
            matrix_goodness_system(SP_POLY, k)
        with pytest.raises(SolveError):
            goodness_system(SP_POLY, k)


# -- the solver against the system, point by point ------------------------------


def test_random_solution_sets_are_exactly_the_solutions_on_a_grid():
    """n <= 3 unknowns, at most 3 rows with counts 0..3 and torsion
    right-hand sides in (1/12)Z, no parameters.  On the grid
    ((1/12)Z/Z)^n a tuple lies in a returned family exactly when it solves
    the system: the families are sound and complete, and [] is returned
    only for a system with no solution there."""
    rng = random.Random(26)
    twelfths = [UnitScalar(Fraction(j, 12)) for j in range(12)]
    grids = {n: list(itertools.product(twelfths, repeat=n)) for n in (1, 2, 3)}
    solved = empty = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = tuple(
            (tuple(rng.randint(0, 3) for _ in range(n)), UnitScalar(Fraction(rng.randrange(12), 12)))
            for _ in range(rng.randint(1, 3))
        )
        system = ConstraintSystem(
            params=(), n=n, k=0, rows=rows, labels=tuple("r" * len(rows))
        )
        try:
            fams = solve_units(system)
        except ScalarError:  # a solution beyond the exponent cap
            continue
        solved += bool(fams)
        empty += not fams
        for t in grids[n]:
            assert any(f.contains(t) for f in fams) == system.check_member(t), (rows, t)
    assert solved >= 20 and empty >= 20, (solved, empty)
