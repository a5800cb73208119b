from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from normext.linalg import RowReducer, solve
from normext.scalars import Scalar, cyclotomic_poly

KEYS = [(a, b) for a in range(3) for b in range(3)]
FRESH = (9, 9)


@st.composite
def scalars(draw, n):
    d = len(cyclotomic_poly(n)) - 1
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return Scalar(n, draw(st.lists(small, min_size=d, max_size=d)))


def combine(vectors, coeffs) -> dict:
    """sum_j coeffs[j] * vectors[j] as a sparse row without zeros."""
    out: dict = {}
    for vec, c in zip(vectors, coeffs):
        for k, v in vec.items():
            out[k] = out[k] + c * v if k in out else c * v
    return {k: v for k, v in out.items() if not v.is_zero()}


@st.composite
def systems(draw):
    """(vectors, coefficients): sparse vectors at one conductor, some of
    them combinations of earlier ones, and one coefficient per vector."""
    n = draw(st.sampled_from([1, 3, 12]))
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        if vectors and draw(st.booleans()):
            coeffs = [draw(scalars(n)) for _ in vectors]
            vectors.append(combine(vectors, coeffs))
        else:
            keys = draw(st.lists(st.sampled_from(KEYS), max_size=4, unique=True))
            vec = {k: draw(scalars(n)) for k in keys}
            vectors.append({k: v for k, v in vec.items() if not v.is_zero()})
    return n, vectors, [draw(scalars(n)) for _ in vectors]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(systems())
def test_solve_and_contains_agree_with_the_span(system):
    n, vectors, coeffs = system
    target = combine(vectors, coeffs)
    x = solve(vectors, target)
    assert x is not None and len(x) == len(vectors)
    assert combine(vectors, x) == target
    assert solve(vectors, {**target, FRESH: Scalar.one(n)}) is None
    red = RowReducer(vectors)
    earlier = set()  # every stored row is reduced against the pivots before it
    for lead, row in red.pivots.items():
        assert earlier.isdisjoint(row)
        earlier.add(lead)
    assert red.contains(target)
    assert not red.contains({**target, FRESH: Scalar.one(n)})


def reference_normal_form(pivots: dict, row: dict) -> dict:
    """The reduction loop before irreducible keys bypassed the ordering: pop
    the largest key, cancel it by its pivot row if it has one and keep it
    otherwise, with two scalar ops per entry."""
    work = dict(row)
    out = {}
    while work:
        lead = max(work)
        c = work.pop(lead)
        piv = pivots.get(lead)
        if piv is None:
            out[lead] = c
            continue
        for k, v in piv.items():
            if k == lead:
                continue
            s = work[k] - c * v if k in work else -(c * v)
            if s.is_zero():
                work.pop(k, None)
            else:
                work[k] = s
    return out


@st.composite
def rows(draw, n, keys=range(12)):
    """A sparse row over integer keys; if asked, its largest key carries 1."""
    picked = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
    row = {k: draw(scalars(n)) for k in picked}
    if draw(st.booleans()):
        row[max(picked)] = Scalar.one(n)
    return {k: v for k, v in row.items() if not v.is_zero()}


@st.composite
def reducers(draw):
    """(n, inserted rows, rows to reduce) over Q or Q(zeta_3)."""
    n = draw(st.sampled_from([1, 3]))
    inserted = draw(st.lists(rows(n), max_size=8))
    return n, inserted, draw(st.lists(rows(n), min_size=1, max_size=4))


def exact(row: dict) -> dict:
    return {k: (c.n, c.num, c.den) for k, c in row.items()}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(reducers())
def test_normal_form_equals_the_reference_loop(case):
    n, inserted, probes = case
    red = RowReducer()
    for row in inserted:
        before = dict(red.pivots)
        grew = red.insert(row)
        assert exact(red.normal_form(row)) == {}
        assert grew == bool(reference_normal_form(before, row))
    for lead, row in red.pivots.items():
        assert lead == max(row) and row[lead].is_one(), "stored pivot rows are monic"
        assert next(iter(row)) is lead, "a stored row lists its lead first, as the pivot key"
    for row in [*inserted, *probes]:
        assert exact(red.normal_form(row)) == exact(reference_normal_form(red.pivots, row))
