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
