"""Exact sparse linear algebra over Q(zeta_N) and integer Smith form.

Rows are dicts mapping a totally ordered column key (any comparable
hashable, in practice word tuples) to nonzero ``Scalar`` values.  Pivoting
always uses the largest column key of a row, so reduction order is
deterministic and reproducible.  ``kernel`` and ``solve`` answer the
dense questions (the relations among vectors, one solution of a linear
system) on the same reducer.
"""

from __future__ import annotations

from .scalars import Scalar, sc_fms


class ResourceLimitError(RuntimeError):
    pass


class RowReducer:
    """Incremental triangular basis with monic pivots on the largest key."""

    def __init__(self, rows=(), entry_limit: int | None = None) -> None:
        self.pivots: dict = {}  # pivot key -> monic row
        self.entry_limit = entry_limit
        self._entries = 0
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Reduce the leading term of row against the basis until stable."""
        if not row:
            return row
        work = dict(row)
        get_piv = self.pivots.get
        while work:
            lead = max(work)
            piv = get_piv(lead)
            if piv is None:
                return work
            c = work.pop(lead)
            for k, v in piv.items():
                if k == lead:
                    continue
                nv = sc_fms(work.get(k), c, v)
                if nv is None:
                    work.pop(k, None)
                else:
                    work[k] = nv
        return work

    def normal_form(self, row: dict) -> dict:
        """Reduce every term of row, so that no key of the result is a pivot:
        as ``reduce``, but a lead without a pivot moves to the result."""
        out = {}
        work = dict(row)
        get_piv = self.pivots.get
        while work:
            lead = max(work)
            c = work.pop(lead)
            piv = get_piv(lead)
            if piv is None:
                out[lead] = c
                continue
            for k, v in piv.items():
                if k == lead:
                    continue
                nv = sc_fms(work.get(k), c, v)
                if nv is None:
                    work.pop(k, None)
                else:
                    work[k] = nv
        return out

    def insert(self, row: dict) -> bool:
        """Reduce then insert; True if the row enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = row[lead].inv()
        self._store(lead, {k: v * inv for k, v in row.items()})
        return True

    def insert_pivot_row(self, row: dict) -> None:
        """Insert a row already known to have a fresh leading key (monic)."""
        lead = max(row)
        assert lead not in self.pivots
        self._store(lead, row)

    def _store(self, lead, row: dict) -> None:
        self.pivots[lead] = row
        self._entries += len(row)
        if self.entry_limit is not None and self._entries > self.entry_limit:
            raise ResourceLimitError(
                f"row reducer exceeded entry limit {self.entry_limit}"
            )

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


# kernel and solve reduce vector j as the row {(1, k): vector[k]} plus a unit
# tag at (0, j).  Every tag sorts below every data key, so a reduced row
# whose lead is a tag has no data left, and its tags are the coefficients
# of a relation among the vectors.


def _tagged(j: int, vector: dict, one: Scalar) -> dict:
    row = {(1, k): c for k, c in vector.items()}
    row[(0, j)] = one
    return row


def _one(vectors) -> Scalar:
    """The unit of the vectors' conductor (1 when every vector is zero)."""
    for v in vectors:
        for c in v.values():
            return Scalar.one(c.n)
    return Scalar.one()


def kernel(vectors) -> list[list[Scalar]]:
    """A basis of the x with sum_j x_j * vectors[j] = 0, as dense lists.

    Vectors are sparse rows over one conductor.
    """
    vectors = list(vectors)
    one = _one(vectors)
    red = RowReducer(_tagged(j, v, one) for j, v in enumerate(vectors))
    zero = Scalar.zero(one.n)
    return [
        [row.get((0, j), zero) for j in range(len(vectors))]
        for lead, row in sorted(red.pivots.items())
        if lead[0] == 0
    ]


def solve(vectors, target: dict) -> list[Scalar] | None:
    """x with sum_j x_j * vectors[j] = target, or None if target is not in
    the span.  x_j = 0 for every vectors[j] in the span of vectors[:j], so
    the solution is unique."""
    vectors = list(vectors)
    one = _one([*vectors, target])
    red = RowReducer(_tagged(j, v, one) for j, v in enumerate(vectors))
    rest = red.reduce(_tagged(len(vectors), target, one))
    if max(rest)[0] == 1:
        return None
    zero = Scalar.zero(one.n)
    # rest = target + tag - sum_j x_j (vectors[j] + tag_j), with no data left
    return [-rest[(0, j)] if (0, j) in rest else zero for j in range(len(vectors))]


def diagonalize_integer_matrix(a: list[list[int]]):
    """(S, U, V) with U*A*V = S diagonal and nonnegative, U and V unimodular.

    Smith-style elimination; the divisibility chain is not enforced since
    congruence solving only needs a diagonal form.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(map(int, row)) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while True:
        found = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j]:
                    if found is None or abs(s[i][j]) < abs(s[found[0]][found[1]]):
                        found = (i, j)
        if found is None:
            break
        i, j = found
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    addmul_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    addmul_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        if s[t][t] < 0:
            addmul_row(t, t, -2)
        t += 1
        if t == min(m, n):
            break
    return s, u, v
