"""Exact sparse linear algebra over Q(zeta_N) and integer Smith form.

Rows are dicts mapping a totally ordered column key (any comparable
hashable, in practice word tuples) to nonzero ``Scalar`` values.  Pivoting
always uses the largest column key of a row, so reduction order is
deterministic and reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import sc_fms


class ResourceLimitError(RuntimeError):
    pass


class RowReducer:
    """Incremental triangular basis with monic pivots on the largest key."""

    def __init__(self, entry_limit: int | None = None) -> None:
        self.pivots: dict = {}  # pivot key -> monic row
        self.entry_limit = entry_limit
        self._entries = 0

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

    def insert(self, row: dict) -> bool:
        """Reduce then insert; True if the row enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = row[lead].inv()
        monic = {k: v * inv for k, v in row.items()}
        self.pivots[lead] = monic
        self._entries += len(monic)
        if self.entry_limit is not None and self._entries > self.entry_limit:
            raise ResourceLimitError(
                f"row reducer exceeded entry limit {self.entry_limit}"
            )
        return True

    def insert_pivot_row(self, row: dict) -> None:
        """Insert a row already known to have a fresh leading key (monic)."""
        lead = max(row)
        assert lead not in self.pivots
        self.pivots[lead] = row
        self._entries += len(row)
        if self.entry_limit is not None and self._entries > self.entry_limit:
            raise ResourceLimitError(
                f"row reducer exceeded entry limit {self.entry_limit}"
            )

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def rows(self) -> list[dict]:
        return [self.pivots[k] for k in sorted(self.pivots)]


def rank_of_rows(rows) -> int:
    red = RowReducer()
    for r in rows:
        red.insert(r)
    return red.rank


def solve_rational(mat: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of mat*x = rhs over Q, or None; mat is dense rows."""
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(mat, rhs)]
    ncols = len(mat[0]) if mat else 0
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for j in range(len(row)):
                    row[j] -= f * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is None:
            if row[ncols]:
                return None
            continue
        inv = 1 / row[lead]
        pivots.append((lead, [v * inv for v in row]))
    x = [Fraction(0)] * ncols
    for col, prow in reversed(pivots):
        s = prow[ncols]
        for j in range(col + 1, ncols):
            s -= prow[j] * x[j]
        x[col] = s
    return x


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
