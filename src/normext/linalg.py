"""Exact sparse linear algebra over Q(zeta_N) and integer Smith form.

Rows are dicts mapping a totally ordered, hashable column key to nonzero
``Scalar`` values: ``word_code`` integers in the LA engine, word tuples for
``FreeElement.terms``, and (block, key) tuples where one row carries two
blocks (``solve``, the superpotential's Zassenhaus intersection).  Pivoting
always uses the largest key of a row, so reduction order is deterministic.

``RowReducer.normal_form`` is the one reduction loop: ``insert``,
``contains`` and ``solve`` all call it.  Keys without a pivot are final
and bypass the ordering; only keys with a pivot are cancelled, largest
first.  A row stored by ``insert`` is therefore fully reduced against the
pivots stored before it, monic at its largest key (it is rescaled only
when its lead coefficient is not already one), and lists that key first.
The pivot set, the rank and every normal form depend only on the span and
the key order, not on which basis of the span is stored.

``take_shifted`` holds the pivot rows of another reducer under integer
keys moved by a shift, unbuilt: the pivot under key lead is the row object
below, whose first key is its own lead, so lead minus that first key is
the shift.  ``normal_form`` builds such a row into a plain dict the first
time it cancels its key, and puts the dict back in its place, so a row
that no elimination reads is never built.
"""

from __future__ import annotations

from .scalars import Scalar, fms_kernel


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

    def normal_form(self, row: dict) -> dict:
        """The unique row congruent to row modulo the span with no pivot key.

        A key without a pivot is final, so it goes straight to the result;
        only keys with a pivot are kept in the working set, whose largest
        key is cancelled by its pivot row.  No pivot row changes during the
        call (building a held row puts an equal dict in its place) and a
        cancellation adds only smaller keys, so a cancelled key
        never returns, and exact arithmetic makes every coefficient
        independent of the order of its additions.  The row and the pivots
        share one conductor, whose ``fms`` kernel is fetched at the first
        cancellation.  A pivot whose first key is not its own key is a row
        held by ``take_shifted`` and not built yet: it is built into the
        plain dict it stands for, with the shift read off that first key,
        the first time its key is cancelled, and the dict replaces it among
        the pivots."""
        pivots = self.pivots
        out = {}
        work = {}
        for k, c in row.items():
            (work if k in pivots else out)[k] = c
        fms = None
        while work:
            lead = max(work)
            c = work.pop(lead)
            if fms is None:
                fms = fms_kernel(c.n)
            prow = pivots[lead]
            first = next(iter(prow))
            if first != lead:
                shift = lead - first
                prow = pivots[lead] = {k + shift: v for k, v in prow.items()}
            for k, v in prow.items():
                if k == lead:
                    continue
                dest = work if k in pivots else out
                nv = fms(dest.get(k), c, v)
                if nv is None:
                    dest.pop(k, None)
                else:
                    dest[k] = nv
        return out

    def insert(self, row: dict) -> bool:
        """Store the normal form of row, made monic at its largest key and
        listed from that key; True if the row enlarged the span.  A row whose
        lead is already one is not rescaled."""
        row = self.normal_form(row)
        if not row:
            return False
        lead = max(row)
        row = {lead: row.pop(lead), **row}
        c = row[lead]
        if not c.is_one():
            inv = c.inv()
            row = {k: v * inv for k, v in row.items()}
        self.store(lead, row)
        return True

    def store(self, lead, row: dict) -> None:
        """Store a monic row whose largest key lead has no pivot yet and is
        the row's first key, and count its entries against ``entry_limit``."""
        self.pivots[lead] = row
        self._count(len(row))

    def take_shifted(self, below: RowReducer, shifts) -> None:
        """Hold every pivot row of below once per integer shift s, under its
        lead + s: the value is the row object below itself, unshifted and
        shared, which ``normal_form`` builds when it first cancels that key.
        The moved leads must be distinct and have no pivot yet.  Each held
        row counts its full length against ``entry_limit``, so the count is
        of logical entries and over-states the memory in use."""
        self._count(len(shifts) * below._entries)
        leads, rows = below.pivots.keys(), below.pivots.values()
        for s in shifts:
            self.pivots.update(zip(map(s.__add__, leads), rows))

    def _count(self, entries: int) -> None:
        self._entries += entries
        if self.entry_limit is not None and self._entries > self.entry_limit:
            raise ResourceLimitError(
                f"row reducer exceeded entry limit {self.entry_limit}"
            )

    def contains(self, row: dict) -> bool:
        return not self.normal_form(row)


def same_span(rows, others) -> bool:
    """Do the two lists of rows span the same space?  Equal rank, and the
    span of rows contains every one of others."""
    others = list(others)
    red = RowReducer(rows)
    return red.rank == RowReducer(others).rank and all(red.contains(r) for r in others)


# solve reduces vector j as the row {(1, k): vector[k]} plus a unit tag at
# (0, j).  Every tag sorts below every data key, so a reduced row whose lead
# is a tag has no data left, and its tags are the coefficients of a relation
# among the vectors.


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


def solve(vectors, target: dict) -> list[Scalar] | None:
    """x with sum_j x_j * vectors[j] = target, or None if target is not in
    the span.  x_j = 0 for every vectors[j] in the span of vectors[:j], so
    the solution is unique."""
    vectors = list(vectors)
    one = _one([*vectors, target])
    red = RowReducer(_tagged(j, v, one) for j, v in enumerate(vectors))
    rest = red.normal_form(_tagged(len(vectors), target, one))
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
