"""Exact rational linear algebra: rank, RREF, nullspaces and inverses.

The one elimination is a fraction-free sparse one: rows are dicts from
column index to integer entry, and one step (``_clear_lead``) clears a row's
lead against a pivot row.  Content is divided out when a row enters or is
stored as a pivot, and when a step scales it by a pivot lead other than 1;
that bounds coefficient growth the same way Bareiss pivoting does on dense
data.  Pivots are chosen at the smallest column index, so echelon forms,
ranks and nullspace bases are deterministic.  The Gauss-Jordan pass runs the
same step on copies of the pivot rows and divides each row by its lead once,
at the end, into the monic reduced row (1 at its lead).  That division
follows the engine's scalar rule (``poly.exact_scalar``), so an entry is an
int when it is integral and a Fraction otherwise.  This module alone decides
how a row is scaled: rational rows enter through ``primitive_row``, and
nullspaces and inverses are read off the monic rows as they are, ints on
integral input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import exact_scalar

SparseRow = dict[int, int]


def primitive_row(row: dict[int, Fraction | int]) -> SparseRow:
    """The primitive integer row of the rational ``row``: zeros dropped, denominators cleared.

    Content is divided out and the entry at the smallest key made positive,
    so two rows are rational multiples of each other iff their primitive
    rows are equal.  A one-entry row is {c: 1} at once.  Otherwise one loop
    copies the nonzero entries and gathers the gcd of their numerators and
    the lcm of their denominators, which give the content of a rational row
    (fractions are in lowest terms); the copy is then scaled in place, unless
    it is a row of ints with content 1 and a positive lead.  So exactly one
    new dict is made, and ``row`` itself is never returned.
    """
    if len(row) == 1:
        ((c, v),) = row.items()
        return {c: 1} if v else {}
    out = {}
    g = 0
    den = 1
    exact_ints = True
    for c, v in row.items():
        if v:
            out[c] = v
            if type(v) is int:
                if g != 1:
                    g = gcd(g, v)
            else:
                exact_ints = False
                if g != 1:
                    g = gcd(g, v.numerator)
                den = lcm(den, v.denominator)
    if not out:
        return out
    if out[min(out)] < 0:
        g = -g
    if not exact_ints:
        for c, v in out.items():
            out[c] = v.numerator * (den // v.denominator) // g
    elif g != 1:
        for c, v in out.items():
            out[c] = v // g
    return out


def _primitive(row: SparseRow) -> SparseRow:
    """The integer ``row`` with its content divided out and the entry at its smallest key positive."""
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    if row and row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _clear_lead(row: SparseRow, pivot: SparseRow, lead: int) -> SparseRow:
    """``row`` with column ``lead`` cleared by ``pivot``, in place where it can be.

    With p = pivot[lead], v = row[lead] and g = gcd(p, v) the combination is
    (p/g) row - (v/g) pivot.  A lead-1 pivot, the common case, needs no gcd,
    no copy and no content division; a one-entry one just drops the lead.
    Any other lead makes the result primitive.
    """
    p, v = pivot[lead], row[lead]
    if p != 1:
        g = gcd(p, v)
        a, v = p // g, v // g
        if a != 1:
            row = {c: a * w for c, w in row.items()}
    elif len(pivot) == 1:
        del row[lead]
        return row
    for c, w in pivot.items():
        s = row.get(c, 0) - v * w
        if s:
            row[c] = s
        else:
            del row[c]
    return row if p == 1 else _primitive(row)


class SparseEliminator:
    """Incremental row reduction keeping one primitive pivot row per column."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}

    def add_row(self, row: dict[int, Fraction | int]) -> bool:
        """Reduce ``row`` against the pivot rows; True iff it adds a pivot, so the rank grows.

        The work row is a new dict, cleared in place and made primitive when
        it is stored; ``row`` is left as it is.
        """
        work = primitive_row(row)
        while work:
            lead = min(work)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                # a lead of 1 leaves no content to divide out
                self.pivot_rows[lead] = work if work[lead] == 1 else _primitive(work)
                return True
            work = _clear_lead(work, pivot, lead)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduced_pivot_rows(self) -> dict[int, dict[int, int | Fraction]]:
        """Gauss-Jordan pass: the monic reduced rows, one per pivot column.

        Each row is 1 at its lead, and each pivot column appears in its own
        row only, so the rows are the reduced row echelon form of the span.
        Pivots are cleared in descending order.  When a pivot row is used, it
        holds its lead and non-pivot columns only, so clearing never adds or
        removes a pivot column elsewhere, and the rows holding each pivot
        column are indexed once, before the pass.  The pass clears copies of
        the pivot rows with ``_clear_lead``, which keeps each row's lead, so
        each row is divided by the lead it reaches once, into exact scalars
        (``poly.exact_scalar``): a row that reaches lead 1 is its int row.
        ``pivot_rows`` is left as it is, and no returned row is its dict.
        """
        rows = {lead: dict(row) for lead, row in self.pivot_rows.items()}
        holders: dict[int, list[int]] = {}
        for lead, row in rows.items():
            for c in row:
                if c != lead and c in rows:
                    holders.setdefault(c, []).append(lead)
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for other_lead in holders.get(lead, ()):
                rows[other_lead] = _clear_lead(rows[other_lead], row, lead)
        return {
            lead: row if row[lead] == 1
            else {c: exact_scalar(Fraction(v, row[lead])) for c, v in row.items()}
            for lead, row in rows.items()
        }

    def nullspace(self) -> list[dict[int, int | Fraction]]:
        """Basis of the right kernel, one vector per free column, in column order.

        Each vector is a sparse row {column: nonzero exact scalar}, columns
        ascending: 1 at its free column f and -v at the lead of each monic
        reduced pivot row holding v at f.  A row holds only columns at or
        after its lead, so those leads all come before f.  The vectors hold
        ints wherever the reduced rows do.
        """
        rows = self.reduced_pivot_rows()
        basis: dict[int, dict[int, int | Fraction]] = {
            free: {} for free in range(self.ncols) if free not in rows
        }
        # after the Gauss-Jordan pass a row holds its lead and free columns only
        for lead in sorted(rows):
            for c, v in rows[lead].items():
                if c != lead:
                    basis[c][lead] = -v
        for free, vec in basis.items():
            vec[free] = 1
        return list(basis.values())


def nullspace_of_rows(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[dict[int, int | Fraction]]:
    """Nullspace basis of the linear system given by sparse constraint rows, as sparse rows."""
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row(row)
    return elim.nullspace()


def rank_of_rows(rows: Iterable[dict[int, Fraction | int]], ncols: int) -> int:
    """Rank of the linear system given by sparse rows."""
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row(row)
    return elim.rank


def _sparse_rows(vectors: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    return [{i: x for i, x in enumerate(v) if x} for v in vectors]


def rank_of_vectors(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    return rank_of_rows(_sparse_rows(vectors), len(vectors[0]))


def subspaces_equal(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> bool:
    """True iff span(a) == span(b) (as subspaces of the common ambient space)."""
    ncols = len(a[0]) if a else len(b[0]) if b else 0
    return row_spans_equal(_sparse_rows(a), _sparse_rows(b), ncols)


def row_spans_equal(
    rows_a: Sequence[dict[int, Fraction | int]],
    rows_b: Sequence[dict[int, Fraction | int]],
    ncols: int,
) -> bool:
    """True iff the sparse rows rows_a and rows_b span the same subspace.

    With rank a == rank b, the spans are equal iff b's rows add no pivot to
    a's eliminator: two eliminations.
    """
    elim = SparseEliminator(ncols)
    for row in rows_a:
        elim.add_row(row)
    if rank_of_rows(rows_b, ncols) != elim.rank:
        return False
    return not any(elim.add_row(row) for row in rows_b)


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    r = rank_of_vectors(vectors)
    return rank_of_vectors(list(vectors) + [list(v)]) == r


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[int | Fraction]]:
    """Exact inverse of the n x n matrix M; raises ValueError when M is singular.

    [M | I] has rank n, and M is invertible iff every pivot of [M | I] lies
    in M's columns.  Then the monic reduced row at lead i is 1 at i, 0 at
    M's other columns, and row i of the inverse in I's columns.
    """
    n = len(rows)
    elim = SparseEliminator(2 * n)
    for i, row in enumerate(rows):
        elim.add_row({**{j: x for j, x in enumerate(row) if x}, n + i: 1})
    if any(lead >= n for lead in elim.pivot_rows):
        raise ValueError("matrix is not invertible")
    reduced = elim.reduced_pivot_rows()
    return [[reduced[i].get(n + j, 0) for j in range(n)] for i in range(n)]
