"""Exact rational linear algebra: rank, RREF, nullspaces and inverses.

The one elimination is a fraction-free sparse one: rows are dicts from
column index to integer entry, kept primitive (content divided out) after
every combination step, which bounds coefficient growth the same way Bareiss
pivoting does on dense data.  Pivots are chosen at the smallest column index,
so echelon forms, ranks and nullspace bases are deterministic.  The
Gauss-Jordan pass is fraction-free too: it clears in integers, and each entry
becomes a Fraction once, at the end, in the monic reduced row (1 at its
lead).  This module alone decides how a reduced row is scaled; nullspaces,
canonical bases and inverses are read off the monic rows as they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

SparseRow = dict[int, int]


def _to_int_row(row: dict[int, Fraction | int]) -> SparseRow:
    """The primitive integer row of ``row``: denominators cleared, content divided out.

    A row of ints, as the solver's derivation rows are, has no denominators to clear.
    """
    entries = {}
    all_int = True
    for c, v in row.items():
        if v:
            entries[c] = v
            all_int = all_int and type(v) is int
    if not entries:
        return {}
    if not all_int:
        denom_lcm = 1
        for v in entries.values():
            denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
        entries = {c: v.numerator * (denom_lcm // v.denominator) for c, v in entries.items()}
    return primitive_row(entries)


def primitive_row(row: SparseRow) -> SparseRow:
    """Content divided out, entry at the smallest key positive.

    Two integer rows are rational multiples of each other iff their primitive
    rows are equal.
    """
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    lead = min(row) if row else None
    if lead is not None and row[lead] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _cleared(row: SparseRow, pivot: SparseRow, lead: int) -> SparseRow:
    """``row`` with column ``lead`` cleared by ``pivot``, made primitive.

    With p = pivot[lead], v = row[lead] and g = gcd(p, v) the combination is
    (p/g) row - (v/g) pivot, all in integers; p/g == 1 skips the scaling copy.
    """
    p, v = pivot[lead], row[lead]
    g = gcd(p, v)
    a, b = p // g, v // g
    combined = dict(row) if a == 1 else {c: a * w for c, w in row.items()}
    for c, w in pivot.items():
        s = combined.get(c, 0) - b * w
        if s == 0:
            combined.pop(c, None)
        else:
            combined[c] = s
    return primitive_row(combined)


class SparseEliminator:
    """Incremental row reduction keeping one primitive pivot row per column."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}

    def add_row(self, row: dict[int, Fraction | int]) -> bool:
        """Reduce ``row`` against the pivot rows; True iff it adds a pivot, so the rank grows."""
        work = _to_int_row(row)
        while work:
            lead = min(work)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:  # work is primitive on every path here
                self.pivot_rows[lead] = work
                return True
            work = _cleared(work, pivot, lead)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduced_pivot_rows(self) -> dict[int, dict[int, Fraction]]:
        """Gauss-Jordan pass: the monic reduced rows, one per pivot column.

        Each row is 1 at its lead, and each pivot column appears in its own
        row only, so the rows are the reduced row echelon form of the span.
        Pivots are cleared in descending order.  When a pivot row is used, it
        holds its lead and non-pivot columns only, so clearing never adds or
        removes a pivot column elsewhere, and the rows holding each pivot
        column are indexed once, before the pass.  Clearing is fraction-free
        (``_cleared``) and keeps each row's lead, so dividing by the lead a
        row reaches makes each entry a Fraction once.
        """
        rows = dict(self.pivot_rows)
        holders: dict[int, list[int]] = {}
        for lead, row in rows.items():
            for c in row:
                if c != lead and c in rows:
                    holders.setdefault(c, []).append(lead)
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for other_lead in holders.get(lead, ()):
                rows[other_lead] = _cleared(rows[other_lead], row, lead)
        return {
            lead: {c: Fraction(v, row[lead]) for c, v in row.items()} for lead, row in rows.items()
        }

    def nullspace(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel, one vector per free column, in column order.

        Each vector is a sparse row {column: nonzero value}, columns
        ascending: 1 at its free column f and -v at the lead of each monic
        reduced pivot row holding v at f.  A row holds only columns at or
        after its lead, so those leads all come before f.
        """
        rows = self.reduced_pivot_rows()
        basis: dict[int, dict[int, Fraction]] = {
            free: {} for free in range(self.ncols) if free not in rows
        }
        # after the Gauss-Jordan pass a row holds its lead and free columns only
        for lead in sorted(rows):
            for c, v in rows[lead].items():
                if c != lead:
                    basis[c][lead] = -v
        for free, vec in basis.items():
            vec[free] = Fraction(1)
        return list(basis.values())


def nullspace_of_rows(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[dict[int, Fraction]]:
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


def canonical_basis(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[dict[int, Fraction]]:
    """The basis of span(rows) that ``nullspace`` gives for a system with that kernel.

    A nullspace vector is 1 at its free column, 0 at the other free columns,
    and nonzero elsewhere only at pivot columns smaller than its free column.
    So the nullspace basis of a system is the reduced echelon basis of its
    kernel for pivots taken at the largest column, scaled to 1 at each pivot,
    in ascending pivot order; any spanning set of the kernel gives it back.
    The elimination runs on reversed columns, so its smallest-column pivots
    are the largest columns, and its monic reduced rows are the basis.  The
    vectors come back as sparse rows {column: nonzero value}, columns
    ascending.
    """
    last = ncols - 1
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row({last - c: v for c, v in row.items()})
    return [
        {last - c: row[c] for c in sorted(row, reverse=True)}
        for _, row in sorted(elim.reduced_pivot_rows().items(), reverse=True)
    ]


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


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
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
    return [[reduced[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]
