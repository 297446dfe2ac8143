"""Exact rational linear algebra: rank, RREF and nullspaces.

The workhorse is a fraction-free sparse elimination: rows are dicts from
column index to integer entry, kept primitive (content divided out) after
every combination step, which bounds coefficient growth the same way Bareiss
pivoting does on dense data.  Pivots are chosen at the smallest column index,
so echelon forms, ranks and nullspace bases are deterministic.  The
Gauss-Jordan pass is fraction-free too: it clears in integers, and each entry
becomes a Fraction once, at the end.
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

    def add_row(self, row: dict[int, Fraction | int]) -> None:
        work = _to_int_row(row)
        while work:
            lead = min(work)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:  # work is primitive on every path here
                self.pivot_rows[lead] = work
                return
            work = _cleared(work, pivot, lead)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduced_pivot_rows(self) -> dict[int, dict[int, Fraction]]:
        """Gauss-Jordan pass: each pivot column appears in its own row only.

        Pivots are cleared in descending order.  When a pivot row is used, it
        holds its lead and non-pivot columns only, so clearing never adds or
        removes a pivot column elsewhere, and the rows holding each pivot
        column are indexed once, before the pass.  Clearing is fraction-free
        (``_cleared``) and leaves a row's lead alone, so dividing by the lead
        it reaches and multiplying by its original lead gives the rational
        row with the original lead, the one a pass of rational row
        operations gives.
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
        reduced = {}
        for lead, row in rows.items():
            lead_orig, lead_now = self.pivot_rows[lead][lead], row[lead]
            reduced[lead] = {c: Fraction(v * lead_orig, lead_now) for c, v in row.items()}
        return reduced

    def nullspace(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel, one vector per free column, in column order.

        Each vector is a sparse row {column: nonzero value}, columns
        ascending: 1 at its free column f and -v / pivot at the lead of each
        reduced pivot row holding v at f.  A row holds only columns at or
        after its lead, so those leads all come before f.
        """
        rows = self.reduced_pivot_rows()
        basis: dict[int, dict[int, Fraction]] = {
            free: {} for free in range(self.ncols) if free not in rows
        }
        # after the Gauss-Jordan pass a row holds its lead and free columns only
        for lead in sorted(rows):
            row = rows[lead]
            pivot = row[lead]
            for c, v in row.items():
                if c != lead:
                    basis[c][lead] = -v / pivot
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
    are the largest columns.  The vectors come back as sparse rows
    {column: nonzero value}, columns ascending.
    """
    last = ncols - 1
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row({last - c: v for c, v in row.items()})
    basis = []
    for lead, row in sorted(elim.reduced_pivot_rows().items(), reverse=True):
        pivot = row[lead]
        basis.append({last - c: row[c] / pivot for c in sorted(row, reverse=True)})
    return basis


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
    rank_a = elim.rank
    if rank_of_rows(rows_b, ncols) != rank_a:
        return False
    for row in rows_b:
        elim.add_row(row)
    return elim.rank == rank_a


def in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    r = rank_of_vectors(vectors)
    return rank_of_vectors(list(vectors) + [list(v)]) == r


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan; raises ValueError when singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
