"""Exact rational linear algebra: rank, RREF and nullspaces.

The workhorse is a fraction-free sparse elimination: rows are dicts from
column index to integer entry, kept primitive (content divided out) after
every combination step, which bounds coefficient growth the same way Bareiss
pivoting does on dense data.  Pivots are chosen at the smallest column index,
so echelon forms, ranks and nullspace bases are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

SparseRow = dict[int, int]


def _to_int_row(row: dict[int, Fraction | int]) -> SparseRow:
    """Clear denominators and divide out the content; sign-normalize later."""
    entries = {c: v for c, v in row.items() if v != 0}
    if not entries:
        return {}
    denom_lcm = 1
    for v in entries.values():
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = {c: v.numerator * (denom_lcm // v.denominator) for c, v in entries.items()}
    return primitive_row(ints)


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
            if pivot is None:
                self.pivot_rows[lead] = primitive_row(work)
                return
            a, b = pivot[lead], work[lead]
            combined: SparseRow = {}
            for c, v in work.items():
                combined[c] = a * v
            for c, v in pivot.items():
                s = combined.get(c, 0) - b * v
                if s == 0:
                    combined.pop(c, None)
                else:
                    combined[c] = s
            work = primitive_row(combined)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduced_pivot_rows(self) -> dict[int, dict[int, Fraction]]:
        """Gauss-Jordan pass: each pivot column appears in its own row only.

        Pivots are cleared in descending order.  When a pivot row is used, it
        holds its lead and non-pivot columns only, so clearing never adds or
        removes a pivot column elsewhere, and the rows holding each pivot
        column are indexed once, before the pass.
        """
        rows = {c: {k: Fraction(v) for k, v in r.items()} for c, r in self.pivot_rows.items()}
        holders: dict[int, list[int]] = {}
        for lead, row in rows.items():
            for c in row:
                if c != lead and c in rows:
                    holders.setdefault(c, []).append(lead)
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for other_lead in holders.get(lead, ()):
                other = rows[other_lead]
                factor = other[lead] / row[lead]
                for c, v in row.items():
                    s = other.get(c, Fraction(0)) - factor * v
                    if s == 0:
                        other.pop(c, None)
                    else:
                        other[c] = s
        return rows

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


@dataclass(frozen=True)
class QMatrix:
    """Dense exact-rational matrix exposing rank and right-nullspace."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> QMatrix:
        grid = tuple(tuple(Fraction(x) for x in row) for row in data)
        nrows = len(grid)
        ncols = len(grid[0]) if grid else 0
        if any(len(r) != ncols for r in grid):
            raise ValueError("ragged rows")
        return QMatrix(nrows, ncols, grid)

    @staticmethod
    def identity(n: int) -> QMatrix:
        return QMatrix.from_rows(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int) -> QMatrix:
        return QMatrix(rows, cols, tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows)))

    def _eliminator(self) -> SparseEliminator:
        elim = SparseEliminator(self.cols)
        for row in self.entries:
            elim.add_row({i: x for i, x in enumerate(row) if x != 0})
        return elim

    def rank(self) -> int:
        return self._eliminator().rank

    def nullspace(self) -> list[list[Fraction]]:
        """The kernel basis of SparseEliminator.nullspace as dense vectors."""
        zero = Fraction(0)
        return [[vec.get(c, zero) for c in range(self.cols)] for vec in self._eliminator().nullspace()]

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((r[j] * vec[j] for j in range(self.cols)), Fraction(0)) for r in self.entries]
