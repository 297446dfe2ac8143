"""Finite-dimensional associative unital algebras over exact rationals.

An algebra is a name, a basis, the coordinates of the unit, and a sparse
product table ``products[i][j]``: the nonzero (k, c) pairs of
e_i e_j = sum c e_k, k ascending.  Those four fields are the one stored
form, and equality and hash come from them; no dense dim^3 table is built.  ``FDAlgebra.from_entries`` builds the table from (i, j, k, c)
entries, and every algebra (presets, sums, JSON files) is built through it.

Associativity and the two-sided unit law are checked at construction time,
so everything downstream may assume them.  The associativity check visits
only nonzero products: for each basis triple it costs the number of nonzero
terms of (e_i e_j) e_k and e_i (e_j e_k), O(dim^3 * nnz^2) in all with nnz
the largest number of terms in one basis product.  Mat_n has nnz = 1, so
building mat4 (dim 16) takes milliseconds.

``generating_set`` picks basis elements that generate the algebra, greedily,
by closing span{1} under products read from the sparse table, and then
drops each one the others generate without, so no proper subset generates.
The greedy pass visits the basis in two orders and keeps the smaller result:
by index, and in the Peirce order, which reads the basis idempotents and the
elements between them (e_i x e_j = x) off the table and visits a closed walk
through each strongly connected piece of that graph first.  For Mat_n that
walk is the n-cycle E_12, E_23, ..., E_n1, so n elements generate it.
``preset_dim`` reads a preset's dimension off its name, before anything is
built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

from .linalg import SparseEliminator
from .poly import Scalar, exact_scalar

Coords = tuple


class AlgebraError(ValueError):
    """Raised for malformed algebras and mixed-algebra operations."""


class FDAlgebra:
    # products[i][j]: the nonzero (k, c) pairs of e_i e_j = sum c e_k, k ascending
    __slots__ = ("name", "basis_names", "unit", "products")

    def __init__(self, name: str, basis_names: tuple[str, ...], unit: tuple, products: tuple):
        self.name = name
        self.basis_names = basis_names
        self.unit = unit
        self.products = products
        self.__post_init__()

    def _fields(self) -> tuple:
        return (self.name, self.basis_names, self.unit, self.products)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __post_init__(self):
        # the load-time checks; perfbench/tracer.py times and counts builds through this name
        n = self.dim
        if len(self.unit) != n or len(self.products) != n or any(len(row) != n for row in self.products):
            raise AlgebraError(f"{self.name}: inconsistent dimensions")
        self._check_associative()
        self._check_unit()

    @classmethod
    def from_entries(cls, name: str, basis_names, unit, entries) -> FDAlgebra:
        """The algebra with e_i e_j = sum c e_k over its (i, j, k, c) entries.

        Repeated positions are summed and zero sums dropped; an index outside
        0..dim-1 raises AlgebraError.  The structure constants and the unit
        are stored as exact scalars (``poly.exact_scalar``): ints when
        integral, as every preset's are, so the folds over the table run on
        ints.
        """
        n = len(basis_names)
        table = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k, c in entries:
            if not all(0 <= x < n for x in (i, j, k)):
                raise AlgebraError(f"{name}: product entry {(i, j, k)} not in 0..{n - 1}")
            slot = table[i][j]
            slot[k] = slot.get(k, 0) + c
        products = tuple(
            tuple(tuple((k, exact_scalar(c)) for k, c in sorted(slot.items()) if c) for slot in row)
            for row in table
        )
        return cls(name, tuple(basis_names), tuple(exact_scalar(u) for u in unit), products)

    def entries(self):
        """The nonzero (i, j, k, c) of the product table, in (i, j, k) order."""
        for i, row in enumerate(self.products):
            for j, terms in enumerate(row):
                for k, c in terms:
                    yield (i, j, k, c)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    # -- load-time laws ------------------------------------------------------

    def _check_associative(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) on every triple, scanned in (i, j, k) order."""
        n = self.dim
        prods = self.products
        for i in range(n):
            for j in range(n):
                ij = prods[i][j]
                for k in range(n):
                    diff: dict[int, Fraction] = {}
                    for p, c in ij:
                        for m, d in prods[p][k]:
                            diff[m] = diff.get(m, 0) + c * d
                    for q, c in prods[j][k]:
                        for m, d in prods[i][q]:
                            diff[m] = diff.get(m, 0) - c * d
                    if any(diff.values()):
                        raise AlgebraError(f"{self.name}: (e{i}e{j})e{k} != e{i}(e{j}e{k})")

    def _check_unit(self) -> None:
        n = self.dim
        for i in range(n):
            left = self.mul_coords(self.unit, _basis_coords(n, i))
            right = self.mul_coords(_basis_coords(n, i), self.unit)
            expected = _basis_coords(n, i)
            if left != expected or right != expected:
                raise AlgebraError(f"{self.name}: unit fails on basis element {i}")

    # -- products --------------------------------------------------------------

    def mul_coords(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple:
        """Coordinates of the product of two coordinate vectors (bilinear)."""
        out: list[Scalar] = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.products[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                for k, c in row[j]:
                    out[k] = out[k] + coeff * c
        return tuple(out)

    # -- element factories -----------------------------------------------------

    def element(self, coords: Sequence[Scalar]) -> AlgElement:
        if len(coords) != self.dim:
            raise AlgebraError(f"{self.name}: expected {self.dim} coordinates")
        return AlgElement(self, tuple(coords))

    def basis_element(self, i: int) -> AlgElement:
        return AlgElement(self, _basis_coords(self.dim, i))

    def unit_element(self) -> AlgElement:
        return AlgElement(self, self.unit)

    def __repr__(self) -> str:
        return f"FDAlgebra({self.name!r}, dim={self.dim})"


def _basis_coords(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(k == i) for k in range(n))


class AlgElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: FDAlgebra, coords: tuple):
        if len(coords) != algebra.dim:
            raise AlgebraError("coordinate length does not match algebra dimension")
        self.algebra = algebra
        self.coords = coords

    def _same(self, other: AlgElement) -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other: AlgElement) -> AlgElement:
        self._same(other)
        return AlgElement(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: AlgElement) -> AlgElement:
        self._same(other)
        return AlgElement(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> AlgElement:
        return AlgElement(self.algebra, tuple(-a for a in self.coords))

    def scale(self, c: Scalar) -> AlgElement:
        return AlgElement(self.algebra, tuple(c * a for a in self.coords))

    def __mul__(self, other: AlgElement) -> AlgElement:
        self._same(other)
        return AlgElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    def __str__(self) -> str:
        names = self.algebra.basis_names
        parts = [f"({c})*{n}" for c, n in zip(self.coords, names) if c]
        return " + ".join(parts) if parts else "0"


def commutator(x: AlgElement, y: AlgElement) -> AlgElement:
    return x * y - y * x


# -- presets ---------------------------------------------------------------


# A preset is built as its builder arguments (name, basis names, unit, product
# entries) first, so that a "+"-sum validates only the summed algebra.


def _matrix_fields(n: int) -> tuple:
    if n < 1:
        raise AlgebraError("matrix algebra needs n >= 1")
    names = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    # E_ij E_jl = E_il, the n^3 nonzero products
    entries = tuple(
        (i * n + j, j * n + l, i * n + l, 1) for i in range(n) for j in range(n) for l in range(n)
    )
    unit = tuple(int(i == j) for i in range(n) for j in range(n))
    return (f"mat{n}", names, unit, entries)


def _a2_fields() -> tuple:
    # e1 e1 = e1, e2 e2 = e2, e1 e0 = e0, e0 e2 = e0
    entries = ((1, 1, 1, 1), (2, 2, 2, 1), (1, 0, 0, 1), (0, 2, 0, 1))
    return ("a2", ("e0", "e1", "e2"), (0, 1, 1), entries)


def _sum_fields(a: tuple, b: tuple) -> tuple:
    a_name, a_basis, a_unit, a_entries = a
    b_name, b_basis, b_unit, b_entries = b
    na = len(a_basis)
    return (
        f"{a_name}+{b_name}",
        tuple(f"a.{s}" for s in a_basis) + tuple(f"b.{s}" for s in b_basis),
        a_unit + b_unit,
        (*a_entries, *((na + i, na + j, na + k, c) for i, j, k, c in b_entries)),
    )


def make_matrix_algebra(n: int) -> FDAlgebra:
    """Mat_n with matrix-unit basis (E_11, E_12, ..., E_nn); E_ij E_kl = d_jk E_il."""
    return FDAlgebra.from_entries(*_matrix_fields(n))


def make_a2() -> FDAlgebra:
    """Upper-triangular 2x2 matrices: basis (e0, e1, e2), unit e1 + e2.

    Relations: e1^2=e1, e2^2=e2, e1 e0 = e0 e2 = e0, e0 e1 = e2 e0 = e0^2 = 0.
    Path algebra of the one-arrow quiver (e1, e2 the vertices, e0 the arrow).
    """
    return FDAlgebra.from_entries(*_a2_fields())


def direct_sum(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Block-diagonal sum; cross-block products vanish, unit = (1_a, 1_b)."""
    a_fields = (a.name, a.basis_names, a.unit, a.entries())
    b_fields = (b.name, b.basis_names, b.unit, b.entries())
    return FDAlgebra.from_entries(*_sum_fields(a_fields, b_fields))


_MAT_RE = re.compile(r"^mat([1-9][0-9]*)$")


def _preset_parts(name: str) -> list | None:
    """(field builder, dimension) of each "+"-summand of a preset name; None if it names none."""
    parts = []
    for part in name.split("+"):
        part = part.strip()
        m = _MAT_RE.match(part)
        if part == "a2":
            parts.append((_a2_fields, 3))
        elif m:
            size = int(m.group(1))
            parts.append((partial(_matrix_fields, size), size * size))
        else:
            return None
    return parts


def preset_dim(name: str) -> int | None:
    """The dimension of the preset ``name``, read off the name; None if it names none.

    a2 has dimension 3, matN has N^2, and a "+"-sum adds up its summands.
    Nothing is built, so a size guard can run before any allocation.
    """
    parts = _preset_parts(name)
    return None if parts is None else sum(dim for _, dim in parts)


def is_preset(name: str) -> bool:
    """True iff ``resolve_preset(name)`` resolves; nothing is built."""
    return _preset_parts(name) is not None


def resolve_preset(name: str) -> FDAlgebra | None:
    """Resolve preset names: "a2", "matN", and "+"-sums such as "mat1+mat1".

    A sum is built as one algebra; its summands are never constructed.
    """
    parts = _preset_parts(name)
    if parts is None:
        return None
    return FDAlgebra.from_entries(*reduce(_sum_fields, (build() for build, _ in parts)))


# -- generators ----------------------------------------------------------------


def _generated_span(algebra: FDAlgebra, generators: Sequence[int]) -> SparseEliminator:
    """The span of all words in the basis elements ``generators``, 1 included.

    It is the closure of span{1} under right multiplication by each
    generator: a vector that adds no rank lies in the span of earlier ones,
    whose products are already taken.
    """
    prods = algebra.products
    span = SparseEliminator(algebra.dim)
    unit = {k: c for k, c in enumerate(algebra.unit) if c}
    span.add_row(unit)
    pending = [unit]
    while pending:
        vec = pending.pop()
        for g in generators:
            word: dict[int, Fraction] = {}
            for i, c in vec.items():
                for k, d in prods[i][g]:
                    word[k] = word.get(k, 0) + c * d
            if span.add_row(word):
                pending.append(word)
    return span


def _peirce_order(algebra: FDAlgebra) -> list[int]:
    """The basis indices in the Peirce visiting order of ``generating_set``.

    The basis idempotents (e_i e_i = e_i) are the vertices of a graph with
    an edge i -> j for each other basis element x with e_i x = x = x e_j.
    Each strongly connected piece of two or more vertices comes first, as
    one element per edge of a closed walk through it: from its least vertex
    to each of the others in ascending order and back, by shortest paths.
    For Mat_n that is the cycle E_12, E_23, ..., E_n1.  The other edge
    elements follow, then the idempotents, then every other index.
    """
    prods = algebra.products
    n = algebra.dim
    idempotents = [i for i in range(n) if prods[i][i] == ((i, 1),)]
    edges: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        if x in idempotents:
            continue
        for i in idempotents:
            if prods[i][x] == ((x, 1),):
                for j in idempotents:
                    if prods[x][j] == ((x, 1),):
                        edges.setdefault((i, j), []).append(x)

    def parents(root: int) -> dict:
        """The breadth-first tree of the vertices that ``root`` reaches, as child -> parent."""
        tree = {root: None}
        queue = [root]
        for v in queue:
            for w in idempotents:
                if w not in tree and (v, w) in edges:
                    tree[w] = v
                    queue.append(w)
        return tree

    trees = {v: parents(v) for v in idempotents}
    cycles: list[int] = []
    placed: set[int] = set()
    for root in idempotents:
        piece = sorted(v for v in trees[root] if root in trees[v])
        if root in placed or len(piece) < 2:
            continue
        placed.update(piece)
        for start, stop in zip(piece, piece[1:] + piece[:1]):
            path = []
            while stop != start:
                path.append(edges[(trees[start][stop], stop)][0])
                stop = trees[start][stop]
            cycles.extend(reversed(path))
    edge_elements = sorted({x for xs in edges.values() for x in xs})
    return list(dict.fromkeys(cycles + edge_elements + idempotents + list(range(n))))


def _pruned_greedy(algebra: FDAlgebra, order) -> tuple[int, ...]:
    """The greedy generating set in the visiting ``order``, made irredundant, ascending.

    Each basis element outside the subalgebra generated by the ones chosen
    so far is chosen.  Then each chosen element, in the order chosen, is
    dropped when the others still generate.  Dropping never lets an earlier
    kept element go, since a subset of a set that does not generate does not
    generate either.
    """
    n = algebra.dim
    chosen: list[int] = []
    span = _generated_span(algebra, chosen)
    for g in order:
        if span.rank == n:
            break
        if span.add_row({g: 1}):
            chosen.append(g)
            span = _generated_span(algebra, chosen)
    for g in list(chosen):
        rest = [h for h in chosen if h != g]
        if _generated_span(algebra, rest).rank == n:
            chosen = rest
    return tuple(sorted(chosen))


def generating_set(algebra: FDAlgebra) -> tuple[int, ...]:
    """Indices of basis elements that generate the algebra and no proper subset does, ascending.

    The pruned greedy pass (``_pruned_greedy``) runs in two visiting orders:
    by index, and in the Peirce order of the basis idempotents
    (``_peirce_order``), which finds the n-cycle of matrix units that
    generates Mat_n.  Any order gives a generating set with no redundant
    element; the smaller of the two is returned, the index-order one on a
    tie.  An algebra without idempotent basis elements has the index order
    as its Peirce order.
    """
    by_index = _pruned_greedy(algebra, range(algebra.dim))
    by_peirce = _pruned_greedy(algebra, _peirce_order(algebra))
    return by_peirce if len(by_peirce) < len(by_index) else by_index


# -- commutator subspace ----------------------------------------------------


class CommutatorSubspace:
    """[A,A] as a subspace of A, plus the complementary trace-space data.

    ``basis`` spans [A,A] (in RREF: each row 1 at its pivot, pivots
    ascending); the quotient A_flat = A/[A,A] is coordinatized by the
    non-pivot basis positions ``complement_indices``.
    """

    __slots__ = ("algebra", "basis", "pivot_columns", "complement_indices")

    def __init__(self, algebra: FDAlgebra, basis: tuple, pivot_columns: tuple, complement_indices: tuple):
        self.algebra = algebra
        self.basis = basis
        self.pivot_columns = pivot_columns
        self.complement_indices = complement_indices

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def flat_dim(self) -> int:
        return len(self.complement_indices)

    def contains(self, coords: Sequence[Scalar]) -> bool:
        return not any(self.project_flat(coords))

    def project_flat(self, coords: Sequence[Scalar]) -> tuple:
        """Coordinates of the class of ``coords`` in A_flat.

        Reduction against the RREF basis of [A,A], each row 1 at its pivot,
        subtracts vec[pivot] times the row, so it works for polynomial
        coordinates too.
        """
        vec = list(coords)
        for row, piv in zip(self.basis, self.pivot_columns):
            factor = vec[piv]
            if not factor:
                continue
            for c, v in enumerate(row):
                if v != 0:
                    vec[c] = vec[c] - factor * v
        leftover = [
            (i, v) for i, v in enumerate(vec) if i not in self.complement_indices and v
        ]
        if leftover:
            raise AlgebraError("projection failed: reduction left non-complement coordinates")
        return tuple(vec[i] for i in self.complement_indices)


def commutator_subspace(algebra: FDAlgebra) -> CommutatorSubspace:
    """Span of all basis commutators [e_i, e_j], with flat-space bookkeeping."""
    n = algebra.dim
    elim = SparseEliminator(n)
    for i in range(n):
        for j in range(i + 1, n):
            c = commutator(algebra.basis_element(i), algebra.basis_element(j))
            elim.add_row({k: v for k, v in enumerate(c.coords) if v != 0})
    reduced = elim.reduced_pivot_rows()
    pivots = tuple(sorted(reduced))
    rows = tuple(tuple(reduced[piv].get(c, 0) for c in range(n)) for piv in pivots)
    complement = tuple(i for i in range(n) if i not in set(pivots))
    return CommutatorSubspace(algebra, rows, pivots, complement)
