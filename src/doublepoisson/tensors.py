"""Tensor square and cube of an algebra: the value types of brackets and residuals.

A tensor is stored sparse: ``terms`` maps a position (a, b) or (a, b, c) to
its nonzero coefficient, so every operation costs the number of nonzero
terms rather than dim^2 or dim^3.  ``grid`` is a dense view, built on each
call, for tests and small reports.  The types never read the product
table: the bimodule actions and J(r) are term generators in ``axioms``,
which fixes every sign and leg convention once.
Only the index permutations live here: the flip (a(x)b)° = b(x)a and the
cyclic tau123(a(x)b(x)c) = c(x)a(x)b, tau132 = tau123^2.
"""

from __future__ import annotations

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .poly import Scalar


_ZERO = 0


def _zero_grid2(n: int) -> list[list[Scalar]]:
    return [[_ZERO] * n for _ in range(n)]


def _nonzero_terms(terms: dict) -> dict:
    return {key: v for key, v in terms.items() if v}


class _SparseTensor:
    """Shared arithmetic of Tensor2 and Tensor3 over their ``terms`` dicts.

    ``terms`` holds nonzero coefficients only; build from a dict that may
    hold zeros with tensor_from_terms / tensor3_from_terms.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FDAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _same(self, other) -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("tensors over different algebras")

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for key, v in other.terms.items():
            out[key] = out.get(key, 0) + v
        return type(self)(self.algebra, _nonzero_terms(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {key: -v for key, v in self.terms.items()})

    def scale(self, c: Scalar):
        return type(self)(self.algebra, _nonzero_terms({key: c * v for key, v in self.terms.items()}))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def entries(self):
        """The nonzero terms as (*position, coefficient), positions ascending."""
        for key, v in sorted(self.terms.items()):
            yield (*key, v)

    def __str__(self) -> str:
        names = self.algebra.basis_names
        parts = [
            f"({v})*" + "(x)".join(names[k] for k in key) for *key, v in self.entries()
        ]
        return " + ".join(parts) if parts else "0"


class Tensor2(_SparseTensor):
    """Element of A(x)A: sum terms[(a, b)] e_a(x)e_b."""

    __slots__ = ()

    @staticmethod
    def zero(algebra: FDAlgebra) -> Tensor2:
        return Tensor2(algebra, {})

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> Tensor2:
        """The tensor of a dense grid[a][b]."""
        return tensor_from_terms(
            algebra, {(a, b): v for a, row in enumerate(grid) for b, v in enumerate(row)}
        )

    @staticmethod
    def pure(x: AlgElement, y: AlgElement) -> Tensor2:
        """x (x) y."""
        if x.algebra != y.algebra:
            raise AlgebraError("tensor factors from different algebras")
        terms = {(a, b): u * v for a, u in enumerate(x.coords) for b, v in enumerate(y.coords)}
        return tensor_from_terms(x.algebra, terms)

    @property
    def grid(self) -> tuple:
        """Dense view: grid[a][b] is the coefficient of e_a(x)e_b."""
        grid = _zero_grid2(self.algebra.dim)
        for (a, b), v in self.terms.items():
            grid[a][b] = v
        return tuple(tuple(row) for row in grid)

    def flip(self) -> Tensor2:
        """(a(x)b)° = b(x)a."""
        return Tensor2(self.algebra, {(b, a): v for (a, b), v in self.terms.items()})


class Tensor3(_SparseTensor):
    """Element of A(x)A(x)A: sum terms[(a, b, c)] e_a(x)e_b(x)e_c."""

    __slots__ = ()

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> Tensor3:
        """The tensor of a dense grid[a][b][c]."""
        return tensor3_from_terms(
            algebra,
            {
                (a, b, c): v
                for a, plane in enumerate(grid)
                for b, row in enumerate(plane)
                for c, v in enumerate(row)
            },
        )

    @property
    def grid(self) -> tuple:
        """Dense view: grid[a][b][c] is the coefficient of e_a(x)e_b(x)e_c."""
        n = self.algebra.dim
        grid = [_zero_grid2(n) for _ in range(n)]
        for (a, b, c), v in self.terms.items():
            grid[a][b][c] = v
        return tuple(tuple(tuple(row) for row in plane) for plane in grid)

    def tau123(self) -> Tensor3:
        """tau123(a(x)b(x)c) = c(x)a(x)b."""
        return Tensor3(self.algebra, {(c, a, b): v for (a, b, c), v in self.terms.items()})

    def tau132(self) -> Tensor3:
        """tau132(a(x)b(x)c) = b(x)c(x)a."""
        return Tensor3(self.algebra, {(b, c, a): v for (a, b, c), v in self.terms.items()})


def tensor_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor2:
    """The Tensor2 of a sparse tensor {(a, b): coefficient}; zero values are dropped."""
    return Tensor2(algebra, _nonzero_terms(terms))


def tensor3_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor3:
    """The Tensor3 of a sparse tensor {(a, b, c): coefficient}; zero values are dropped."""
    return Tensor3(algebra, _nonzero_terms(terms))
