"""Tensor square and cube of an algebra, with all bimodule actions.

Conventions (fixed once, used everywhere):

* outer action on A(x)A:   x.(a(x)b) = xa(x)b,   (a(x)b).x = a(x)bx
* inner action on A(x)A:   x.(a(x)b) = a(x)xb,   (a(x)b).x = ax(x)b
* leg commutators on A(x)A(x)A:
    [a(x)b(x)c, x]_1 = a(x)xb(x)c - ax(x)b(x)c
    [a(x)b(x)c, y]_2 = a(x)b(x)yc - a(x)by(x)c
    [a(x)b(x)c, z]_3 = za(x)b(x)c - a(x)b(x)cz
* cyclic permutation: tau123(a(x)b(x)c) = c(x)a(x)b, tau132 = tau123^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .poly import Scalar, scalar_is_zero


_ZERO = Fraction(0)  # Fractions are immutable, so one zero can fill every grid


def _zero_grid2(n: int) -> list[list[Scalar]]:
    return [[_ZERO] * n for _ in range(n)]


def _zero_grid3(n: int) -> list[list[list[Scalar]]]:
    return [[[_ZERO] * n for _ in range(n)] for _ in range(n)]


@dataclass(frozen=True)
class Tensor2:
    """Element of A(x)A in basis coordinates: sum grid[a][b] e_a(x)e_b."""

    algebra: FDAlgebra
    grid: tuple

    @staticmethod
    def zero(algebra: FDAlgebra) -> Tensor2:
        return Tensor2(algebra, tuple(tuple(r) for r in _zero_grid2(algebra.dim)))

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> Tensor2:
        return Tensor2(algebra, tuple(tuple(row) for row in grid))

    @staticmethod
    def pure(x: AlgElement, y: AlgElement) -> Tensor2:
        """x (x) y."""
        if x.algebra != y.algebra:
            raise AlgebraError("tensor factors from different algebras")
        return Tensor2.of(
            x.algebra, [[a * b for b in y.coords] for a in x.coords]
        )

    def _same(self, other: Tensor2) -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("tensors over different algebras")

    def __add__(self, other: Tensor2) -> Tensor2:
        self._same(other)
        return Tensor2.of(
            self.algebra,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.grid, other.grid)
            ],
        )

    def __sub__(self, other: Tensor2) -> Tensor2:
        self._same(other)
        return Tensor2.of(
            self.algebra,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.grid, other.grid)
            ],
        )

    def __neg__(self) -> Tensor2:
        return Tensor2.of(self.algebra, [[-a for a in r] for r in self.grid])

    def scale(self, c: Scalar) -> Tensor2:
        return Tensor2.of(self.algebra, [[c * a for a in r] for r in self.grid])

    def flip(self) -> Tensor2:
        """(a(x)b)° = b(x)a."""
        n = self.algebra.dim
        return Tensor2.of(
            self.algebra, [[self.grid[b][a] for b in range(n)] for a in range(n)]
        )

    def is_zero(self) -> bool:
        return all(scalar_is_zero(a) for r in self.grid for a in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    # -- actions ---------------------------------------------------------------

    def _mult_first(self, maps) -> Tensor2:
        """Replace leg 1 by its image: maps[a] holds the (m, w) terms of e_a's image."""
        out = _zero_grid2(self.algebra.dim)
        for a, b, v in self.entries():
            for m, w in maps[a]:
                out[m][b] = out[m][b] + w * v
        return Tensor2.of(self.algebra, out)

    def _mult_second(self, maps) -> Tensor2:
        """Replace leg 2 by its image: maps[b] holds the (m, w) terms of e_b's image."""
        out = _zero_grid2(self.algebra.dim)
        for a, b, v in self.entries():
            for m, w in maps[b]:
                out[a][m] = out[a][m] + w * v
        return Tensor2.of(self.algebra, out)

    def _check_elem(self, x: AlgElement) -> None:
        if x.algebra != self.algebra:
            raise AlgebraError("element from a different algebra")

    def outer_left(self, x: AlgElement) -> Tensor2:
        """x.(a(x)b) = xa(x)b."""
        self._check_elem(x)
        return self._mult_first(_mult_maps(x, left=True))

    def outer_right(self, x: AlgElement) -> Tensor2:
        """(a(x)b).x = a(x)bx."""
        self._check_elem(x)
        return self._mult_second(_mult_maps(x, left=False))

    def inner_left(self, x: AlgElement) -> Tensor2:
        """x.(a(x)b) = a(x)xb."""
        self._check_elem(x)
        return self._mult_second(_mult_maps(x, left=True))

    def inner_right(self, x: AlgElement) -> Tensor2:
        """(a(x)b).x = ax(x)b."""
        self._check_elem(x)
        return self._mult_first(_mult_maps(x, left=False))

    def act(self, x: AlgElement, structure: str, side: str) -> Tensor2:
        """Dispatch by structure ("outer"/"inner") and side ("left"/"right")."""
        try:
            return {
                ("outer", "left"): self.outer_left,
                ("outer", "right"): self.outer_right,
                ("inner", "left"): self.inner_left,
                ("inner", "right"): self.inner_right,
            }[(structure, side)](x)
        except KeyError:
            raise AlgebraError(f"unknown action {structure}/{side}") from None

    def entries(self):
        for a, row in enumerate(self.grid):
            for b, v in enumerate(row):
                if not scalar_is_zero(v):
                    yield (a, b, v)

    def __str__(self) -> str:
        names = self.algebra.basis_names
        parts = [f"({v})*{names[a]}(x){names[b]}" for a, b, v in self.entries()]
        return " + ".join(parts) if parts else "0"


def _mult_maps(x: AlgElement, left: bool) -> list[tuple]:
    """maps[a]: the nonzero (m, w) with x e_a (left) or e_a x (right) = sum w e_m."""
    alg = x.algebra
    n = alg.dim
    prods = alg.products
    maps = [{} for _ in range(n)]
    for i, xi in enumerate(x.coords):
        if scalar_is_zero(xi):
            continue
        for a in range(n):
            image = maps[a]
            for m, c in prods[i][a] if left else prods[a][i]:
                image[m] = image.get(m, 0) + xi * c
    return [tuple(_nonzero_terms(image).items()) for image in maps]


# -- sparse tensors ----------------------------------------------------------
#
# The axiom checkers work on sparse tensors: dicts {position: coefficient}
# holding only the terms that arise, so their cost follows the number of
# nonzero products rather than dim^2 or dim^3.  A dict returned by a helper
# below has no zero values, so "not terms" means the tensor is zero.


def _nonzero_terms(terms: dict) -> dict:
    return {key: v for key, v in terms.items() if not scalar_is_zero(v)}


def _leg_commutator_terms(terms: dict, left, right, leg: int) -> dict:
    """[t, x]_leg for t = terms, with left/right the maps of x (see _mult_maps)."""
    out: dict = {}
    for (a, b, c), v in terms.items():
        if leg == 1:  # a (x) xb (x) c  -  ax (x) b (x) c
            plus = (((a, m, c), w) for m, w in left[b])
            minus = (((m, b, c), w) for m, w in right[a])
        elif leg == 2:  # a (x) b (x) xc  -  a (x) bx (x) c
            plus = (((a, b, m), w) for m, w in left[c])
            minus = (((a, m, c), w) for m, w in right[b])
        else:  # xa (x) b (x) c  -  a (x) b (x) cx
            plus = (((m, b, c), w) for m, w in left[a])
            minus = (((a, b, m), w) for m, w in right[c])
        for key, w in plus:
            out[key] = out.get(key, 0) + v * w
        for key, w in minus:
            out[key] = out.get(key, 0) - v * w
    return _nonzero_terms(out)


def _legwise_product_terms(prods, first: dict, second: dict) -> dict:
    """(a(x)b(x)c) x (p(x)q(x)r) = ap (x) bq (x) cr over the product table prods."""
    out: dict = {}
    for (a, b, c), v in first.items():
        pa, pb, pc = prods[a], prods[b], prods[c]
        for (p, q, r), w in second.items():
            coeff = v * w
            for i, c1 in pa[p]:
                x1 = coeff * c1
                for j, c2 in pb[q]:
                    x2 = x1 * c2
                    for k, c3 in pc[r]:
                        key = (i, j, k)
                        out[key] = out.get(key, 0) + x2 * c3
    return _nonzero_terms(out)


@dataclass(frozen=True)
class Tensor3:
    """Element of A(x)A(x)A: sum grid[a][b][c] e_a(x)e_b(x)e_c."""

    algebra: FDAlgebra
    grid: tuple

    @staticmethod
    def zero(algebra: FDAlgebra) -> Tensor3:
        n = algebra.dim
        return Tensor3.of(algebra, _zero_grid3(n))

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> Tensor3:
        return Tensor3(algebra, tuple(tuple(tuple(r) for r in plane) for plane in grid))

    def _same(self, other: Tensor3) -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("tensors over different algebras")

    def __add__(self, other: Tensor3) -> Tensor3:
        self._same(other)
        n = self.algebra.dim
        return Tensor3.of(
            self.algebra,
            [
                [
                    [self.grid[a][b][c] + other.grid[a][b][c] for c in range(n)]
                    for b in range(n)
                ]
                for a in range(n)
            ],
        )

    def __sub__(self, other: Tensor3) -> Tensor3:
        return self + (-other)

    def __neg__(self) -> Tensor3:
        return Tensor3.of(
            self.algebra,
            [[[-v for v in r] for r in plane] for plane in self.grid],
        )

    def scale(self, c: Scalar) -> Tensor3:
        return Tensor3.of(
            self.algebra,
            [[[c * v for v in r] for r in plane] for plane in self.grid],
        )

    def is_zero(self) -> bool:
        return all(scalar_is_zero(v) for plane in self.grid for r in plane for v in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    def entries(self):
        for a, plane in enumerate(self.grid):
            for b, row in enumerate(plane):
                for c, v in enumerate(row):
                    if not scalar_is_zero(v):
                        yield (a, b, c, v)

    def tau123(self) -> Tensor3:
        """tau123(a(x)b(x)c) = c(x)a(x)b."""
        n = self.algebra.dim
        return Tensor3.of(
            self.algebra,
            [
                [[self.grid[j][k][i] for k in range(n)] for j in range(n)]
                for i in range(n)
            ],
        )

    def tau132(self) -> Tensor3:
        """tau132(a(x)b(x)c) = b(x)c(x)a."""
        return self.tau123().tau123()

    def terms(self) -> dict:
        """The sparse form {(a, b, c): coefficient} of the nonzero entries."""
        return {(a, b, c): v for a, b, c, v in self.entries()}

    def leg_commutator(self, x: AlgElement, leg: int) -> Tensor3:
        """[t, x]_leg per the displayed leg-commutator formulas (leg in 1..3)."""
        if x.algebra != self.algebra:
            raise AlgebraError("element from a different algebra")
        if leg not in (1, 2, 3):
            raise AlgebraError(f"leg must be 1, 2 or 3, got {leg}")
        left, right = _mult_maps(x, left=True), _mult_maps(x, left=False)
        terms = _leg_commutator_terms(self.terms(), left, right, leg)
        return tensor3_from_terms(self.algebra, terms)

    def legwise_product(self, other: Tensor3) -> Tensor3:
        """(a(x)b(x)c) x (p(x)q(x)r) = ap (x) bq (x) cr, extended bilinearly."""
        self._same(other)
        terms = _legwise_product_terms(self.algebra.products, self.terms(), other.terms())
        return tensor3_from_terms(self.algebra, terms)

    def __str__(self) -> str:
        names = self.algebra.basis_names
        parts = [
            f"({v})*{names[a]}(x){names[b]}(x){names[c]}"
            for a, b, c, v in self.entries()
        ]
        return " + ".join(parts) if parts else "0"


def tensor_from_pairs(algebra: FDAlgebra, pairs) -> Tensor2:
    """Sum of coeff * e_a (x) e_b over (a, b, coeff) triples."""
    grid = _zero_grid2(algebra.dim)
    for a, b, coeff in pairs:
        grid[a][b] = grid[a][b] + coeff
    return Tensor2.of(algebra, grid)


def tensor3_from_triples(algebra: FDAlgebra, triples) -> Tensor3:
    grid = _zero_grid3(algebra.dim)
    for a, b, c, coeff in triples:
        grid[a][b][c] = grid[a][b][c] + coeff
    return Tensor3.of(algebra, grid)


def tensor_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor2:
    """The Tensor2 of a sparse tensor {(a, b): coefficient}."""
    return tensor_from_pairs(algebra, ((a, b, v) for (a, b), v in terms.items()))


def tensor3_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor3:
    """The Tensor3 of a sparse tensor {(a, b, c): coefficient}."""
    return tensor3_from_triples(algebra, ((a, b, c, v) for (a, b, c), v in terms.items()))
