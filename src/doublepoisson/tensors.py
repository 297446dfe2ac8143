"""Tensor square and cube of an algebra, with all bimodule actions.

Conventions (fixed once, used everywhere):

* outer action on A(x)A:   x.(a(x)b) = xa(x)b,   (a(x)b).x = a(x)bx
* inner action on A(x)A:   x.(a(x)b) = a(x)xb,   (a(x)b).x = ax(x)b
* leg commutators on A(x)A(x)A:
    [a(x)b(x)c, x]_1 = a(x)xb(x)c - ax(x)b(x)c
    [a(x)b(x)c, y]_2 = a(x)b(x)yc - a(x)by(x)c
    [a(x)b(x)c, z]_3 = za(x)b(x)c - a(x)b(x)cz
* cyclic permutation: tau123(a(x)b(x)c) = c(x)a(x)b, tau132 = tau123^2.

A tensor is stored sparse: ``terms`` maps a position (a, b) or (a, b, c) to
its nonzero coefficient, so every operation costs the number of nonzero
terms and products rather than dim^2 or dim^3.  ``grid`` is a dense view,
built on each call, for tests and small reports.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .poly import Scalar, scalar_is_zero


_ZERO = Fraction(0)  # Fractions are immutable, so one zero can fill every grid


def _zero_grid2(n: int) -> list[list[Scalar]]:
    return [[_ZERO] * n for _ in range(n)]


def _nonzero_terms(terms: dict) -> dict:
    return {key: v for key, v in terms.items() if not scalar_is_zero(v)}


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

    # -- actions ---------------------------------------------------------------

    def _mult_leg(self, maps, leg: int) -> Tensor2:
        """Replace one leg by its image: maps[a] holds the (m, w) terms of e_a's image."""
        out: dict = {}
        for (a, b), v in self.terms.items():
            if leg == 1:
                for m, w in maps[a]:
                    out[(m, b)] = out.get((m, b), 0) + w * v
            else:
                for m, w in maps[b]:
                    out[(a, m)] = out.get((a, m), 0) + w * v
        return Tensor2(self.algebra, _nonzero_terms(out))

    def _check_elem(self, x: AlgElement) -> None:
        if x.algebra != self.algebra:
            raise AlgebraError("element from a different algebra")

    def outer_left(self, x: AlgElement) -> Tensor2:
        """x.(a(x)b) = xa(x)b."""
        self._check_elem(x)
        return self._mult_leg(_mult_maps(x, left=True), 1)

    def outer_right(self, x: AlgElement) -> Tensor2:
        """(a(x)b).x = a(x)bx."""
        self._check_elem(x)
        return self._mult_leg(_mult_maps(x, left=False), 2)

    def inner_left(self, x: AlgElement) -> Tensor2:
        """x.(a(x)b) = a(x)xb."""
        self._check_elem(x)
        return self._mult_leg(_mult_maps(x, left=True), 2)

    def inner_right(self, x: AlgElement) -> Tensor2:
        """(a(x)b).x = ax(x)b."""
        self._check_elem(x)
        return self._mult_leg(_mult_maps(x, left=False), 1)


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


# -- sparse kernels ----------------------------------------------------------
#
# The axiom checkers work on sparse tensors: dicts {position: coefficient}
# holding only the terms that arise.  A dict returned by a helper below has
# no zero values, so "not terms" means the tensor is zero.


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

    def leg_commutator(self, x: AlgElement, leg: int) -> Tensor3:
        """[t, x]_leg per the displayed leg-commutator formulas (leg in 1..3)."""
        if x.algebra != self.algebra:
            raise AlgebraError("element from a different algebra")
        if leg not in (1, 2, 3):
            raise AlgebraError(f"leg must be 1, 2 or 3, got {leg}")
        left, right = _mult_maps(x, left=True), _mult_maps(x, left=False)
        return Tensor3(self.algebra, _leg_commutator_terms(self.terms, left, right, leg))

    def legwise_product(self, other: Tensor3) -> Tensor3:
        """(a(x)b(x)c) x (p(x)q(x)r) = ap (x) bq (x) cr, extended bilinearly."""
        self._same(other)
        terms = _legwise_product_terms(self.algebra.products, self.terms, other.terms)
        return Tensor3(self.algebra, terms)


def tensor_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor2:
    """The Tensor2 of a sparse tensor {(a, b): coefficient}; zero values are dropped."""
    return Tensor2(algebra, _nonzero_terms(terms))


def tensor3_from_terms(algebra: FDAlgebra, terms: dict) -> Tensor3:
    """The Tensor3 of a sparse tensor {(a, b, c): coefficient}; zero values are dropped."""
    return Tensor3(algebra, _nonzero_terms(terms))
