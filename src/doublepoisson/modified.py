"""Modified double Poisson brackets (no skew axiom) and H0 structures.

A modified bracket keeps both Leibniz rules as independent axioms:

    {{a, bc}} = (b(x)1){{a,c}} + {{a,b}}(1(x)c)
    {{ab, c}} = (1(x)a){{b,c}} + {{a,c}}(b(x)1)

(the first-argument rule multiplies the second leg by a on the left and the
first leg by b on the right, exactly as displayed), requires m o {{-,-}} to be
skew modulo commutators, and requires the Jacobi identity

    {a,{b,c}} - {b,{a,c}} - {{a,b},c} = 0      with {-,-} = m o {{-,-}}.

The induced bracket on the universal trace space A_flat = A/[A,A] is computed
by flat_bracket, with an explicit well-definedness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import AlgebraError, AlgElement, CommutatorSubspace, FDAlgebra, commutator_subspace
from .brackets import CoefficientBracket
from .poly import RelationSet, Scalar, scalar_is_zero


class ModifiedBracket(CoefficientBracket):
    """Coefficient bracket checked against the modified-bracket axioms."""

    # -- Leibniz rules -----------------------------------------------------------

    def check_leibniz_both(self, rels: RelationSet | None = None):
        """Residuals of both Leibniz rules over all basis triples."""
        return self.check_second_leibniz(rels) + self.check_first_leibniz(rels)

    # -- the multiplied bracket {-,-} = m o {{-,-}} --------------------------------

    def multiplied_basis(self, i: int, j: int) -> tuple:
        """Coordinates of m({{e_i, e_j}}) in A."""
        prods = self.algebra.products
        out: list[Scalar] = [Fraction(0)] * self.algebra.dim
        for a, b, v in self.terms[i][j]:
            for k, c in prods[a][b]:
                out[k] = out[k] + v * c
        return tuple(out)

    def multiplied(self, x: AlgElement, y: AlgElement) -> AlgElement:
        """{x, y} = m({{x, y}}), extended bilinearly to coordinate vectors."""
        alg = self.algebra
        n = alg.dim
        out: list[Scalar] = [Fraction(0)] * n
        for i, xi in enumerate(x.coords):
            if scalar_is_zero(xi):
                continue
            for j, yj in enumerate(y.coords):
                if scalar_is_zero(yj):
                    continue
                c = xi * yj
                vec = self.multiplied_basis(i, j)
                for k in range(n):
                    if not scalar_is_zero(vec[k]):
                        out[k] = out[k] + c * vec[k]
        return alg.element(out)


def _multiplied_table(mb: ModifiedBracket) -> list[list[tuple]]:
    """table[a][b]: the coordinates of m({{e_a, e_b}}), computed once per basis pair."""
    n = mb.algebra.dim
    return [[mb.multiplied_basis(a, b) for b in range(n)] for a in range(n)]


def h0_skew_check(mb: ModifiedBracket, subspace: CommutatorSubspace | None = None):
    """{e_i,e_j} + {e_j,e_i} must lie in [A,A] for all basis pairs.

    Basis pairs suffice by bilinearity since [A,A] is a subspace.  Returns the
    list of violating pairs with their trace-space residuals.
    """
    sub = subspace or commutator_subspace(mb.algebra)
    table = _multiplied_table(mb)
    n = mb.algebra.dim
    bad = []
    for i in range(n):
        for j in range(i, n):
            flat = sub.project_flat([a + b for a, b in zip(table[i][j], table[j][i])])
            if any(not scalar_is_zero(c) for c in flat):
                bad.append(((i, j), flat))
    return bad


def h0_jacobi_check(mb: ModifiedBracket):
    """Residuals of {a,{b,c}} - {b,{a,c}} - {{a,b},c} over all basis triples.

    Each term is read from the table M[a][b] = m({{e_a, e_b}}), by its nonzero
    coordinates: {e_i, {e_j, e_k}} = sum_b M[j][k]_b M[i][b], and so on.
    """
    alg = mb.algebra
    n = alg.dim
    table = [
        [[(c, v) for c, v in enumerate(vec) if not scalar_is_zero(v)] for vec in row]
        for row in _multiplied_table(mb)
    ]
    bad = []
    for i, j, k in product(range(n), repeat=3):
        r: list[Scalar] = [Fraction(0)] * n
        for b, v in table[j][k]:
            for c, w in table[i][b]:
                r[c] = r[c] + v * w
        for b, v in table[i][k]:
            for c, w in table[j][b]:
                r[c] = r[c] - v * w
        for a, v in table[i][j]:
            for c, w in table[a][k]:
                r[c] = r[c] - v * w
        if any(not scalar_is_zero(c) for c in r):
            bad.append(((i, j, k), alg.element(r)))
    return bad


@dataclass(frozen=True)
class FlatBracketTable:
    """The induced bracket on A_flat in the complementary coordinate basis."""

    algebra: FDAlgebra
    basis_indices: tuple[int, ...]
    table: tuple[tuple[tuple, ...], ...]

    def is_zero(self) -> bool:
        return all(
            scalar_is_zero(c) for row in self.table for entry in row for c in entry
        )

    def antisymmetric(self) -> bool:
        d = len(self.basis_indices)
        for i in range(d):
            for j in range(d):
                for a, b in zip(self.table[i][j], self.table[j][i]):
                    if not scalar_is_zero(a + b):
                        return False
        return True

    def _bracket_vec(self, x, y):
        """[x, y] for coordinate vectors over the flat basis, via the table."""
        d = len(self.basis_indices)
        out = [Fraction(0)] * d
        for i, xi in enumerate(x):
            if scalar_is_zero(xi):
                continue
            for j, yj in enumerate(y):
                if scalar_is_zero(yj):
                    continue
                c = xi * yj
                for k in range(d):
                    v = self.table[i][j][k]
                    if not scalar_is_zero(v):
                        out[k] = out[k] + c * v
        return out

    def lie_jacobi_residuals(self):
        """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] over the flat basis triples."""
        d = len(self.basis_indices)
        basis = [[Fraction(1 if k == i else 0) for k in range(d)] for i in range(d)]
        bad = []
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    r = [
                        a + b + c
                        for a, b, c in zip(
                            self._bracket_vec(basis[i], self._bracket_vec(basis[j], basis[k])),
                            self._bracket_vec(basis[j], self._bracket_vec(basis[k], basis[i])),
                            self._bracket_vec(basis[k], self._bracket_vec(basis[i], basis[j])),
                        )
                    ]
                    if any(not scalar_is_zero(v) for v in r):
                        bad.append(((i, j, k), r))
        return bad


class IllDefinedFlatBracketError(AlgebraError):
    """The multiplied bracket is representative-dependent on A_flat."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"flat bracket ill-defined; witness: {witness}")


def flat_bracket(mb: ModifiedBracket, subspace: CommutatorSubspace | None = None) -> FlatBracketTable:
    """{x,y}_H0 = (m o {{xbar, ybar}})_flat on a basis of A_flat.

    Representatives are the complementary coordinate basis vectors; the result
    is certified representative-independent by shifting each slot by every
    basis commutator and checking the projection is unchanged.
    """
    alg = mb.algebra
    sub = subspace or commutator_subspace(alg)
    reps = [alg.basis_element(i) for i in sub.complement_indices]
    shifts = [alg.element(row) for row in sub.basis]
    for h in shifts:
        for y in reps + shifts:
            for left, right in ((h, y), (y, h)):
                flat = sub.project_flat(mb.multiplied(left, right).coords)
                if any(not scalar_is_zero(c) for c in flat):
                    raise IllDefinedFlatBracketError(
                        (tuple(left.coords), tuple(right.coords), flat)
                    )
    table = tuple(
        tuple(sub.project_flat(mb.multiplied(x, y).coords) for y in reps) for x in reps
    )
    return FlatBracketTable(alg, sub.complement_indices, table)
