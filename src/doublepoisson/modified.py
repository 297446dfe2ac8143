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

Each axiom is written once, in ``axioms``: one generator per axiom.  The
checks here fold the linear ones over a bracket's terms; the H0 Jacobi
check is the solver's scan (``brackets._h0_jacobi_scan``) on the bracket.
"""

from __future__ import annotations

from itertools import groupby

from .algebra import AlgebraError, AlgElement, CommutatorSubspace, FDAlgebra, commutator_subspace
from .axioms import h0_skew_terms, multiplied_terms
from .brackets import CoefficientBracket, _h0_jacobi_scan, _residual
from .poly import RelationSet


class ModifiedBracket(CoefficientBracket):
    """Coefficient bracket checked against the modified-bracket axioms."""

    # -- Leibniz rules -----------------------------------------------------------

    def check_leibniz_both(self, rels: RelationSet | None = None):
        """Residuals of both Leibniz rules over all basis triples."""
        return self.check_second_leibniz(rels) + self.check_first_leibniz(rels)

    # -- the multiplied bracket {-,-} = m o {{-,-}} --------------------------------

    def multiplied(self, x: AlgElement, y: AlgElement) -> AlgElement:
        """{x, y} = m({{x, y}}), extended bilinearly to coordinate vectors."""
        r = _residual(multiplied_terms(self.algebra.products, self.eval(x, y).entries()))
        return self.algebra.element([r.get(k, 0) for k in range(self.algebra.dim)])


def h0_skew_check(mb: ModifiedBracket, subspace: CommutatorSubspace | None = None):
    """{e_i,e_j} + {e_j,e_i} must lie in [A,A] for all basis pairs.

    Basis pairs suffice by bilinearity since [A,A] is a subspace.  Returns the
    list of violating pairs with their trace-space residuals.
    """
    sub = subspace or commutator_subspace(mb.algebra)
    n, terms = mb.algebra.dim, mb.terms
    bad = []
    for i in range(n):
        for j in range(i, n):
            r = _residual(h0_skew_terms(mb.algebra.products, terms[i][j], terms[j][i]))
            flat = sub.project_flat([r.get(c, 0) for c in range(n)])
            if any(flat):
                bad.append(((i, j), flat))
    return bad


def h0_jacobi_check(mb: ModifiedBracket):
    """Residuals of {a,{b,c}} - {b,{a,c}} - {{a,b},c} over all basis triples.

    The bracket's own scan (``brackets._h0_jacobi_scan``) over the algebra's
    product table gives the nonzero coordinates of each residual.
    """
    alg = mb.algebra
    n = alg.dim
    bad = []
    for t, coords in groupby(_h0_jacobi_scan([mb.terms], alg.products, range(n)), lambda e: e[0]):
        r = [0] * n
        for _, c, form in coords:
            r[c] = form[0]
        bad.append((t, alg.element(r)))
    return bad


class FlatBracketTable:
    """The induced bracket on A_flat in the complementary coordinate basis."""

    __slots__ = ("algebra", "basis_indices", "table")

    def __init__(self, algebra: FDAlgebra, basis_indices: tuple[int, ...], table: tuple):
        self.algebra = algebra
        self.basis_indices = basis_indices
        self.table = table

    def is_zero(self) -> bool:
        return not any(c for row in self.table for entry in row for c in entry)

    def antisymmetric(self) -> bool:
        d = len(self.basis_indices)
        for i in range(d):
            for j in range(d):
                for a, b in zip(self.table[i][j], self.table[j][i]):
                    if a + b:
                        return False
        return True


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
                if any(flat):
                    raise IllDefinedFlatBracketError(
                        (tuple(left.coords), tuple(right.coords), flat)
                    )
    table = tuple(
        tuple(sub.project_flat(mb.multiplied(x, y).coords) for y in reps) for x in reps
    )
    return FlatBracketTable(alg, sub.complement_indices, table)
