from fractions import Fraction

import pytest

from doublepoisson.algebra import make_a2, make_matrix_algebra
from doublepoisson.families import (
    A2_MODIFIED_PARAM_SLOTS,
    a2_double_family,
    a2_modified_family,
    a2_modified_family_symbolic,
)
from doublepoisson.linalg import in_span, rank_of_vectors
from doublepoisson.modified import (
    IllDefinedFlatBracketError,
    ModifiedBracket,
    flat_bracket,
    h0_jacobi_check,
    h0_skew_check,
)
from doublepoisson.solver import solve_modified, solve_modified_linear
from jacobi_oracles import lie_jacobi_residuals


@pytest.fixture(scope="module")
def a2():
    return make_a2()


@pytest.fixture(scope="module")
def symbolic_family():
    return a2_modified_family_symbolic()


def test_family_passes_leibniz_both(symbolic_family):
    mb, _ = symbolic_family
    assert not mb.check_leibniz_both()


def test_double_family_passes_leibniz_both(a2):
    # skew + second-argument Leibniz implies the displayed first-argument rule
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -2, 1)):
        db = a2_double_family(*(Fraction(x) for x in pt))
        mb = ModifiedBracket(a2, db.terms)
        assert not mb.check_leibniz_both()


def test_constant_bracket_fails_leibniz(a2):
    one = a2.unit
    entries = []
    for i in range(3):
        for j in range(3):
            for u, cu in enumerate(one):
                for v, cv in enumerate(one):
                    if cu * cv != 0:
                        entries.append((i, j, u, v, cu * cv))
    const = ModifiedBracket.from_entries(a2, entries)
    assert const.check_leibniz_both()


def test_h0_skew(symbolic_family, a2):
    mb, _ = symbolic_family
    assert not h0_skew_check(mb)
    # {{e1,e1}} = e1(x)e1 alone: m() gives 2 e1, and e1 is not in [A,A]
    bad = ModifiedBracket.from_entries(a2, [(1, 1, 1, 1, Fraction(1))])
    violations = h0_skew_check(bad)
    assert violations and violations[0][0] == (1, 1)


def test_h0_jacobi(symbolic_family, a2):
    mb, _ = symbolic_family
    assert not h0_jacobi_check(mb)
    assert not h0_jacobi_check(ModifiedBracket.zero(a2))
    alpha = a2_double_family(Fraction(1), Fraction(0), Fraction(0))
    assert not h0_jacobi_check(ModifiedBracket(a2, alpha.terms))


def test_conic_double_brackets_pass_all_modified_checks(a2):
    # every double Poisson bracket is in particular a modified one
    for pt in ((1, -1, 1), (4, -1, 2), (1, 0, 0), (0, 1, 0)):
        db = a2_double_family(*(Fraction(x) for x in pt))
        mb = ModifiedBracket(a2, db.terms)
        assert not mb.check_leibniz_both()
        assert not h0_skew_check(mb)
        assert not h0_jacobi_check(mb)


def test_multiplied_brackets_vanish_for_family(symbolic_family, a2):
    mb, _ = symbolic_family
    for i in range(3):
        for j in range(3):
            assert all(
                c == 0 or c.is_zero() for c in mb.multiplied_basis(i, j)
            )


def test_flat_bracket_family_zero(symbolic_family):
    mb, _ = symbolic_family
    table = flat_bracket(mb)
    assert table.is_zero()
    assert table.antisymmetric()
    assert not lie_jacobi_residuals(table)
    assert len(table.basis_indices) == 2  # A_flat of a2 has dimension 2


def test_flat_bracket_is_lie_on_every_solution(a2):
    # whenever the H0 checks pass, the flat table is antisymmetric and Lie
    variety = solve_modified(a2)
    for mb in variety.nullspace_basis:
        table = flat_bracket(mb)
        assert table.antisymmetric()
        assert not lie_jacobi_residuals(table)


def test_flat_bracket_double_family(a2):
    db = a2_double_family(Fraction(1), Fraction(0), Fraction(0))
    assert flat_bracket(ModifiedBracket(a2, db.terms)).is_zero()
    assert flat_bracket(ModifiedBracket.zero(a2)).is_zero()


def test_flat_bracket_ill_defined_witness(a2):
    # {{e0,e0}} = e1(x)e1 multiplies to {e0,e0} = e1, which projects to a
    # nonzero class; e0 is a commutator, so the flat bracket would depend on
    # the representative and must be rejected with a witness.
    bad = ModifiedBracket.from_entries(a2, [(0, 0, 1, 1, Fraction(1))])
    with pytest.raises(IllDefinedFlatBracketError) as err:
        flat_bracket(bad)
    assert err.value.witness


def test_solve_modified_contains_family_and_reports_honest_dim(a2):
    variety = solve_modified(a2)
    fam = []
    for k in range(7):
        args = [Fraction(0)] * 7
        args[k] = Fraction(1)
        fam.append(a2_modified_family(*args).flat_coeffs())
    assert rank_of_vectors(fam) == 7
    null = [b.flat_coeffs() for b in variety.nullspace_basis]
    for v in fam:
        assert in_span(null, v)
    # the classical count is 7; computation gives 8 because the classical
    # family misses the flip-swap image of its kappa-direction (see README
    # "Known deviation"): the gamma-direction double bracket is itself a
    # modified bracket outside that family.
    assert variety.dim == 8
    gamma_dir = a2_double_family(Fraction(0), Fraction(0), Fraction(1))
    assert in_span(null, gamma_dir.flat_coeffs())
    assert not in_span(fam, gamma_dir.flat_coeffs())
    # and the quadratic constraint set is empty either way
    assert variety.quadratic_constraints == ()


def test_solve_modified_linear_equals_full(a2):
    # H0-Jacobi cuts nothing here: the multiplied bracket vanishes identically
    assert solve_modified_linear(a2).dim == solve_modified(a2).dim


def test_every_nullspace_direction_passes_all_modified_axioms(a2):
    variety = solve_modified(a2)
    for mb in variety.nullspace_basis:
        assert not mb.check_leibniz_both()
        assert not h0_skew_check(mb)
        assert not h0_jacobi_check(mb)
        flat_bracket(mb)  # must not raise


def test_mat1_modified_zero():
    assert solve_modified(make_matrix_algebra(1)).dim == 0


def test_skew_locus_of_family_is_inside_double_family(a2):
    """Imposing skew on the modified family recovers double brackets."""
    from doublepoisson.linalg import nullspace_of_rows

    fam_tensors = []
    for k in range(7):
        args = [Fraction(0)] * 7
        args[k] = Fraction(1)
        fam_tensors.append(a2_modified_family(*args).flat_coeffs())
    n = 3

    def flat(i, j, a, b):
        return ((i * n + j) * n + a) * n + b

    # rows: sum_k t_k (F_k[i][j][a][b] + F_k[j][i][b][a]) = 0
    rows = []
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    row = {}
                    for k, F in enumerate(fam_tensors):
                        v = F[flat(i, j, a, b)] + F[flat(j, i, b, a)]
                        if v:
                            row[k] = row.get(k, Fraction(0)) + v
                    if row:
                        rows.append(row)
    skew_locus = nullspace_of_rows(rows, 7)
    assert skew_locus  # nonempty
    double_span = [
        a2_double_family(*(Fraction(1 if i == k else 0) for i in range(3))).flat_coeffs()
        for k in range(3)
    ]
    for point in skew_locus:
        tensor = a2_modified_family(*(point.get(k, Fraction(0)) for k in range(7))).flat_coeffs()
        assert in_span(double_span, tensor)


def test_param_slots_read_back(symbolic_family):
    mb, ring = symbolic_family
    for name, (i, j, a, b) in A2_MODIFIED_PARAM_SLOTS.items():
        coeff = mb.coeffs[i][j][a][b]
        # each slot reads off exactly one symbolic parameter
        assert len(coeff.terms) == 1
