import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import FDAlgebra, generating_set, make_a2, make_matrix_algebra, resolve_preset
from doublepoisson.brackets import DoubleBracket, DoubleDerivation
from doublepoisson.families import (
    A2_DOUBLE_PARAM_SLOTS,
    a2_double_family,
)
from doublepoisson.linalg import (
    in_span,
    invert_matrix,
    nullspace_of_rows,
    rank_of_vectors,
    subspaces_equal,
)
from doublepoisson.modified import ModifiedBracket
from doublepoisson.poly import MultiPoly, grlex_key
from doublepoisson.tensors import Tensor2
from doublepoisson.solver import (
    LinearVariety,
    _derivation_rows,
    _first_leibniz_rows,
    _h0_skew_rows,
    _jacobi_forms,
    _skew_rows,
    _with_constraints,
    double_derivation_space,
    h0_jacobi_constraints,
    inner_bracket_span,
    inner_bracket_span_equality,
    jacobi_constraints,
    outer_double_derivation_dim,
    solve,
    solve_linear,
    solve_modified_linear,
)


@pytest.fixture(scope="module")
def a2_variety():
    return jacobi_constraints(solve_linear(make_a2()))


def test_a2_nullspace_dim(a2_variety):
    assert a2_variety.dim == 3


def test_a2_nullspace_matches_display(a2_variety):
    display = [
        a2_double_family(Fraction(1), Fraction(0), Fraction(0)).flat_coeffs(),
        a2_double_family(Fraction(0), Fraction(1), Fraction(0)).flat_coeffs(),
        a2_double_family(Fraction(0), Fraction(0), Fraction(1)).flat_coeffs(),
    ]
    nullspace = [b.flat_coeffs() for b in a2_variety.nullspace_basis]
    assert subspaces_equal(nullspace, display)


def test_a2_reparametrization_is_term_for_term(a2_variety):
    """Solve, reparametrize to (alpha, beta, gamma), compare every coefficient."""
    general = a2_variety.general_element()
    ring = a2_variety.ring()
    # linear forms reading the family parameters off the general element
    forms = {
        nm: general.coeffs[i][j][a][b] for nm, (i, j, a, b) in A2_DOUBLE_PARAM_SLOTS.items()
    }
    # the t -> (alpha, beta, gamma) map must be invertible
    mat = [
        [forms[nm].coefficient(tuple(1 if k == col else 0 for k in range(3))) for col in range(3)]
        for nm in ("alpha", "beta", "gamma")
    ]
    inv = invert_matrix(mat)  # raises if singular
    # build the display-family bracket with symbolic (alpha, beta, gamma)
    # expressed through t, then compare tensors term by term
    alpha, beta, gamma = (forms[nm] for nm in ("alpha", "beta", "gamma"))
    display = a2_double_family(alpha, beta, gamma, params=ring.names)
    assert display == general


def test_a2_quadratic_constraint(a2_variety):
    assert len(a2_variety.quadratic_constraints) == 1
    constraint = a2_variety.quadratic_constraints[0]
    general = a2_variety.general_element()
    forms = {
        nm: general.coeffs[i][j][a][b] for nm, (i, j, a, b) in A2_DOUBLE_PARAM_SLOTS.items()
    }
    conic = forms["gamma"] * forms["gamma"] + forms["alpha"] * forms["beta"]
    lead = conic.leading_monomial()
    ratio = constraint.coefficient(lead) / conic.coefficient(lead)
    assert ratio != 0
    assert (constraint - conic * ratio).is_zero()


def test_a2_point_substitution(a2_variety):
    # rational points on the conic pass check_all; off the conic they fail
    general = a2_variety.general_element()
    for values in ((1, 0, 0), (2, -2, 2), (0, 3, 0)):
        db = a2_variety.point(values)
        constraint_vals = [
            q.eval_rational(dict(zip(a2_variety.parameter_names, map(Fraction, values))))
            for q in a2_variety.quadratic_constraints
        ]
        rep = db.check_all()
        assert rep.skew_ok and rep.leibniz_ok
        assert rep.jacobi_ok == all(v == 0 for v in constraint_vals)


def test_mat1_solves_to_zero():
    v = jacobi_constraints(solve_linear(make_matrix_algebra(1)))
    assert v.dim == 0 and not v.quadratic_constraints


def test_nullspace_basis_passes_linear_axioms():
    for alg in (make_a2(), make_matrix_algebra(2), resolve_preset("mat1+mat1")):
        variety = solve_linear(alg)
        for db in variety.nullspace_basis:
            assert not db.check_skew()
            assert not db.check_leibniz()


def test_mat2_innerness():
    m2 = make_matrix_algebra(2)
    assert inner_bracket_span_equality(m2)
    dim_der, dim_inner, dim_outer = outer_double_derivation_dim(m2)
    assert dim_outer == 0
    assert dim_inner <= dim_der
    span = [db.flat_coeffs() for db in inner_bracket_span(m2)]
    assert rank_of_vectors(span) <= m2.dim * (m2.dim - 1) // 2


def test_mat1_plus_mat1_innerness():
    mm = resolve_preset("mat1+mat1")
    assert inner_bracket_span_equality(mm)
    assert outer_double_derivation_dim(mm)[2] == 0


def test_mat3_innerness():
    # the guarded large case stays exact and finishes in seconds
    m3 = make_matrix_algebra(3)
    assert outer_double_derivation_dim(m3)[2] == 0
    assert inner_bracket_span_equality(m3)


def test_derivation_space_members_are_derivations():
    from doublepoisson.brackets import bracket_from_bivector

    a2 = make_a2()
    der_basis, inner_gens = double_derivation_space(a2)
    for d in der_basis + inner_gens:
        assert d.is_derivation()
    # find a genuinely outer derivation and feed it through the bivector map:
    # the result must still satisfy skew and Leibniz
    inner_span = [d.flat_coeffs() for d in inner_gens]
    outer = next(d for d in der_basis if not in_span(inner_span, d.flat_coeffs()))
    partner = inner_gens[1]
    q = bracket_from_bivector(outer, partner)
    assert not q.check_skew()
    assert not q.check_leibniz()


def test_a2_innerness_probe_reported():
    # no expected value is asserted by the source material; the probe reports
    # a positive outer dimension and the span inequality consistently
    a2 = make_a2()
    dim_der, dim_inner, dim_outer = outer_double_derivation_dim(a2)
    assert dim_der == dim_inner + dim_outer
    assert dim_outer >= 0
    equal = inner_bracket_span_equality(a2)
    # the beta-direction is a double bracket but not an inner one
    beta = a2_double_family(Fraction(0), Fraction(1), Fraction(0))
    span = [db.flat_coeffs() for db in inner_bracket_span(a2)]
    assert in_span(span, beta.flat_coeffs()) == equal == False  # noqa: E712


def test_solve_wrapper_matches_pieces():
    a2 = make_a2()
    v1 = solve(a2)
    v2 = jacobi_constraints(solve_linear(a2))
    assert v1.dim == v2.dim
    assert [str(q) for q in v1.quadratic_constraints] == [str(q) for q in v2.quadratic_constraints]


# -- oracle: the symbolic general-element path ----------------------------------
#
# The constraints used to be computed by pushing the MultiPoly general element
# through the axioms; that path, rebuilt here from the public API, is the
# oracle of the polarization kernel.  The constraints are a reduced echelon
# basis of the span of the oracle's residual entries, so they are compared
# by span, and their echelon form is checked on its own.


def _distinct_pairwise(polys):
    kept = []
    for p in polys:
        if p.is_zero():
            continue
        q = p * (Fraction(1) / p.coefficient(p.leading_monomial()))
        if all(q != other for other in kept):
            kept.append(q)
    return tuple(kept)


def _oracle_jacobi(variety):
    if variety.dim == 0:
        return ()
    general = variety.general_element()
    n = variety.algebra.dim
    polys = [
        v
        for i, j, k in product(range(n), repeat=3)
        for _, _, _, v in general.double_jacobiator(i, j, k).entries()
    ]
    return _distinct_pairwise(polys)


def _oracle_h0_jacobi(variety):
    if variety.dim == 0:
        return ()
    general = variety.general_element()
    alg = variety.algebra
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    m = general.multiplied
    polys = []
    for i, j, k in product(range(alg.dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        r = m(x, m(y, z)) - m(y, m(x, z)) - m(m(x, y), z)
        polys.extend(c for c in r.coords if isinstance(c, MultiPoly))
    return _distinct_pairwise(polys)


def _all_triples_jacobi(variety):
    """The Jacobi constraints from every basis triple, not only generator triples."""
    if variety.dim == 0:
        return variety
    return _with_constraints(variety, _jacobi_forms(variety, range(variety.algebra.dim)))


def _assert_echelon_basis_of_span(got, oracle):
    """``got`` is the reduced echelon basis of span(oracle), largest leading monomial first."""
    leads = [q.leading_monomial() for q in got]
    assert all(q.coefficient(lead) == 1 for q, lead in zip(got, leads))
    assert leads == sorted(set(leads), key=grlex_key, reverse=True)
    assert all(q.coefficient(lead) == 0 for q in got for lead in leads if lead != q.leading_monomial())
    monomials = sorted({e for p in chain(got, oracle) for e in p.terms})
    got_rows = [[q.coefficient(e) for e in monomials] for q in got]
    oracle_rows = [[p.coefficient(e) for e in monomials] for p in oracle]
    assert subspaces_equal(got_rows, oracle_rows)
    assert len(got) == rank_of_vectors(oracle_rows)


def _t3_data():
    cells = [(i, j) for i in range(3) for j in range(i, 3)]
    mul = [
        [x, y, cells.index((i, l)), "1"]
        for x, (i, j) in enumerate(cells)
        for y, (k, l) in enumerate(cells)
        if j == k
    ]
    unit = ["1" if i == j else "0" for i, j in cells]
    return {"name": "T3", "basis": [f"E{i + 1}{j + 1}" for i, j in cells], "unit": unit, "mul": mul}


def _t3_json(path):
    path.write_text(json.dumps(_t3_data()))
    return str(path)


ORACLE_ALGEBRAS = ("a2", "mat1+mat1", "mat2", "a2+mat1", "a2+a2", "T3")


def _oracle_algebra(spec, tmp_path):
    return dpio.load_algebra(_t3_json(tmp_path / "T3.json") if spec == "T3" else spec)


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS)
def test_jacobi_constraints_match_symbolic_oracle(spec, tmp_path):
    linear = solve_linear(_oracle_algebra(spec, tmp_path))
    got = jacobi_constraints(linear).quadratic_constraints
    _assert_echelon_basis_of_span(got, _oracle_jacobi(linear))
    if spec == "a2":
        assert [str(q) for q in got] == ["t0*t1 + t2^2"]


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS)
def test_h0_jacobi_constraints_match_symbolic_oracle(spec, tmp_path):
    linear = solve_modified_linear(_oracle_algebra(spec, tmp_path))
    got = h0_jacobi_constraints(linear).quadratic_constraints
    _assert_echelon_basis_of_span(got, _oracle_h0_jacobi(linear))


@pytest.mark.parametrize("spec", ("a2", "mat1+mat1", "mat2", "T3"))
def test_jacobi_constraints_match_sympy_rref(spec, tmp_path):
    linear = solve_linear(_oracle_algebra(spec, tmp_path))
    got = jacobi_constraints(linear).quadratic_constraints
    oracle = _oracle_jacobi(linear)
    expected = []
    if oracle:
        # columns by descending graded lex, so pivots come first by leading monomial
        monomials = sorted({e for p in oracle for e in p.terms}, key=grlex_key, reverse=True)
        matrix = sympy.Matrix(
            [[sympy.Rational(str(p.coefficient(e))) for e in monomials] for p in oracle]
        )
        reduced, pivots = matrix.rref()
        ring = linear.ring()
        for r in range(len(pivots)):
            row = reduced.row(r)
            expected.append(
                MultiPoly(ring, {e: Fraction(int(v.p), int(v.q)) for e, v in zip(monomials, row) if v})
            )
    assert [str(q) for q in got] == [str(q) for q in expected]


# -- oracle: the Jacobi scan over all basis triples -------------------------------
#
# jacobi_constraints scans only the triples of a generating set.  On brackets
# that satisfy skew symmetry and Leibniz the jacobiator is a derivation in
# each argument, so the scan over all basis triples, the same kernel with the
# whole basis as generators, must give the same reduced basis.

# the classify ladder, with the rank of its Jacobi constraint span
CLASSIFY_RUNGS = {
    "a2": 1,
    "mat1+mat1": 0,
    "mat2": 1,
    "a2+mat1": 10,
    "T3": 64,
    "mat2+mat1": 13,
    "a2+a2": 49,
    "mat2~rebased": 1,
    "mat3": 156,
}


@pytest.mark.parametrize("spec", list(CLASSIFY_RUNGS))
def test_generator_triples_give_the_all_triples_basis(spec, tmp_path):
    linear = solve_linear(_two_stage_algebra(spec, tmp_path))
    got = jacobi_constraints(linear).quadratic_constraints
    full = _all_triples_jacobi(linear).quadratic_constraints
    assert [str(q) for q in got] == [str(q) for q in full]
    assert len(got) == CLASSIFY_RUNGS[spec]


@lru_cache(maxsize=None)
def _linear_variety(spec):
    algebra = dpio.algebra_from_json(_t3_data()) if spec == "T3" else resolve_preset(spec)
    return solve_linear(algebra)


def _relabelled(algebra, perm):
    """The algebra with basis element i renamed perm[i]."""
    n = algebra.dim
    mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    unit = [Fraction(0)] * n
    for i in range(n):
        unit[perm[i]] = algebra.unit[i]
        for j in range(n):
            for k in range(n):
                mul[perm[i]][perm[j]][perm[k]] = algebra.mul[i][j][k]
    names = tuple(algebra.basis_names[perm.index(i)] for i in range(n))
    return FDAlgebra(algebra.name, names, tuple(unit), tuple(tuple(tuple(v) for v in row) for row in mul))


@seed(20261019)
@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_constraint_basis_does_not_depend_on_the_generating_set(data):
    linear = _linear_variety(data.draw(st.sampled_from(("a2", "mat2", "a2+mat1", "mat2+mat1", "a2+a2", "T3"))))
    algebra = linear.algebra
    perm = data.draw(st.permutations(range(algebra.dim)))
    # greedy in the permuted basis order, mapped back to the original indices
    permuted = tuple(perm.index(g) for g in generating_set(_relabelled(algebra, perm)))
    bases = [
        _with_constraints(linear, _jacobi_forms(linear, generators)).quadratic_constraints
        for generators in (permuted, generating_set(algebra), range(algebra.dim))
    ]
    assert [str(q) for q in bases[0]] == [str(q) for q in bases[1]] == [str(q) for q in bases[2]]


_small_rational = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3))
)


@st.composite
def _random_varieties(draw):
    """Varieties over random small basis brackets.

    The brackets satisfy no axiom, but polarization is an identity of bilinear
    algebra that holds regardless, and these inputs reach nonzero H0-Jacobi
    constraints and non-integer coefficients, which the presets do not.
    """
    algebra = resolve_preset(draw(st.sampled_from(("a2", "mat1+mat1", "mat2"))))
    modified = draw(st.booleans())
    cls = ModifiedBracket if modified else DoubleBracket
    n = algebra.dim
    slot = st.tuples(*[st.integers(0, n - 1)] * 4)
    basis = []
    for _ in range(draw(st.integers(1, 3))):
        entries = draw(st.lists(st.tuples(slot, _small_rational), max_size=6))
        basis.append(cls.from_entries(algebra, [(*s, c) for s, c in entries]))
    names = tuple(f"t{k}" for k in range(len(basis)))
    return LinearVariety(algebra, names, tuple(basis), (), modified)


@seed(20261017)
@settings(max_examples=40, deadline=None, database=None)
@given(_random_varieties())
def test_polarization_matches_oracle_on_random_brackets(variety):
    # these brackets break Leibniz, so only the scan over all triples applies
    if variety.modified:
        got = h0_jacobi_constraints(variety).quadratic_constraints
        expected = _oracle_h0_jacobi(variety)
    else:
        got = _all_triples_jacobi(variety).quadratic_constraints
        expected = _oracle_jacobi(variety)
    _assert_echelon_basis_of_span(got, expected)


# -- oracle: the dense row loops over all index tuples ------------------------------
#
# The Leibniz rows and the derivation space used to be built by scanning the
# dense structure constants mul[i][j][k] for every index tuple, and the inner
# generators as dense DoubleDerivation values.  Those loops, kept here, are
# the oracle of the rows read from the sparse product table.


def _row_adder(row):
    def add(idx, v):
        s = row.get(idx, Fraction(0)) + v
        if s == 0:
            row.pop(idx, None)
        else:
            row[idx] = s

    return add


def _flat4(n, i, j, a, b):
    return ((i * n + j) * n + a) * n + b


def _dense_second_leibniz_rows(algebra):
    n = algebra.dim
    mul = algebra.mul
    for i, k, l, c, d in product(range(n), repeat=5):
        row = {}
        add = _row_adder(row)
        for m in range(n):
            if mul[k][l][m] != 0:
                add(_flat4(n, i, m, c, d), mul[k][l][m])
        for a in range(n):
            if mul[k][a][c] != 0:
                add(_flat4(n, i, l, a, d), -mul[k][a][c])
        for b in range(n):
            if mul[b][l][d] != 0:
                add(_flat4(n, i, k, c, b), -mul[b][l][d])
        if row:
            yield row


def _dense_first_leibniz_rows(algebra):
    n = algebra.dim
    mul = algebra.mul
    for k, l, i, c, d in product(range(n), repeat=5):
        row = {}
        add = _row_adder(row)
        for m in range(n):
            if mul[k][l][m] != 0:
                add(_flat4(n, m, i, c, d), mul[k][l][m])
        for b in range(n):
            if mul[k][b][d] != 0:
                add(_flat4(n, l, i, c, b), -mul[k][b][d])
        for a in range(n):
            if mul[a][l][c] != 0:
                add(_flat4(n, k, i, a, d), -mul[a][l][c])
        if row:
            yield row


def _dense_double_derivation_space(algebra):
    n = algebra.dim
    mul = algebra.mul

    def flat(i, a, b):
        return (i * n + a) * n + b

    def rows():
        for i, j, c, d in product(range(n), repeat=4):
            row = {}
            add = _row_adder(row)
            for m in range(n):
                if mul[i][j][m] != 0:
                    add(flat(m, c, d), mul[i][j][m])
            for b in range(n):
                if mul[b][j][d] != 0:
                    add(flat(i, c, b), -mul[b][j][d])
            for a in range(n):
                if mul[i][a][c] != 0:
                    add(flat(j, a, d), -mul[i][a][c])
            if row:
                yield row

    der_basis = [
        DoubleDerivation.from_grids(
            algebra, [[[vec.get(flat(i, a, b), 0) for b in range(n)] for a in range(n)] for i in range(n)]
        )
        for vec in nullspace_of_rows(rows(), n**3)
    ]
    inner_gens = []
    for p, q in product(range(n), repeat=2):
        grid = [[Fraction(int((a, b) == (p, q))) for b in range(n)] for a in range(n)]
        inner_gens.append(DoubleDerivation.inner(Tensor2.of(algebra, grid)))
    return der_basis, inner_gens


def _slot_derivation_rows(algebra):
    """The second-argument Leibniz rows: the derivation rows on each slot's block C[i]."""
    n = algebra.dim
    for i in range(n):
        yield from _derivation_rows(algebra, i * n**3)


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS)
def test_leibniz_rows_match_dense_oracle(spec, tmp_path):
    algebra = _oracle_algebra(spec, tmp_path)
    assert list(_slot_derivation_rows(algebra)) == list(_dense_second_leibniz_rows(algebra))
    # the same rows, now generated slot by slot
    assert sorted(sorted(r.items()) for r in _first_leibniz_rows(algebra)) == sorted(
        sorted(r.items()) for r in _dense_first_leibniz_rows(algebra)
    )


def _halved_json(spec, path):
    """The algebra in the basis e_i / 2: structure constants halved, unit doubled."""
    data = dpio.algebra_to_json(resolve_preset(spec))
    data["mul"] = [[i, j, k, str(Fraction(c) / 2)] for i, j, k, c in data["mul"]]
    data["unit"] = [str(2 * Fraction(u)) for u in data["unit"]]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("spec", ("a2", "mat1+mat1", "mat2", "a2+a2", "T3", "mat3", "a2+mat1/2"))
def test_derivation_space_matches_dense_oracle(spec, tmp_path):
    if spec.endswith("/2"):  # non-integer structure constants
        algebra = dpio.load_algebra(_halved_json(spec[:-2], tmp_path / "halved.json"))
    else:
        algebra = _oracle_algebra(spec, tmp_path)
    der_basis, inner_gens = double_derivation_space(algebra)
    dense_der, dense_inner = _dense_double_derivation_space(algebra)
    assert der_basis == dense_der
    assert inner_gens == dense_inner
    dense_inner_dim = rank_of_vectors([d.flat_coeffs() for d in dense_inner])
    assert outer_double_derivation_dim(algebra) == (
        len(dense_der),
        dense_inner_dim,
        len(dense_der) - dense_inner_dim,
    )
    assert subspaces_equal([d.flat_coeffs() for d in der_basis], [d.flat_coeffs() for d in dense_der])


# -- oracle: the one-shot linear systems on n^4 unknowns ------------------------------
#
# The linear axioms used to be solved as one system over the whole coefficient
# tensor.  The two-stage solver (derivations first) must return exactly the
# same nullspace basis: the same Fractions, in the same order.


def _dense_nullspace(rows, ncols):
    return [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in nullspace_of_rows(rows, ncols)]


def _one_shot_solve_linear(algebra):
    rows = chain(_skew_rows(algebra), _slot_derivation_rows(algebra))
    return _dense_nullspace(rows, algebra.dim**4)


def _one_shot_solve_modified_linear(algebra):
    rows = chain(_slot_derivation_rows(algebra), _first_leibniz_rows(algebra), _h0_skew_rows(algebra))
    return _dense_nullspace(rows, algebra.dim**4)


def _rebased_json(spec, path, seed):
    """The algebra in the basis f = P e for a seeded unimodular integer P."""
    algebra = resolve_preset(spec)
    n = algebra.dim
    rng = random.Random(seed)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]  # P^-1
    for _ in range(6):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[a] = [x + s * y for x, y in zip(P[a], P[b])]
        for row in Q:
            row[b] -= s * row[a]
    mul = []
    for i, k in product(range(n), repeat=2):
        # f_i f_k in e-coordinates, then in f-coordinates via e_m = sum_r Q[m][r] f_r
        e_coords = [
            sum(P[i][j] * P[k][l] * algebra.mul[j][l][m] for j in range(n) for l in range(n))
            for m in range(n)
        ]
        for r in range(n):
            c = sum(e_coords[m] * Q[m][r] for m in range(n))
            if c:
                mul.append([i, k, r, str(c)])
    data = dpio.algebra_to_json(algebra)
    data["mul"] = mul
    data["unit"] = [str(sum(algebra.unit[m] * Q[m][r] for m in range(n))) for r in range(n)]
    path.write_text(json.dumps(data))
    return str(path)


TWO_STAGE_ALGEBRAS = ORACLE_ALGEBRAS + ("mat2+mat1", "mat2~rebased", "a2+mat1/2", "mat3")


def _two_stage_algebra(spec, tmp_path):
    if spec.endswith("/2"):
        return dpio.load_algebra(_halved_json(spec[:-2], tmp_path / "halved.json"))
    if spec.endswith("~rebased"):
        return dpio.load_algebra(_rebased_json(spec[:-8], tmp_path / "rebased.json", 20261018))
    return _oracle_algebra(spec, tmp_path)


def _exact(vectors):
    return [[repr(v) for v in vec] for vec in vectors]


@pytest.mark.parametrize("spec", TWO_STAGE_ALGEBRAS)
def test_solve_linear_matches_one_shot_oracle(spec, tmp_path):
    algebra = _two_stage_algebra(spec, tmp_path)
    got = [b.flat_coeffs() for b in solve_linear(algebra).nullspace_basis]
    assert _exact(got) == _exact(_one_shot_solve_linear(algebra))


@pytest.mark.parametrize("spec", [s for s in TWO_STAGE_ALGEBRAS if s != "mat3"])
def test_solve_modified_linear_matches_one_shot_oracle(spec, tmp_path):
    algebra = _two_stage_algebra(spec, tmp_path)
    got = [b.flat_coeffs() for b in solve_modified_linear(algebra).nullspace_basis]
    assert _exact(got) == _exact(_one_shot_solve_modified_linear(algebra))


# -- oracle: innerness ranked on dense flat_coeffs() lists -------------------------


@pytest.mark.parametrize(
    "spec, equal",
    [("mat2", True), ("mat3", True), ("T3", False), ("a2+a2", False), ("mat2~rebased", True), ("a2", False)],
)
def test_innerness_matches_dense_oracle(spec, equal, tmp_path):
    algebra = _two_stage_algebra(spec, tmp_path)
    dense = subspaces_equal(
        [db.flat_coeffs() for db in solve_linear(algebra).nullspace_basis],
        [db.flat_coeffs() for db in inner_bracket_span(algebra)],
    )
    assert inner_bracket_span_equality(algebra) == dense == equal
