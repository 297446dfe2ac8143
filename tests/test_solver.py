import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from unittest import mock

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import cli, solver
from doublepoisson import io as dpio
from doublepoisson.algebra import (
    FDAlgebra,
    _generated_span,
    commutator_subspace,
    generating_set,
    make_a2,
    make_matrix_algebra,
    resolve_preset,
)
from doublepoisson.axioms import derivation_terms, first_leg_pairs, flipped, nested_pairs, skew_terms
from doublepoisson.brackets import (
    DoubleBracket,
    DoubleDerivation,
    _h0_jacobi_scan,
    _jacobi_scan,
    _monomial_keys,
    _multiplied_forms,
    _slot_forms,
)
from doublepoisson.families import (
    A2_DOUBLE_PARAM_SLOTS,
    a2_double_family,
)
from doublepoisson.linalg import (
    SparseEliminator,
    in_span,
    invert_matrix,
    nullspace_of_rows,
    primitive_row,
    rank_of_vectors,
    subspaces_equal,
)
from doublepoisson.modified import ModifiedBracket
from doublepoisson.poly import MultiPoly, QuadraticForm, grlex_key
from doublepoisson.tensors import Tensor2
from doublepoisson.solver import (
    LinearVariety,
    _coordinate_rows,
    _derivation_basis,
    _derivation_rows,
    _first_leibniz_groups,
    _generic_slot,
    _h0_skew_groups,
    _integer_products,
    _rows,
    _skew_groups,
    _with_constraints,
    double_derivation_space,
    h0_jacobi_constraints,
    inner_bracket_span,
    inner_bracket_span_equality,
    jacobi_constraints,
    outer_double_derivation_dim,
    solve,
    solve_linear,
    solve_modified,
    solve_modified_linear,
)
from dense_poly import DensePoly
from jacobi_oracles import double_jacobiator
from test_algebra import _dense_mul, _generated_dim


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
        [forms[nm].coefficient((col,)) for col in range(3)]
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
    constraint = a2_variety.quadratic_constraints[0].to_poly()
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
            q.to_poly().eval_rational(dict(zip(a2_variety.parameter_names, map(Fraction, values))))
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
        for _, _, _, v in double_jacobiator(general, i, j, k).entries()
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


def _tables(variety):
    return [basis.terms for basis in variety.nullspace_basis]


def _jacobi_forms(variety, generators):
    """The forms that ``jacobi_constraints`` eliminates: the scan of the general element."""
    return (form for *_, form in _jacobi_scan(_tables(variety), generators))


def _h0_jacobi_forms(variety, generators):
    """The forms that ``h0_jacobi_constraints`` eliminates, on the integer-scaled product table."""
    return (form for *_, form in _h0_jacobi_scan(_tables(variety), _integer_products(variety.algebra), generators))


def _all_triples_jacobi(variety):
    """The Jacobi constraints from every basis triple, not only generator triples."""
    if variety.dim == 0:
        return variety
    return _with_constraints(variety, _jacobi_forms(variety, range(variety.algebra.dim)))


def _all_triples_h0_jacobi(variety):
    """The H0 Jacobi constraints from every basis triple, not only those ending in a generator."""
    return h0_jacobi_constraints(variety, generators=range(variety.algebra.dim))


def _assert_echelon_basis_of_span(got, oracle):
    """``got`` is the reduced echelon basis of span(oracle), largest leading monomial first."""
    got = [q.to_poly() for q in got]
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


# -- oracle: the constraints as MultiPoly values ------------------------------------
#
# The reduced constraint rows used to be built into MultiPoly values over
# dense exponent vectors of length p.  That build (on ``DensePoly``, then
# read as words), kept here in place of ``solver._with_constraints``, is the
# oracle of the sparse quadratic forms: the same strings in the same order,
# and ``to_poly`` gives its polynomials.


def _multipoly_with_constraints(variety, forms):
    ring = variety.ring()
    p = variety.dim

    def monomial(key):
        exps = [0] * p
        for k in divmod(key, p):
            exps[k] += 1
        return tuple(exps)

    elim = SparseEliminator(p * p)
    for form in dict.fromkeys(frozenset(primitive_row(form).items()) for form in forms):
        elim.add_row(dict(form))
    rows = elim.reduced_pivot_rows()
    constraints = [DensePoly(ring, {monomial(key): v for key, v in rows[lead].items()}).to_poly() for lead in sorted(rows)]
    return LinearVariety(
        variety.algebra, variety.parameter_names, variety.nullspace_basis, tuple(constraints), variety.modified
    )


@pytest.mark.parametrize("spec", ("a2", "mat2", "mat3", "T3", "a2+a2", "mat2~rebased", "a2+mat1/2"))
@pytest.mark.parametrize("modified", (False, True), ids=("jacobi", "h0_jacobi"))
def test_quadratic_forms_match_the_multipoly_constraints(spec, modified, tmp_path, monkeypatch):
    algebra = _two_stage_algebra(spec, tmp_path)
    linear, constraints = (
        (solve_modified_linear, h0_jacobi_constraints) if modified else (solve_linear, jacobi_constraints)
    )
    variety = linear(algebra)
    got = constraints(variety).quadratic_constraints
    monkeypatch.setattr(solver, "_with_constraints", _multipoly_with_constraints)
    want = constraints(variety).quadratic_constraints
    assert all(type(q) is QuadraticForm for q in got) and all(type(p) is MultiPoly for p in want)
    assert [str(q) for q in got] == [str(p) for p in want]
    assert [q.to_poly() for q in got] == list(want)


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


# h0_jacobi_constraints lets the third entry of a triple run over a generating
# set only: on brackets that satisfy the second-argument Leibniz rule the H0
# Jacobi residual is a derivation in that entry.  The presets have no H0
# Jacobi constraints, so brackets whose slots are double derivations, which
# satisfy that rule and nothing else, carry the comparison: all of them
# (``_derivation_variety``) and seeded random points of that family.


@pytest.mark.parametrize("spec", list(CLASSIFY_RUNGS))
def test_h0_generator_triples_give_the_all_triples_basis(spec, tmp_path):
    linear = solve_modified_linear(_two_stage_algebra(spec, tmp_path))
    got = h0_jacobi_constraints(linear).quadratic_constraints
    assert [str(q) for q in got] == [str(q) for q in _all_triples_h0_jacobi(linear).quadratic_constraints]


def _derivation_variety(algebra):
    """Every modified bracket that satisfies the second-argument Leibniz rule: each slot {{e_x, -}} a double derivation.

    Basis bracket (x, d) has the derivation D_d in slot x and zeros elsewhere.
    """
    n = algebra.dim
    derivations = _derivation_basis(algebra, generating_set(algebra))
    basis = []
    for x in range(n):
        for vec in derivations:
            entries = []
            for idx, v in vec.items():
                j, ab = divmod(idx, n * n)
                entries.append((x, j, *divmod(ab, n), v))
            basis.append(ModifiedBracket.from_entries(algebra, entries))
    return LinearVariety(algebra, tuple(f"t{k}" for k in range(len(basis))), tuple(basis), (), True)


# spec: the rank of the H0 Jacobi constraint span of _derivation_variety
DERIVATION_RUNGS = {"a2": 11, "mat2": 41, "a2+mat1": 17, "mat2+mat1": 61}


@pytest.mark.parametrize("spec", list(DERIVATION_RUNGS))
def test_h0_generator_triples_give_the_all_triples_basis_on_derivation_brackets(spec):
    variety = _derivation_variety(_ladder_algebra(spec))
    got = [str(q) for q in h0_jacobi_constraints(variety).quadratic_constraints]
    assert got == [str(q) for q in _all_triples_h0_jacobi(variety).quadratic_constraints]
    assert len(got) == DERIVATION_RUNGS[spec]
    # the span is not saturated: one generator too few loses constraints
    generators = generating_set(variety.algebra)
    assert len(h0_jacobi_constraints(variety, generators=generators[1:]).quadratic_constraints) < len(got)


@seed(20261023)
@settings(max_examples=20, deadline=None, database=None)
@given(st.data())
def test_h0_generator_triples_give_the_all_triples_basis_on_random_brackets(data):
    general = _derivation_variety(_ladder_algebra(data.draw(st.sampled_from(tuple(DERIVATION_RUNGS)))))
    rng = data.draw(st.randoms(use_true_random=False))

    def coefficient():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < 0.5 else 0

    basis = tuple(general.point([coefficient() for _ in range(general.dim)]) for _ in range(rng.randint(2, 6)))
    assert not any(b.check_second_leibniz() for b in basis)
    variety = LinearVariety(general.algebra, tuple(f"t{k}" for k in range(len(basis))), basis, (), True)
    got = h0_jacobi_constraints(variety).quadratic_constraints
    assert [str(q) for q in got] == [str(q) for q in _all_triples_h0_jacobi(variety).quadratic_constraints]


@lru_cache(maxsize=None)
def _ladder_algebra(spec):
    return dpio.algebra_from_json(_t3_data()) if spec == "T3" else resolve_preset(spec)


@lru_cache(maxsize=None)
def _linear_variety(spec):
    return solve_linear(_ladder_algebra(spec))


def _relabelled(algebra, perm):
    """The algebra with basis element i renamed perm[i]."""
    n = algebra.dim
    unit = [Fraction(0)] * n
    for i in range(n):
        unit[perm[i]] = algebra.unit[i]
    entries = [(perm[i], perm[j], perm[k], c) for i, j, k, c in algebra.entries()]
    names = tuple(algebra.basis_names[perm.index(i)] for i in range(n))
    return FDAlgebra.from_entries(algebra.name, names, unit, entries)


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


# -- the generating set is irredundant ----------------------------------------------
#
# generating_set keeps a greedy choice and then drops every element that the
# others generate without.  Checked with the dense closure of test_algebra,
# which shares no code with algebra._generated_span.  It is never larger than
# the greedy choice by index, the set it returned before the Peirce order was
# added (_index_order_generating_set).


def _index_order_generating_set(algebra):
    """The basis elements chosen greedily by index, then pruned in ascending order."""
    n = algebra.dim
    chosen = []
    span = _generated_span(algebra, chosen)
    for g in range(n):
        if span.rank == n:
            break
        rank = span.rank
        span.add_row({g: 1})
        if span.rank > rank:
            chosen.append(g)
            span = _generated_span(algebra, chosen)
    for g in list(chosen):
        rest = [h for h in chosen if h != g]
        if _generated_span(algebra, rest).rank == n:
            chosen = rest
    return tuple(chosen)


@seed(20261021)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_generating_set_is_irredundant(tmp_path_factory, data):
    spec = data.draw(st.sampled_from(("a2", "mat1+mat1", "mat2", "a2+mat1", "T3", "mat2+mat1", "a2+a2", "mat3")))
    form = data.draw(st.sampled_from(("preset", "relabelled", "rebased")))
    if form == "rebased" and spec != "T3":  # _rebased_json rebases presets only
        path = _rebased_json(spec, tmp_path_factory.mktemp("rebased") / "rebased.json", data.draw(st.integers(0, 99)))
        build = lambda: dpio.load_algebra(path)  # noqa: E731
    elif form == "relabelled":
        perm = data.draw(st.permutations(range(_ladder_algebra(spec).dim)))
        build = lambda: _relabelled(_ladder_algebra(spec), perm)  # noqa: E731
    else:
        build = lambda: _ladder_algebra(spec)  # noqa: E731
    algebra = build()
    gens = generating_set(algebra)
    assert list(gens) == sorted(set(gens)) and all(0 <= g < algebra.dim for g in gens)
    assert _generated_dim(algebra, gens) == algebra.dim
    # deterministic: the same set again, and on a separately built copy
    assert generating_set(algebra) == gens == generating_set(build())
    for g in gens:
        assert _generated_dim(algebra, [h for h in gens if h != g]) < algebra.dim
    assert len(gens) <= len(_index_order_generating_set(algebra))


@pytest.mark.parametrize("n", (3, 4))
def test_mat_n_solve_matches_the_index_order_generators(n):
    """The n-cycle and the larger index-order set give equal varieties, Jacobi constraints included."""
    algebra = make_matrix_algebra(n)
    cycle, by_index = generating_set(algebra), _index_order_generating_set(algebra)
    assert len(cycle) == n < len(by_index)
    got, want = (jacobi_constraints(solve_linear(algebra, generators=g), generators=g) for g in (cycle, by_index))
    assert got.quadratic_constraints == want.quadratic_constraints
    assert got == want


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
        got = _all_triples_h0_jacobi(variety).quadratic_constraints
        expected = _oracle_h0_jacobi(variety)
    else:
        got = _all_triples_jacobi(variety).quadratic_constraints
        expected = _oracle_jacobi(variety)
    _assert_echelon_basis_of_span(got, expected)


@seed(20261022)
@settings(max_examples=40, deadline=None, database=None)
@given(_random_varieties())
def test_quadratic_forms_match_the_multipoly_constraints_on_random_brackets(variety):
    # the presets have no H0-Jacobi constraints and these varieties do; their spans are
    # full, so each constraint is one monomial, and term order is left to the presets
    if variety.modified:
        got = h0_jacobi_constraints(variety).quadratic_constraints
        with mock.patch.object(solver, "_with_constraints", _multipoly_with_constraints):
            want = h0_jacobi_constraints(variety).quadratic_constraints
    else:
        forms = list(_jacobi_forms(variety, range(variety.algebra.dim)))
        got = _with_constraints(variety, forms).quadratic_constraints
        want = _multipoly_with_constraints(variety, forms).quadratic_constraints
    assert [str(q) for q in got] == [str(p) for p in want]
    assert [q.to_poly() for q in got] == list(want)


# -- oracle: the dense row loops over all index tuples ------------------------------
#
# The Leibniz rows, the H0-skew rows and the derivation space used to be built
# by scanning the dense structure constants mul[i][j][k] for every index
# tuple, and the derivations as dense DoubleDerivation values.  Those loops,
# kept here, are the oracle of the rows read from the sparse product table.


def _from_grids(algebra, grids):
    """The DoubleDerivation with image grids[i][a][b] of e_i."""
    return DoubleDerivation(algebra, tuple(Tensor2.of(algebra, g) for g in grids))


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
    mul = _dense_mul(algebra)
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
    mul = _dense_mul(algebra)
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


def _dense_derivation_rows(algebra):
    """The Leibniz rows of Der(A, A(x)A) for every pair (i, j), over the columns (m * n + a) * n + b."""
    n = algebra.dim
    mul = _dense_mul(algebra)

    def flat(i, a, b):
        return (i * n + a) * n + b

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


def _dense_double_derivation_space(algebra):
    n = algebra.dim
    der_basis = [
        _from_grids(
            algebra,
            [[[vec.get((i * n + a) * n + b, 0) for b in range(n)] for a in range(n)] for i in range(n)],
        )
        for vec in nullspace_of_rows(_dense_derivation_rows(algebra), n**3)
    ]
    inner_gens = []
    for p, q in product(range(n), repeat=2):
        grid = [[Fraction(int((a, b) == (p, q))) for b in range(n)] for a in range(n)]
        inner_gens.append(DoubleDerivation.inner(Tensor2.of(algebra, grid)))
    return der_basis, inner_gens


def _dense_h0_skew_rows(algebra):
    n = algebra.dim
    mul = _dense_mul(algebra)
    sub = commutator_subspace(algebra)
    flat_products = {(a, b): sub.project_flat(mul[a][b]) for a, b in product(range(n), repeat=2)}
    for i in range(n):
        for j in range(i, n):
            for comp in range(sub.flat_dim):
                row = {}
                add = _row_adder(row)
                for a, b in product(range(n), repeat=2):
                    coeff = flat_products[(a, b)][comp]
                    if coeff != 0:
                        add(_flat4(n, i, j, a, b), coeff)
                        add(_flat4(n, j, i, a, b), coeff)
                if row:
                    yield row


def _pair_rows(prods, images, firsts):
    """The ``derivation_terms`` rows of the pairs (k, l), k in ``firsts``, in (k, l, c, d) order, without delta(1) = 0.

    With every k this is the fold the solver ran before it kept only the generator pairs.
    """
    n = len(prods)
    return _rows(derivation_terms(prods, images, k, l) for k in firsts for l in range(n))


def _slot_derivation_rows(algebra):
    """The second-argument Leibniz rows of every pair: the derivation rows of each generic row {{e_i, -}}."""
    n = algebra.dim
    prods = _integer_products(algebra)
    for i in range(n):
        yield from _pair_rows(prods, [_generic_slot(n, (i * n + m) * n * n) for m in range(n)], range(n))


def _slot_first_leibniz_rows(algebra):
    """The first-argument Leibniz rows of every pair, slot i = 0, 1, ... in turn."""
    n = algebra.dim
    prods = _integer_products(algebra)
    for i in range(n):
        yield from _pair_rows(prods, [flipped(_generic_slot(n, (m * n + i) * n * n)) for m in range(n)], range(n))


def _skew_rows(algebra):
    """The skew-symmetry rows over the flat C columns, pairs i <= j."""
    n = algebra.dim
    slots = [[_generic_slot(n, (i * n + j) * n * n) for j in range(n)] for i in range(n)]
    return _rows(skew_terms(slots[i][j], slots[j][i]) for i in range(n) for j in range(i, n))


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS)
def test_leibniz_rows_match_dense_oracle(spec, tmp_path):
    algebra = _oracle_algebra(spec, tmp_path)
    assert list(_slot_derivation_rows(algebra)) == list(_dense_second_leibniz_rows(algebra))
    # the same rows, now generated slot by slot
    assert sorted(sorted(r.items()) for r in _slot_first_leibniz_rows(algebra)) == sorted(
        sorted(r.items()) for r in _dense_first_leibniz_rows(algebra)
    )


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS + ("mat2~rebased", "a2+mat1/2"))
def test_h0_skew_rows_match_dense_oracle(spec, tmp_path):
    algebra = _two_stage_algebra(spec, tmp_path)
    assert list(_rows(_h0_skew_groups(algebra))) == list(_dense_h0_skew_rows(algebra))


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


# -- the Leibniz rule on generators ------------------------------------------------------
#
# Every Leibniz system of the solver is imposed on (generator, basis) pairs plus
# delta(1) = 0.  Its rows differ from the dense rows of every pair, but the
# nullspace basis, which depends only on the row space, must be the same.


def _exact_rows(rows):
    return [[(c, repr(v)) for c, v in row.items()] for row in rows]


@pytest.mark.parametrize("spec", ORACLE_ALGEBRAS + ("mat2~rebased", "a2+mat1/2"))
def test_generator_leibniz_rows_give_the_dense_nullspace(spec, tmp_path):
    algebra = _two_stage_algebra(spec, tmp_path)
    n = algebra.dim
    generators = generating_set(algebra)
    assert _exact_rows(nullspace_of_rows(_derivation_rows(algebra, generators), n**3)) == _exact_rows(
        nullspace_of_rows(_dense_derivation_rows(algebra), n**3)
    )
    assert _exact_rows(nullspace_of_rows(_rows(_first_leibniz_groups(algebra, generators)), n**4)) == _exact_rows(
        nullspace_of_rows(_dense_first_leibniz_rows(algebra), n**4)
    )


@pytest.mark.parametrize("spec, dim, without_unit", [("mat1+mat1", 2, 4), ("a2+mat1", 15, 19), ("mat2+mat1", 20, 25)])
def test_unit_rows_are_needed(spec, dim, without_unit):
    """Without delta(1) = 0 the generator rows leave a larger space than Der(A, A(x)A)."""
    algebra = resolve_preset(spec)
    n = algebra.dim
    generators = generating_set(algebra)
    images = [_generic_slot(n, m * n * n) for m in range(n)]
    pairs = _pair_rows(_integer_products(algebra), images, generators)
    assert len(nullspace_of_rows(pairs, n**3)) == without_unit
    dense = nullspace_of_rows(_dense_derivation_rows(algebra), n**3)
    assert len(_derivation_basis(algebra, generators)) == dim == len(dense)


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_derivation_stages_do_not_depend_on_the_generating_set(data):
    algebra = _ladder_algebra(data.draw(st.sampled_from(("a2", "mat2", "a2+mat1", "mat2+mat1", "a2+a2", "T3"))))
    perm = data.draw(st.permutations(range(algebra.dim)))
    # greedy in the permuted basis order, mapped back to the original indices
    permuted = tuple(perm.index(g) for g in generating_set(_relabelled(algebra, perm)))
    results = []
    for generators in (permuted, generating_set(algebra), tuple(range(algebra.dim))):
        with mock.patch.object(solver, "generating_set", lambda _: generators):
            modified = solve_modified_linear(algebra)
        results.append(
            (
                _exact_rows(_derivation_basis(algebra, generators)),
                _exact([b.flat_coeffs() for b in modified.nullspace_basis]),
            )
        )
    assert results[0] == results[1] == results[2]


def test_leibniz_systems_fold_generator_pairs_only(monkeypatch):
    """mat4 hh1 folds len(G) * 16 = 64 pairs, not 256; solve --modified finds the generators once."""
    calls = {"derivation_terms": 0, "generating_set": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    mat4 = make_matrix_algebra(4)
    assert outer_double_derivation_dim(mat4) == (240, 240, 0)
    assert calls["derivation_terms"] == len(generating_set(mat4)) * 16 == 64
    calls["generating_set"] = 0
    solve_modified_linear(make_a2())
    assert calls["generating_set"] == 1


def test_solve_finds_the_generators_once(monkeypatch, tmp_path):
    """solve and the CLI solve command share one generating set between the two stages."""
    calls = []
    monkeypatch.setattr(solver, "generating_set", lambda algebra: calls.append(algebra) or generating_set(algebra))
    solve(make_a2())
    assert len(calls) == 1
    assert cli.main(["solve", "--algebra", "a2", "--format", "json", "--out", str(tmp_path / "a2.json")]) == 0
    assert len(calls) == 2


# -- oracle: the one-shot linear systems on n^4 unknowns ------------------------------
#
# The linear axioms used to be solved as one system over the whole coefficient
# tensor.  The two-stage solver (derivations first) must return exactly the
# same nullspace basis: the same exact scalars, in the same order.  Zeros are the
# int 0, as in the dense views (``tensors._ZERO``).


def _dense_nullspace(rows, ncols):
    return [[vec.get(c, 0) for c in range(ncols)] for vec in nullspace_of_rows(rows, ncols)]


def canonical_basis(rows, ncols):
    """The basis of span(rows) that ``SparseEliminator.nullspace`` gives for a system with that kernel.

    A nullspace vector is 1 at its free column, 0 at the other free columns,
    and nonzero elsewhere only at pivot columns smaller than its free column.
    So the nullspace basis of a system is the reduced echelon basis of its
    kernel for pivots taken at the largest column, scaled to 1 at each pivot,
    in ascending pivot order; any spanning set of the kernel gives it back.
    The elimination runs on reversed columns, so its smallest-column pivots
    are the largest columns, and its monic reduced rows are the basis.  The
    vectors come back as sparse rows {column: nonzero value}, columns
    ascending.
    """
    last = ncols - 1
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row({last - c: v for c, v in row.items()})
    return [
        {last - c: row[c] for c in sorted(row, reverse=True)}
        for _, row in sorted(elim.reduced_pivot_rows().items(), reverse=True)
    ]


def _one_shot_solve_linear(algebra):
    rows = chain(_skew_rows(algebra), _slot_derivation_rows(algebra))
    return _dense_nullspace(rows, algebra.dim**4)


def _one_shot_solve_modified_linear(algebra):
    rows = chain(_slot_derivation_rows(algebra), _slot_first_leibniz_rows(algebra), _rows(_h0_skew_groups(algebra)))
    return _dense_nullspace(rows, algebra.dim**4)


def _rebased_json(spec, path, seed):
    """The algebra in the basis f = P e for a seeded unimodular integer P."""
    algebra = _ladder_algebra(spec)
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
    mul = _dense_mul(algebra)
    entries = []
    for i, k in product(range(n), repeat=2):
        # f_i f_k in e-coordinates, then in f-coordinates via e_m = sum_r Q[m][r] f_r
        e_coords = [
            sum(P[i][j] * P[k][l] * mul[j][l][m] for j in range(n) for l in range(n))
            for m in range(n)
        ]
        for r in range(n):
            c = sum(e_coords[m] * Q[m][r] for m in range(n))
            if c:
                entries.append([i, k, r, str(c)])
    data = dpio.algebra_to_json(algebra)
    data["mul"] = entries
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


# The two-stage nullspace, expanded through the derivation basis, is returned as
# it is: it must already be the canonical basis of its span, scalar for scalar,
# ints where integral, on bases where the derivations carry fractions.


@seed(20261026)
@settings(max_examples=10, deadline=None, database=None)
@given(st.sampled_from(("mat2", "a2+a2", "T3", "a2+mat1", "mat2+mat1")), st.integers(0, 10**6))
def test_expanded_nullspace_is_the_canonical_basis_on_random_bases(tmp_path_factory, spec, basis_seed):
    path = tmp_path_factory.mktemp("rebased") / "rebased.json"
    algebra = dpio.load_algebra(_rebased_json(spec, path, basis_seed))
    for linear in (solve_linear, solve_modified_linear):
        basis = [b.flat_terms() for b in linear(algebra).nullspace_basis]
        assert basis and _exact_rows(basis) == _exact_rows(canonical_basis(basis, algebra.dim**4)), linear.__name__


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


# -- oracle: fold then substitute; each Jacobi part on its own, then the sum ----------
#
# The linear systems used to be folded into rows over the flat C columns
# (``_rows``) and the derivation basis then substituted into each row, and each
# jacobiator part used to be polarized into its own map before the parts were
# summed with their legs permuted.  Those two-pass loops, kept here, are the
# oracle of the one-pass folds: the same rows and forms in the same order.


def _derivation_columns(derivations, n):
    """columns[c]: the (d, w) with D_d equal to w at derivation column c."""
    columns = [[] for _ in range(n**3)]
    for d, vec in enumerate(derivations):
        for c, w in vec.items():
            columns[c].append((d, w))
    return columns


def _substituted(rows, derivations, n):
    """Rows over the flat C columns as rows over x[i][d] (column i * p + d), zero rows dropped."""
    n3, p = n**3, len(derivations)
    columns = _derivation_columns(derivations, n)
    for row in rows:
        out = {}
        for idx, v in row.items():
            i, c = divmod(idx, n3)
            for d, w in columns[c]:
                out[i * p + d] = out.get(i * p + d, 0) + v * w
        out = {col: v for col, v in out.items() if v}
        if out:
            yield out


def _coordinate_row_counts(algebra):
    """Assert the one-pass rows of the skew and modified systems against the oracle; their counts."""
    n = algebra.dim
    generators = generating_set(algebra)
    derivations = _derivation_basis(algebra, generators)
    columns = _derivation_columns(derivations, n)
    systems = {
        "skew": lambda: _skew_groups(n),
        "modified": lambda: chain(_first_leibniz_groups(algebra, generators), _h0_skew_groups(algebra)),
    }
    counts = {}
    for name, groups in systems.items():
        # Equal as maps of rationals.  A term of a flat column that cancels is
        # folded in too, so an entry may come in another order, or as Fraction(3, 1)
        # where the substitution had 3; ``linalg.primitive_row`` reads both alike.
        got = list(_coordinate_rows(groups(), columns, len(derivations)))
        assert got == list(_substituted(_rows(groups()), derivations, n)), name
        counts[name] = len(got)
    return counts


# the rows each system hands to the eliminator, pinned: a fold that drops or adds rows changes them
COORDINATE_ROWS = {"mat3": {"skew": 2541, "modified": 7308}, "T3": {"skew": 450, "modified": 1404}}
FOLD_ORACLE_ALGEBRAS = ("a2", "mat2", "mat3", "T3", "a2+a2", "mat2~rebased", "a2+mat1/2")


@pytest.mark.parametrize("spec", FOLD_ORACLE_ALGEBRAS)
def test_coordinate_rows_match_the_substituted_rows(spec, tmp_path):
    counts = _coordinate_row_counts(_two_stage_algebra(spec, tmp_path))
    assert counts == COORDINATE_ROWS.get(spec, counts)


@seed(20261024)
@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from(("a2", "mat2", "a2+mat1", "mat2+mat1", "a2+a2")), st.integers(0, 10**6))
def test_coordinate_rows_match_the_substituted_rows_on_random_bases(tmp_path_factory, spec, basis_seed):
    path = tmp_path_factory.mktemp("rebased") / "rebased.json"
    _coordinate_row_counts(dpio.load_algebra(_rebased_json(spec, path, basis_seed)))


# -- oracle: each Jacobi part summed on its own, then the signed parts combined -------
#
# Both Jacobi stages used to sum each part's products into a map from position
# to quadratic form (``_quadratic_sum``) and then add up the signed maps of a
# residual (``_combine``); the H0 stage kept each part in a memo, since every
# F(i, j, k) serves two residuals.  Those loops, kept here with the part signs
# and legs written out rather than read from ``axioms``, are the oracle of
# ``brackets._forms`` on both stages: the same forms, in the same order.


def _quadratic_sum(products, keys, index, out):
    """Add f * g to the quadratic form out[index[position]] for each (position, f, g) product."""
    for pos, f, g in products:
        acc = out.setdefault(index[pos], {})
        for k, u in f:
            for l, v in g:
                acc[keys[k][l]] = acc.get(keys[k][l], 0) + u * v


def _summed(products, keys, index):
    out = {}
    _quadratic_sum(products, keys, index, out)
    return out


def _combine(terms):
    """The nonzero entries of sum(sign * entries) over the (sign, entries) terms, in position order."""
    total = {}
    for sign, entries in terms:
        for pos, form in entries.items():
            acc = total.setdefault(pos, {})
            for key, v in form.items():
                acc[key] = acc.get(key, 0) + sign * v
    for pos in sorted(total):
        form = {key: v for key, v in total[pos].items() if v}
        if form:
            yield form


# tau123(a(x)b(x)c) = c(x)a(x)b and tau132 = tau123^2
_PART_LEGS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def _part_by_part_jacobi_forms(variety, generators):
    n = variety.algebra.dim
    slots = _slot_forms(_tables(variety))
    keys = _monomial_keys(variety.dim)
    cells = list(product(range(n), repeat=3))
    index = {cell: pos for pos, cell in enumerate(cells)}
    lands = {legs: {c: index[c[legs[0]], c[legs[1]], c[legs[2]]] for c in cells} for legs in _PART_LEGS}
    for i, j, k in product(generators, repeat=3):
        if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
            continue
        parts = zip(((i, j, k), (j, k, i), (k, i, j)), _PART_LEGS)
        yield from _combine((1, _summed(first_leg_pairs(slots[a], slots[b][c]), keys, lands[legs])) for (a, b, c), legs in parts)


def _part_by_part_h0_jacobi_forms(variety, generators):
    n = variety.algebra.dim
    slots = _slot_forms(_tables(variety))
    keys = _monomial_keys(variety.dim)
    mul = _integer_products(variety.algebra)
    table = [[_multiplied_forms(mul, slots[a][b]) for b in range(n)] for a in range(n)]
    memo = {}

    def part(t, left):
        if (t, left) not in memo:
            memo[t, left] = _summed(nested_pairs(table, *t, left), keys, range(n))
        return memo[t, left]

    for i, j, k in product(range(n), range(n), generators):
        # {e_i,{e_j,e_k}} - {e_j,{e_i,e_k}} - {{e_i,e_j},e_k}
        parts = ((1, (i, j, k), False), (-1, (j, i, k), False), (-1, (i, j, k), True))
        yield from _combine((sign, part(t, left)) for sign, t, left in parts)


def _exact_forms(forms):
    """The forms with their keys sorted and their exact scalars by repr."""
    return [sorted((key, repr(v)) for key, v in form.items()) for form in forms]


def _assert_forms_match(got, oracle):
    got = list(got)
    assert all(list(form) == sorted(form) for form in got)  # keys ascend, as _with_constraints needs
    assert _exact_forms(got) == _exact_forms(oracle)


@pytest.mark.parametrize("spec", FOLD_ORACLE_ALGEBRAS)
def test_jacobi_forms_match_the_part_by_part_sums(spec, tmp_path):
    linear = solve_linear(_two_stage_algebra(spec, tmp_path))
    generators = generating_set(linear.algebra)
    oracle = list(_part_by_part_jacobi_forms(linear, generators))
    assert oracle
    _assert_forms_match(_jacobi_forms(linear, generators), oracle)


@pytest.mark.parametrize("spec", list(DERIVATION_RUNGS) + ["T3"])
def test_h0_jacobi_forms_match_the_part_by_part_sums(spec):
    # the presets have no H0 Jacobi constraints; the brackets of derivation slots have
    variety = _derivation_variety(_ladder_algebra(spec))
    generators = generating_set(variety.algebra)
    oracle = list(_part_by_part_h0_jacobi_forms(variety, generators))
    assert oracle
    _assert_forms_match(_h0_jacobi_forms(variety, generators), oracle)


@seed(20261025)
@settings(max_examples=40, deadline=None, database=None)
@given(_random_varieties())
def test_jacobi_forms_match_the_part_by_part_sums_on_random_brackets(variety):
    # both kernels read only the slot forms, and the bilinear sums hold on any bracket
    every = range(variety.algebra.dim)
    _assert_forms_match(_jacobi_forms(variety, every), _part_by_part_jacobi_forms(variety, every))
    _assert_forms_match(_h0_jacobi_forms(variety, every), _part_by_part_h0_jacobi_forms(variety, every))
