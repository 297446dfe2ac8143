"""The contract between the two folds of every axiom generator in ``axioms``.

The checker fold sums a bracket's terms into a residual; the solver fold
collects, at each position, a row over the flat columns of the unknowns (or
a quadratic form in the nullspace parameters).  For a seeded random bracket,
every solver row evaluated at the bracket's ``flat_terms()`` must equal the
checker residual at its position, times the factor by which the solver
scales its inputs to integers: the common denominator of the product table.
The slot forms carry the bracket's coefficients as they are.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson.axioms import (
    derivation_terms,
    first_leg_pairs,
    flipped,
    h0_jacobiator_parts,
    h0_skew_terms,
    inner_derivation_terms,
    nested_pairs,
    skew_terms,
)
from doublepoisson.brackets import DoubleBracket, _pair_residual, _residual
from doublepoisson.modified import ModifiedBracket, h0_jacobi_check
from doublepoisson.solver import (
    LinearVariety,
    _fold_rows,
    _generic_slot,
    _h0_jacobi_forms,
    _integer_products,
    _jacobi_forms,
    _monomial_keys,
    _multiplied_forms,
    _slot_forms,
)
from test_solver import ORACLE_ALGEBRAS, _summed, _two_stage_algebra

SPECS = ORACLE_ALGEBRAS + ("mat2~rebased", "a2+mat1/2")


@pytest.fixture(scope="module")
def algebras(tmp_path_factory):
    return {spec: _two_stage_algebra(spec, tmp_path_factory.mktemp("algebra")) for spec in SPECS}


def _common_denominator(values) -> int:
    return lcm(1, *(Fraction(v).denominator for v in values))


_small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3)))


def _random_bracket(data, alg):
    n = alg.dim
    slot = st.tuples(*[st.integers(0, n - 1)] * 4)
    entries = data.draw(st.lists(st.tuples(slot, _small_rational), min_size=1, max_size=10))
    return ModifiedBracket.from_entries(alg, [(*s, c) for s, c in entries])


def _assert_linear_contract(solver_terms, checker_terms, flat, factor):
    rows, residual = _fold_rows(solver_terms), _residual(checker_terms)
    for pos in rows.keys() | residual.keys():
        value = sum(v * flat.get(col, 0) for col, v in rows.get(pos, {}).items())
        assert value == factor * residual.get(pos, 0), pos


def _assert_quadratic_contract(forms, residual, factor):
    # one parameter t0: every form is a multiple of the monomial t0^2, key 0
    for pos in forms.keys() | residual.keys():
        assert forms.get(pos, {}).get(0, 0) == factor * residual.get(pos, 0), pos


@seed(20261022)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_linear_folds_agree(algebras, data):
    alg = algebras[data.draw(st.sampled_from(SPECS))]
    n = alg.dim
    bracket = _random_bracket(data, alg)
    terms, flat = bracket.terms, bracket.flat_terms()
    prods, iprods = alg.products, _integer_products(alg)
    den = _common_denominator(v for row in prods for cell in row for _, v in cell)
    slots = [[_generic_slot(n, (i * n + j) * n * n) for j in range(n)] for i in range(n)]
    for i, j in product(range(n), repeat=2):
        _assert_linear_contract(skew_terms(slots[i][j], slots[j][i]), skew_terms(terms[i][j], terms[j][i]), flat, 1)
        _assert_linear_contract(
            h0_skew_terms(prods, slots[i][j], slots[j][i]), h0_skew_terms(prods, terms[i][j], terms[j][i]), flat, 1
        )
    for i in range(n):
        second = (slots[i], terms[i])
        first = ([flipped(slots[m][i]) for m in range(n)], [flipped(terms[m][i]) for m in range(n)])
        for (generic, images), k, l in product((second, first), range(n), range(n)):
            _assert_linear_contract(
                derivation_terms(iprods, generic, k, l), derivation_terms(prods, images, k, l), flat, den
            )
    # the inner derivation of a random m = sum w e_p (x) e_q: payload p * n + q
    tensor = [(a, b, v) for i, j, a, b, v in bracket.entries() if i == 0]
    m_flat = {}
    for p, q, w in tensor:
        m_flat[p * n + q] = m_flat.get(p * n + q, 0) + w
    for i in range(n):
        _assert_linear_contract(
            inner_derivation_terms(prods, _generic_slot(n, 0), i), inner_derivation_terms(prods, tensor, i), m_flat, 1
        )


@seed(20261023)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_quadratic_folds_agree(algebras, data):
    alg = algebras[data.draw(st.sampled_from(SPECS))]
    n = alg.dim
    bracket = _random_bracket(data, alg)
    terms = bracket.terms
    # the variety spanned by the bracket alone: its slot forms are C[i][j][a][b] t0
    den = _common_denominator(v for row in alg.products for cell in row for _, v in cell)
    modified = LinearVariety(alg, ("t0",), (bracket,), (), True)
    slots = _slot_forms(modified)
    keys = _monomial_keys(1)
    index = {p: k for k, p in enumerate(product(range(n), repeat=3))}
    for i, j, k in product(range(n), repeat=3):
        _assert_quadratic_contract(
            _summed(first_leg_pairs(slots[i], slots[j][k]), keys, index),
            {index[p]: v for p, v in _pair_residual(first_leg_pairs(terms[i], terms[j][k])).items()},
            1,
        )
    # the jacobiators: the nonzero entries of the scanned triples, in position order
    double = DoubleBracket(alg, terms)
    variety = LinearVariety(alg, ("t0",), (double,), (), False)
    scanned = [t for t in product(range(n), repeat=3) if t == min(t, t[1:] + t[:1], t[2:] + t[:2])]
    expected = [v for t in scanned for _, v in sorted(double._jacobiator_terms(*t).items()) if v]
    assert [form[0] for form in _jacobi_forms(variety, range(n))] == expected
    # the H0 nested products over M(a, b) = m({{e_a, e_b}})
    iprods = _integer_products(alg)
    forms = [[_multiplied_forms(iprods, slots[a][b]) for b in range(n)] for a in range(n)]
    table = [[[(c, v) for c, v in enumerate(bracket.multiplied_basis(a, b)) if v] for b in range(n)] for a in range(n)]
    for i, j, k in product(range(n), repeat=3):
        for _, t, left in h0_jacobiator_parts(i, j, k):
            _assert_quadratic_contract(
                _summed(nested_pairs(forms, *t, left), keys, range(n)),
                _pair_residual(nested_pairs(table, *t, left)),
                den**2,
            )
    # the H0 residuals: the nonzero coordinates of every triple, in coordinate order
    expected = [den**2 * v for _, r in h0_jacobi_check(bracket) for v in r.coords if v]
    assert [form[0] for form in _h0_jacobi_forms(modified, range(n))] == expected
