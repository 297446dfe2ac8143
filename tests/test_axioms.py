"""The contract between the two folds of every axiom generator in ``axioms``.

The checker fold sums a bracket's terms into a residual; the solver fold
collects, at each position, a row over the flat columns of the unknowns (or
a quadratic form in the nullspace parameters).  For a seeded random bracket,
every solver row evaluated at the bracket's ``flat_terms()`` must equal the
checker residual at its position, times the factor by which the solver
scales its inputs to integers: the common denominator of the product table.
The slot forms carry the bracket's coefficients as they are.  The Jacobi
scan, which the checkers and the solver share, must give the sums of those
parts: the jacobiators of ``jacobi_oracles`` and the signed H0 parts.
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
from doublepoisson.brackets import (
    _h0_jacobi_scan,
    _jacobi_scan,
    _monomial_keys,
    _multiplied_forms,
    _pair_residual,
    _residual,
    _slot_forms,
)
from doublepoisson.modified import ModifiedBracket
from doublepoisson.solver import _fold_rows, _generic_slot, _integer_products
from jacobi_oracles import double_jacobiator
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
    # the span of the bracket alone: its slot forms are C[i][j][a][b] t0
    den = _common_denominator(v for row in alg.products for cell in row for _, v in cell)
    slots = _slot_forms([terms])
    keys = _monomial_keys(1)
    cells = list(product(range(n), repeat=3))
    index = {p: k for k, p in enumerate(cells)}
    for i, j, k in product(range(n), repeat=3):
        _assert_quadratic_contract(
            _summed(first_leg_pairs(slots[i], slots[j][k]), keys, index),
            {index[p]: v for p, v in _pair_residual(first_leg_pairs(terms[i], terms[j][k])).items()},
            1,
        )
    # the jacobiators: the nonzero entries of the scanned triples, in position order
    scanned = [t for t in cells if t == min(t, t[1:] + t[:1], t[2:] + t[:2])]
    expected = [(t, p, v) for t in scanned for p, v in sorted(double_jacobiator(bracket, *t).terms.items())]
    assert [(t, cell, form[0]) for t, cell, form in _jacobi_scan([terms], range(n))] == expected
    # the H0 nested products over M(a, b) = m({{e_a, e_b}})
    iprods = _integer_products(alg)
    forms = [[_multiplied_forms(iprods, slots[a][b]) for b in range(n)] for a in range(n)]
    table = [[[(c, v) for c, v in enumerate(bracket.multiplied_basis(a, b)) if v] for b in range(n)] for a in range(n)]
    residuals = []
    for i, j, k in product(range(n), repeat=3):
        r = {}
        for sign, t, left in h0_jacobiator_parts(i, j, k):
            part = _pair_residual(nested_pairs(table, *t, left))
            _assert_quadratic_contract(_summed(nested_pairs(forms, *t, left), keys, range(n)), part, den**2)
            for c, v in part.items():
                r[c] = r.get(c, 0) + sign * v
        residuals += [((i, j, k), c, r[c]) for c in sorted(r) if r[c]]
    # the H0 residuals: the nonzero coordinates of every triple, in coordinate order
    scan = _h0_jacobi_scan([terms], iprods, range(n))
    assert [(t, c, form[0]) for t, c, form in scan] == [(t, c, den**2 * v) for t, c, v in residuals]
    scan = _h0_jacobi_scan([terms], alg.products, range(n))
    assert [(t, c, form[0]) for t, c, form in scan] == residuals
