"""Integral scalars stay ints: the int path against the same input in Fractions.

An exact scalar is an int when its denominator is 1 and a Fraction
otherwise, never a float (``poly.exact_scalar``).  Each input is read as the
command line reads it, from JSON, so it holds ints wherever it is integral;
its oracle is the same input with every scalar forced to a Fraction, in the
algebra's structure constants and unit and in the bracket's or wedge's
coefficients.  The checks, the inner bracket, J(r), the weak-Jacobi
condition and the induced table must give the same verdicts, witness tags
and witness values on both, and no value either returns may be a float.
Exact elimination follows the same rule: what ``linalg`` and the solver
return holds ints on integral input.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import AlgElement, FDAlgebra, commutator_subspace, generating_set, make_a2
from doublepoisson.brackets import AxiomReport, CoefficientBracket, DoubleBracket
from doublepoisson.families import a2_double_family
from doublepoisson.inner import WedgeElement, aybe_obstruction, inner_bracket, weak_jacobi_condition
from doublepoisson.linalg import invert_matrix, nullspace_of_rows
from doublepoisson.modified import ModifiedBracket, h0_jacobi_check, h0_skew_check
from doublepoisson.poly import MultiPoly, PolyRing, RelationSet, exact_scalar, parse_rational
from doublepoisson.repspace import PoissonTable, induce
from doublepoisson.solver import (
    _derivation_rows,
    _integer_products,
    double_derivation_space,
    solve,
    solve_modified,
)
from doublepoisson.tensors import Tensor2, Tensor3
from test_solver import _two_stage_algebra, canonical_basis

SPECS = ("a2", "mat2", "T3", "a2+mat1/2")
INTEGRAL_SPECS = ("a2", "mat2", "T3")

#: Coefficients that mix ints and Fractions, integral ones included.
_coefficient = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@pytest.fixture(scope="module")
def algebras(tmp_path_factory):
    """Each algebra as read (T3 from JSON, a2+mat1/2 with halved constants) and forced to Fractions."""
    tmp = tmp_path_factory.mktemp("algebras")
    out = {}
    for spec in SPECS:
        alg = _two_stage_algebra(spec, tmp)
        out[spec] = (alg, _fraction_algebra(alg))
    return out


def _fraction_algebra(alg: FDAlgebra) -> FDAlgebra:
    """``alg`` with every structure constant and unit coordinate a Fraction (``from_entries`` would make ints)."""
    products = tuple(tuple(tuple((k, Fraction(c)) for k, c in terms) for terms in row) for row in alg.products)
    return FDAlgebra(alg.name, alg.basis_names, tuple(Fraction(u) for u in alg.unit), products)


def _as_fraction(value):
    if isinstance(value, MultiPoly):
        return MultiPoly(value.ring, {e: Fraction(c) for e, c in value.terms.items()})
    return Fraction(value)


def _plain(value):
    """``value`` as nested tuples of tags, flags and scalars, to compare with ==; a float fails."""
    assert not isinstance(value, float), value
    if isinstance(value, AxiomReport):
        return (value.skew_ok, value.leibniz_ok, value.jacobi_ok, _plain(value.residuals))
    if isinstance(value, (Tensor2, Tensor3)):
        return tuple(sorted((key, _plain(v)) for key, v in value.terms.items()))
    if isinstance(value, AlgElement):
        return _plain(value.coords)
    if isinstance(value, CoefficientBracket):
        return _plain(value.terms)
    if isinstance(value, PoissonTable):
        return tuple(sorted((key, _plain(p)) for key, p in value.table.items()))
    if isinstance(value, MultiPoly):
        return tuple(sorted((e, _plain(c)) for e, c in value.terms.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    assert isinstance(value, (bool, int, Fraction, str)), type(value)
    return value


def _scalars(plain):
    """The rational leaves of a ``_plain`` value: witness values and coefficients (tags hold ints too)."""
    if isinstance(plain, tuple):
        for v in plain:
            yield from _scalars(v)
    elif isinstance(plain, (int, Fraction)) and not isinstance(plain, bool):
        yield plain


def _same(got, oracle, integral: bool):
    """got == oracle, leaf by leaf; on integral input every scalar of ``got`` is an int."""
    got, oracle = _plain(got), _plain(oracle)
    assert got == oracle
    if integral:
        assert all(type(v) is int for v in _scalars(got))
    return got


@st.composite
def _bracket_entries(draw, dim):
    cells = st.tuples(*[st.integers(0, dim - 1)] * 4)
    return draw(st.lists(st.tuples(cells, _coefficient), max_size=8))


@st.composite
def _wedge_terms(draw, dim):
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return draw(st.lists(st.tuples(cells, _coefficient), max_size=4))


def _read_bracket(alg, spec, entries, modified=False):
    """The bracket as the command line reads it: coefficients from their JSON strings."""
    coeffs = [[*cell, str(c)] for cell, c in entries]
    return dpio.bracket_from_json({"algebra": spec, "coeffs": coeffs, "modified": modified}, alg)


def test_scalars_enter_as_ints_when_integral(algebras):
    assert [type(parse_rational(t)) for t in ("3", " -2 ", "4/2", "1/2", "0.5")] == [int, int, int, Fraction, Fraction]
    assert exact_scalar(Fraction(6, 3)) == 2 and type(exact_scalar(Fraction(6, 3))) is int
    assert exact_scalar(0.25) == Fraction(1, 4) and type(exact_scalar(0.25)) is Fraction
    for spec in INTEGRAL_SPECS:
        alg, _ = algebras[spec]
        assert all(type(u) is int for u in alg.unit)
        assert all(type(c) is int for *_, c in alg.entries())
        assert _integer_products(alg) is alg.products
        sub = commutator_subspace(alg)
        assert all(type(v) is int for row in sub.basis for v in row)
        assert all(type(v) is int for v in sub.project_flat(range(1, alg.dim + 1)))
    halved, _ = algebras["a2+mat1/2"]
    assert {type(c) for *_, c in halved.entries()} == {Fraction}
    for alg in [halved] + [fractions for _, fractions in algebras.values()]:
        assert all(type(c) is int for row in _integer_products(alg) for terms in row for _, c in terms)
    ring = PolyRing(("x", "y"))
    for p in (ring.const(Fraction(4, 2)), ring.var("x"), ring.monomial({"y": 2}, "3"), ring.parse("2*x - 6/3")):
        assert all(type(c) is int for c in p.terms.values())
    assert type(ring.parse("1/2*x").terms[(0,)]) is Fraction


@seed(20261019)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_bracket_checks_agree_with_the_fraction_path(algebras, data):
    spec = data.draw(st.sampled_from(SPECS))
    alg, fractions = algebras[spec]
    entries = data.draw(_bracket_entries(alg.dim))
    integral = spec in INTEGRAL_SPECS and all(Fraction(c).denominator == 1 for _, c in entries)
    oracle = [(*cell, Fraction(c)) for cell, c in entries]
    db = _read_bracket(alg, spec, entries)
    _same(db.check_all(), DoubleBracket.from_entries(fractions, oracle).check_all(), integral)
    mb = _read_bracket(alg, spec, entries, modified=True)
    mb_oracle = ModifiedBracket.from_entries(fractions, oracle)
    _same(mb.check_leibniz_both(), mb_oracle.check_leibniz_both(), integral)
    _same(h0_jacobi_check(mb), h0_jacobi_check(mb_oracle), integral)
    _same(h0_skew_check(mb), h0_skew_check(mb_oracle), integral)


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_wedge_folds_and_induce_agree_with_the_fraction_path(algebras, data):
    spec = data.draw(st.sampled_from(SPECS))
    alg, fractions = algebras[spec]
    terms = [(a, b, c) for (a, b), c in data.draw(_wedge_terms(alg.dim))]
    integral = spec in INTEGRAL_SPECS and all(Fraction(c).denominator == 1 for *_, c in terms)
    data_json = {"algebra": spec, "terms": [[a, b, str(c)] for a, b, c in terms]}
    r = dpio.wedge_from_json(data_json, alg)
    r_oracle = WedgeElement.from_terms(fractions, [(a, b, Fraction(c)) for a, b, c in terms])
    _same(inner_bracket(r), inner_bracket(r_oracle), integral)
    _same(aybe_obstruction(r), aybe_obstruction(r_oracle), integral)
    _same(weak_jacobi_condition(r), weak_jacobi_condition(r_oracle), integral)
    # an inner bracket is skew, so it induces a table
    _same(induce(inner_bracket(r), 2), induce(inner_bracket(r_oracle), 2), integral)
    _same(inner_bracket(r).check_all(), inner_bracket(r_oracle).check_all(), integral)


@seed(20261021)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_parametrized_brackets_agree_with_the_fraction_path(algebras, data):
    spec = data.draw(st.sampled_from(SPECS))
    alg, fractions = algebras[spec]
    ring = PolyRing(("p", "q"))
    cells = data.draw(st.lists(st.tuples(*[st.integers(0, alg.dim - 1)] * 4), max_size=5))
    coeffs = [data.draw(st.tuples(_coefficient, _coefficient, _coefficient)) for _ in cells]
    text = [f"({c0}) + ({c1})*p + ({c2})*p*q" for c0, c1, c2 in coeffs]
    db = dpio.bracket_from_json(
        {"algebra": spec, "params": ["p", "q"], "coeffs": [[*cell, t] for cell, t in zip(cells, text)]}, alg
    )
    polys = [
        MultiPoly(ring, {(): Fraction(c0), (0,): Fraction(c1), (0, 1): Fraction(c2)}) for c0, c1, c2 in coeffs
    ]
    oracle = DoubleBracket.from_entries(fractions, [(*cell, p) for cell, p in zip(cells, polys)], ring.names)
    integral = spec in INTEGRAL_SPECS and all(Fraction(c).denominator == 1 for cs in coeffs for c in cs)
    _same(db.check_all(), oracle.check_all(), integral)
    mb = ModifiedBracket(alg, db.terms, db.params)
    mb_oracle = ModifiedBracket(fractions, oracle.terms, oracle.params)
    _same(mb.check_leibniz_both(), mb_oracle.check_leibniz_both(), integral)
    _same(h0_jacobi_check(mb), h0_jacobi_check(mb_oracle), integral)


def test_symbolic_a2_family_agrees_with_the_fraction_path():
    """The a2 family in (a, b, g): Jacobi holds modulo g^2 = -ab, and its Rep2 table matches."""
    ring = PolyRing(("g", "a", "b"))  # g first, so that g^2 -> -ab decreases in graded lex
    db = a2_double_family(ring.var("a"), ring.var("b"), ring.var("g"), params=ring.names)
    fractions = _fraction_algebra(make_a2())
    terms = [[[(a, b, _as_fraction(v)) for a, b, v in slot] for slot in row] for row in db.terms]
    oracle = DoubleBracket(fractions, terms, db.params)
    rels = RelationSet.single(ring, "g^2", "0 - a*b")
    assert _same(db.check_all(rels), oracle.check_all(rels), integral=True)[:3] == (True, True, True)
    _same(db.check_all(), oracle.check_all(), integral=True)
    _same(induce(db, 2), induce(oracle, 2), integral=True)


def _follows_the_rule(values, integral: bool) -> bool:
    """Every value an int on integral input, else an int exactly when its denominator is 1."""
    return all(type(v) is (int if integral or v.denominator == 1 else Fraction) for v in values)


@pytest.mark.parametrize("spec", SPECS)
def test_elimination_returns_ints_where_integral(algebras, spec):
    alg, _ = algebras[spec]
    integral = spec in INTEGRAL_SPECS
    n = alg.dim
    for variety in (solve(alg), solve_modified(alg)):
        assert _follows_the_rule((c for b in variety.nullspace_basis for *_, c in b.entries()), integral)
        assert _follows_the_rule((c for p in variety.quadratic_constraints for c in p.terms.values()), integral)
    der_basis, inner_gens = double_derivation_space(alg)
    images = [img for d in der_basis + inner_gens for img in d.images]
    assert _follows_the_rule((v for img in images for v in img.terms.values()), integral)
    assert _follows_the_rule((v for row in commutator_subspace(alg).basis for v in row), integral)
    kernel = nullspace_of_rows(_derivation_rows(alg, generating_set(alg)), n**3)
    assert kernel and _follows_the_rule((v for vec in kernel for v in vec.values()), integral)
    # a spanning set with Fraction entries gives the same canonical basis
    canonical = canonical_basis([{c: Fraction(v, 3) for c, v in vec.items()} for vec in kernel], n**3)
    assert canonical == canonical_basis(kernel, n**3)
    assert _follows_the_rule((v for vec in canonical for v in vec.values()), integral)


def test_inverse_of_a_unimodular_matrix_is_integral():
    m = [[2, 3, 1], [1, 2, 1], [1, 1, 1]]  # determinant 1
    inverse = invert_matrix(m)
    assert all(type(x) is int for row in inverse for x in row)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in m] == [
        [int(i == j) for j in range(3)] for i in range(3)
    ]
    halved = invert_matrix([[Fraction(x, 2) for x in row] for row in m])
    assert halved == [[2 * x for x in row] for row in inverse]
    rational = invert_matrix([[2, 0], [0, 1]])
    assert rational == [[Fraction(1, 2), 0], [0, 1]]
    assert _follows_the_rule((x for row in rational for x in row), False)
