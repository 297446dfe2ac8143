import random
from fractions import Fraction

import pytest

from doublepoisson.algebra import AlgebraError, make_a2, make_matrix_algebra
from doublepoisson.brackets import (
    DoubleBracket,
    DoubleDerivation,
    bracket_from_bivector,
)
from doublepoisson.families import a2_alpha_bracket, a2_double_family, a2_double_family_symbolic
from doublepoisson.inner import WedgeElement, inner_bracket
from doublepoisson.poly import PolyRing, RelationSet
from doublepoisson.tensors import Tensor2
from jacobi_oracles import double_jacobiator, jacobiator_element


@pytest.fixture
def a2():
    return make_a2()


def test_eval_alpha_family(a2):
    db = a2_alpha_bracket(Fraction(1))
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    assert db.eval(e0, e1) == Tensor2.pure(e0, e0)
    assert db.eval(e0, e0).is_zero()
    # bilinearity
    assert db.eval(e0 + e1, e0) == db.eval(e0, e0) + db.eval(e1, e0)
    # brackets with the unit vanish for Leibniz brackets
    one = a2.unit_element()
    assert db.eval(one, e0 + e1).is_zero()
    assert db.eval(e0, one).is_zero()


def test_check_skew(a2):
    beta_only = a2_double_family(Fraction(0), Fraction(1), Fraction(0))
    assert not beta_only.check_skew()
    bad = DoubleBracket.from_entries(a2, [(0, 0, 0, 0, Fraction(1))])
    assert bad.check_skew()
    assert not DoubleBracket.zero(a2).check_skew()


@pytest.mark.parametrize("entry", [(0, 1, 3, 0), (0, 1, 0, -1), (-1, 0, 0, 0), (0, 3, 0, 0)])
def test_from_entries_rejects_out_of_range_positions(a2, entry):
    # a sparse bracket has no grid to raise IndexError, and -1 must not wrap around
    with pytest.raises(AlgebraError):
        DoubleBracket.from_entries(a2, [(*entry, Fraction(1))])


def test_check_leibniz_family_and_failures(a2):
    for pt in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)):
        db = a2_double_family(*(Fraction(x) for x in pt))
        assert not db.check_leibniz()
    # constant bracket 1(x)1 fails: {{e_i, e0^2}} = 0 forces a nonzero residual
    one = a2.unit
    entries = []
    for i in range(3):
        for j in range(3):
            for u, cu in enumerate(one):
                for v, cv in enumerate(one):
                    if cu * cv != 0:
                        entries.append((i, j, u, v, cu * cv))
    const = DoubleBracket.from_entries(a2, entries)
    assert const.check_leibniz()
    assert not DoubleBracket.zero(a2).check_leibniz()


def test_jacobiator(a2):
    alpha = a2_alpha_bracket(Fraction(1))
    assert double_jacobiator(alpha, 0, 1, 1).is_zero()
    assert not alpha.check_jacobi()
    gamma_only = a2_double_family(Fraction(0), Fraction(0), Fraction(1))
    assert not double_jacobiator(gamma_only, 0, 0, 1).is_zero()
    assert gamma_only.check_jacobi()
    # any triple against the unit vanishes for Leibniz brackets
    one = a2.unit_element()
    e0 = a2.basis_element(0)
    assert jacobiator_element(gamma_only, one, e0, e0).is_zero()


def test_check_all_symbolic_family():
    db, ring = a2_double_family_symbolic()
    rep = db.check_all()
    assert rep.skew_ok and rep.leibniz_ok and not rep.jacobi_ok
    # Leibniz kills the unit in both slots, identically in the parameters
    a2 = db.algebra
    one = a2.unit_element()
    for i in range(3):
        assert db.eval(one, a2.basis_element(i)).is_zero()
        assert db.eval(a2.basis_element(i), one).is_zero()
    # every jacobiator residual coefficient is a multiple of g^2 + a*b
    conic = ring.parse("g^2 + a*b")
    for tag, tensor in rep.residuals:
        assert tag[0] == "jacobi"
        for _, _, _, poly in tensor.entries():
            lead = poly.leading_monomial()
            scale = poly.coefficient(lead) / conic.coefficient(conic.leading_monomial())
            assert (poly - conic * scale).is_zero()
    # quotienting by the conic makes everything pass identically
    rels = RelationSet.single(PolyRing(("g", "a", "b")), "g^2", "0 - a*b")
    db2, _ = a2_double_family_symbolic()
    # rebuild over the reordered ring so g^2 is the rewrite head
    ring2 = PolyRing(("g", "a", "b"))
    db2 = a2_double_family(ring2.var("a"), ring2.var("b"), ring2.var("g"), params=ring2.names)
    assert db2.check_all(rels=rels).all_ok


def test_conic_points(a2):
    assert a2_double_family(Fraction(1), Fraction(-1), Fraction(1)).check_all().all_ok
    assert a2_double_family(Fraction(4), Fraction(-1), Fraction(2)).check_all().all_ok
    assert not a2_double_family(Fraction(1), Fraction(1), Fraction(1)).check_all().jacobi_ok
    assert not a2_double_family(Fraction(0), Fraction(0), Fraction(1)).check_all().jacobi_ok


def test_double_derivation_check(a2):
    rng = random.Random(8)
    m2 = make_matrix_algebra(2)
    for alg in (a2, m2):
        for _ in range(5):
            m = Tensor2.of(
                alg,
                [
                    [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
                    for _ in range(alg.dim)
                ],
            )
            assert DoubleDerivation.inner(m).is_derivation()
    # constant map delta(e_i) = 1(x)1 is not a derivation
    one_tensor = Tensor2.pure(m2.unit_element(), m2.unit_element())
    const = DoubleDerivation(m2, tuple(one_tensor for _ in range(m2.dim)))
    assert not const.is_derivation()
    zero = DoubleDerivation(m2, tuple(Tensor2.zero(m2) for _ in range(m2.dim)))
    assert zero.is_derivation()


def test_bracket_from_bivector_cross_validation(a2):
    # delta1 inner by e0 (x) 1, delta2 inner by e1 (x) 1: the bivector bracket
    # equals the inner bracket of (X V) ^ (U Y) = e1 ^ e0
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    d1 = DoubleDerivation.inner(Tensor2.pure(e0, one))
    d2 = DoubleDerivation.inner(Tensor2.pure(e1, one))
    q = bracket_from_bivector(d1, d2)
    assert q == inner_bracket(WedgeElement.wedge(e1, e0))
    # and therefore reproduces the alpha-family at alpha = -1
    assert q == a2_alpha_bracket(Fraction(-1))


def test_bracket_from_bivector_properties(a2):
    rng = random.Random(9)
    zero = DoubleDerivation(a2, tuple(Tensor2.zero(a2) for _ in range(3)))
    some = DoubleDerivation.inner(Tensor2.pure(a2.basis_element(0), a2.basis_element(1)))
    assert bracket_from_bivector(zero, some).is_zero()
    for _ in range(20):
        m1 = Tensor2.of(a2, [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        m2_ = Tensor2.of(a2, [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        d1, d2 = DoubleDerivation.inner(m1), DoubleDerivation.inner(m2_)
        q = bracket_from_bivector(d1, d2)
        assert not q.check_skew()
        assert not q.check_leibniz()
        # swapping the derivations negates the bracket; by skew this is the
        # same as the negated flip with swapped arguments
        q_swapped = bracket_from_bivector(d2, d1)
        assert q_swapped == q.scale(Fraction(-1))
        n = a2.dim
        for i in range(n):
            for j in range(n):
                assert q.eval_basis(i, j) == q_swapped.eval_basis(j, i).flip()
    bad = DoubleDerivation(a2, tuple(Tensor2.pure(a2.unit_element(), a2.unit_element()) for _ in range(3)))
    with pytest.raises(AlgebraError):
        bracket_from_bivector(bad, some)


def test_skew_implies_antisymmetric_eval(a2):
    rng = random.Random(10)
    db = a2_double_family(Fraction(2), Fraction(3), Fraction(-1))
    for _ in range(20):
        x = a2.element([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        y = a2.element([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        assert db.eval(x, y) == -(db.eval(y, x).flip())


def test_exhaustive_jacobi_iff_conic():
    # over a small rational grid: check_all passes exactly on the conic
    for a in range(-2, 3):
        for b in range(-2, 3):
            for g in range(-2, 3):
                db = a2_double_family(Fraction(a), Fraction(b), Fraction(g))
                rep = db.check_all()
                assert rep.skew_ok and rep.leibniz_ok
                assert rep.jacobi_ok == (g * g + a * b == 0)
