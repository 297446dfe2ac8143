import random
from fractions import Fraction

import pytest

from doublepoisson.algebra import AlgebraError, make_a2, make_matrix_algebra
from doublepoisson.brackets import DoubleBracket
from doublepoisson.families import a2_alpha_bracket
from doublepoisson.inner import (
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    trace_casimir_check,
    weak_jacobi_condition,
    wedge_basis,
)
from doublepoisson.poly import PolyRing
from doublepoisson.tensors import tensor3_from_terms


@pytest.fixture
def a2():
    return make_a2()


def rand_wedge(alg, rng, lo=-4, hi=4):
    n = alg.dim
    grid = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            c = Fraction(rng.randint(lo, hi))
            grid[a][b] = c
            grid[b][a] = -c
    return WedgeElement.of(alg, grid)


def test_wedge_construction(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    r = WedgeElement.wedge(e0, e1)
    assert r.grid[0][1] == 1 and r.grid[1][0] == -1
    with pytest.raises(AlgebraError):
        WedgeElement.of(a2, [[Fraction(1)] * 3 for _ in range(3)])
    assert WedgeElement.wedge(e0, e0).is_zero()
    # terms are stored once, a < b; reversed and repeated terms are summed
    r = WedgeElement.from_terms(a2, [(1, 0, Fraction(2)), (0, 1, Fraction(3)), (2, 2, Fraction(5))])
    assert r.terms == ((0, 1, Fraction(1)),) and r == WedgeElement.of(a2, r.grid)
    for bad in ((0, 3, Fraction(1)), (-1, 0, Fraction(1))):
        with pytest.raises(AlgebraError):
            WedgeElement.from_terms(a2, [bad])


def test_inner_bracket_paper_values(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    db = inner_bracket(WedgeElement.wedge(e0, e1))
    assert db == a2_alpha_bracket(Fraction(1))
    db2 = inner_bracket(WedgeElement.wedge(one, e0))
    assert db2 == a2_alpha_bracket(Fraction(-2))
    assert inner_bracket(WedgeElement.zero(a2)).is_zero()


def test_inner_bracket_linearity(a2):
    rng = random.Random(11)
    for _ in range(15):
        r1, r2 = rand_wedge(a2, rng), rand_wedge(a2, rng)
        c = Fraction(rng.randint(-3, 3))
        lhs = inner_bracket(r1 + r2.scale(c))
        rhs = inner_bracket(r1) + inner_bracket(r2).scale(c)
        assert lhs == rhs


def test_inner_bracket_axioms_exhaustive():
    for alg in (make_a2(), make_matrix_algebra(2)):
        for w in wedge_basis(alg):
            db = inner_bracket(w)
            assert not db.check_skew()
            assert not db.check_leibniz()


def test_aybe_obstruction_values(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    j = aybe_obstruction(WedgeElement.wedge(one, e0))
    expected = {}
    for u, c in enumerate(a2.unit):
        if c != 0:
            expected.update({(0, 0, u): -c, (0, u, 0): -c, (u, 0, 0): -c})
    assert j == tensor3_from_terms(a2, expected)
    assert aybe_obstruction(WedgeElement.wedge(e0, e1)).is_zero()
    assert aybe_obstruction(WedgeElement.zero(a2)).is_zero()


def test_weak_jacobi_examples(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    ok, residuals = weak_jacobi_condition(WedgeElement.wedge(one, e0))
    assert ok and not residuals
    assert weak_jacobi_condition(WedgeElement.wedge(e0, e1))[0]
    ok, residuals = weak_jacobi_condition(WedgeElement.wedge(one, e1))
    assert not ok and residuals


def test_aybe_scan_a2_reproduces_paper_system(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    gens = [WedgeElement.wedge(one, e0), WedgeElement.wedge(one, e1), WedgeElement.wedge(e0, e1)]
    system = aybe_solve(a2, gens, ("a", "b", "c"), leg_basis=[one, e0, e1])
    ring = PolyRing(("a", "b", "c"))
    monic = set()
    for p in system.equations:
        lead = p.leading_monomial()
        monic.add(str(p * (Fraction(1) / p.coefficient(lead))))
    wanted = set()
    for text in ("a*c - a^2", "a*b", "a*b - b*c", "b^2"):
        p = ring.parse(text)
        wanted.add(str(p * (Fraction(1) / p.coefficient(p.leading_monomial()))))
    assert monic == wanted
    # the two published solution slices pass, a non-solution fails
    assert system.satisfied_by((0, 0, 7))
    assert system.satisfied_by((5, 0, 5))
    assert not system.satisfied_by((1, 1, 0))


def test_aybe_scan_defaults():
    m1 = make_matrix_algebra(1)
    assert aybe_solve(m1).equations == ()
    a2 = make_a2()
    system = aybe_solve(a2)
    assert system.parameter_names == ("w01", "w02", "w12")
    assert len(system.equations) >= 1


def test_implication_chain_random():
    """AYBE => weak condition <=> double Jacobi for inner brackets."""
    rng = random.Random(12)
    cases = 0
    a2 = make_a2()
    m2 = make_matrix_algebra(2)
    pools = [(a2, 170), (m2, 40)]
    for alg, count in pools:
        for _ in range(count):
            r = rand_wedge(alg, rng, -3, 3)
            j_zero = aybe_obstruction(r).is_zero()
            weak_ok, _ = weak_jacobi_condition(r)
            if j_zero:
                assert weak_ok
            jac_ok = not inner_bracket(r).check_jacobi(collect=False)
            assert weak_ok == jac_ok
            cases += 1
    # include the known interesting cases so the implication is not vacuous
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    for r in (WedgeElement.wedge(one, e0), WedgeElement.wedge(e0, e1), WedgeElement.wedge(one, e1)):
        weak_ok, _ = weak_jacobi_condition(r)
        assert weak_ok == (not inner_bracket(r).check_jacobi(collect=False))
        cases += 1
    assert cases >= 200


def test_trace_casimir_words(a2):
    # m o {{-,-}}_r = 0 for every wedge, read off the structure constants
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    assert trace_casimir_check(inner_bracket(WedgeElement.wedge(e0, e1)))
    assert trace_casimir_check(inner_bracket(WedgeElement.zero(a2)))
    rng = random.Random(13)
    assert trace_casimir_check(inner_bracket(rand_wedge(make_matrix_algebra(2), rng)))
    # negative control: {{e1, e1}} = e1 (x) e1 alone has m({{e1, e1}}) = e1 e1 = e1
    assert not trace_casimir_check(DoubleBracket.from_entries(a2, [(1, 1, 1, 1, Fraction(1))]))
