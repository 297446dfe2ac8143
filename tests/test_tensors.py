import random
from fractions import Fraction

import pytest

from doublepoisson.algebra import AlgebraError, make_a2, make_matrix_algebra
from doublepoisson.tensors import Tensor2, Tensor3, tensor3_from_terms, tensor_from_terms


@pytest.fixture
def a2():
    return make_a2()


def rand_element(alg, rng):
    return alg.element([Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)])


def rand_tensor2(alg, rng):
    return Tensor2.of(
        alg,
        [[Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)] for _ in range(alg.dim)],
    )


def test_outer_actions_a2(a2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    t = Tensor2.pure(e0, e0)
    assert t.outer_left(e1) == t  # e1 e0 = e0
    assert t.inner_right(e1).is_zero()  # e0 e1 = 0 on the first leg
    one = a2.unit_element()
    for act in (t.outer_left, t.outer_right, t.inner_left, t.inner_right):
        assert act(one) == t


def test_action_algebra_mismatch(a2):
    t = Tensor2.pure(a2.basis_element(0), a2.basis_element(1))
    m2 = make_matrix_algebra(2)
    with pytest.raises(AlgebraError):
        t.outer_left(m2.basis_element(0))


def test_flip_involution(a2):
    rng = random.Random(4)
    for _ in range(25):
        t = rand_tensor2(a2, rng)
        assert t.flip().flip() == t
    assert Tensor2.pure(a2.basis_element(0), a2.basis_element(1)).flip() == Tensor2.pure(
        a2.basis_element(1), a2.basis_element(0)
    )


def test_outer_and_inner_actions_commute(a2):
    rng = random.Random(5)
    for _ in range(40):
        t = rand_tensor2(a2, rng)
        x, y = rand_element(a2, rng), rand_element(a2, rng)
        assert t.inner_left(y).outer_left(x) == t.outer_left(x).inner_left(y)
        assert t.inner_right(y).outer_right(x) == t.outer_right(x).inner_right(y)
        assert t.inner_left(y).outer_right(x) == t.outer_right(x).inner_left(y)


def test_leg3_commutator_example(a2):
    # [e0 (x) e0 (x) 1, e1]_3 = e1e0 (x) e0 (x) 1 - e0 (x) e0 (x) 1*e1
    one = a2.unit
    t = tensor3_from_terms(a2, {(0, 0, u): c for u, c in enumerate(one)})
    got = t.leg_commutator(a2.basis_element(1), 3)
    expected = tensor3_from_terms(
        a2, {(0, 0, u): c - Fraction(int(u == 1)) for u, c in enumerate(one)}
    )
    assert got == expected


def test_leg_commutator_with_unit_vanishes(a2):
    rng = random.Random(6)
    one = a2.unit_element()
    for _ in range(10):
        grid = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for _ in range(3)
        ]
        t = Tensor3.of(a2, grid)
        for leg in (1, 2, 3):
            assert t.leg_commutator(one, leg).is_zero()
    with pytest.raises(AlgebraError):
        t.leg_commutator(one, 4)


def test_leg1_matches_bruteforce_mat2():
    # independent oracle: expand [a(x)b(x)c, x]_1 = a (x) xb (x) c - ax (x) b (x) c
    # directly over matrix units
    m2 = make_matrix_algebra(2)
    rng = random.Random(7)
    for _ in range(10):
        x = rand_element(m2, rng)
        grid = [
            [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            for _ in range(4)
        ]
        t = Tensor3.of(m2, grid)
        out = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    v = grid[a][b][c]
                    if v == 0:
                        continue
                    xb = (x * m2.basis_element(b)).coords
                    for m, w in enumerate(xb):
                        out[a][m][c] += v * w
                    ax = (m2.basis_element(a) * x).coords
                    for m, w in enumerate(ax):
                        out[m][b][c] -= v * w
        assert t.leg_commutator(x, 1) == Tensor3.of(m2, out)


def test_cyclic_permutations(a2):
    t = tensor3_from_terms(a2, {(0, 1, 2): Fraction(1)})  # e0 (x) e1 (x) e2
    assert t.tau123() == tensor3_from_terms(a2, {(2, 0, 1): Fraction(1)})
    assert t.tau132() == tensor3_from_terms(a2, {(1, 2, 0): Fraction(1)})
    assert t.tau123().tau123().tau123() == t


def test_legwise_product(a2):
    # (e1 (x) e1 (x) e1) x (e0 (x) e0 (x) e0) = e1e0 (x) e1e0 (x) e1e0 = e0 (x) e0 (x) e0
    s = tensor3_from_terms(a2, {(1, 1, 1): Fraction(1)})
    t = tensor3_from_terms(a2, {(0, 0, 0): Fraction(1)})
    assert s.legwise_product(t) == t
    assert t.legwise_product(t).is_zero()  # e0 e0 = 0


def test_tensor_from_terms_drops_zeros(a2):
    t = tensor_from_terms(a2, {(0, 1): Fraction(2) + Fraction(-2), (1, 0): Fraction(0)})
    assert t.is_zero() and t.terms == {}
    assert t.grid == Tensor2.zero(a2).grid == ((Fraction(0),) * 3,) * 3
