import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import algebra as algebra_module
from doublepoisson.algebra import (
    AlgebraError,
    AlgElement,
    FDAlgebra,
    commutator,
    commutator_subspace,
    direct_sum,
    generating_set,
    is_preset,
    make_a2,
    make_matrix_algebra,
    preset_dim,
    resolve_preset,
)
from doublepoisson.io import algebra_from_json, algebra_to_json
from doublepoisson.linalg import rank_of_vectors


@pytest.fixture
def a2():
    return make_a2()


@pytest.fixture
def mat2():
    return make_matrix_algebra(2)


def test_matrix_units(mat2):
    names = mat2.basis_names
    assert names == ("E11", "E12", "E21", "E22")
    e12, e21 = mat2.basis_element(1), mat2.basis_element(2)
    assert e12 * e21 == mat2.basis_element(0)  # E12 E21 = E11
    assert (e12 * e12).is_zero()  # delta_21 = 0


def test_mat3_unit_identity():
    m3 = make_matrix_algebra(3)
    one = m3.unit_element()
    for i in range(m3.dim):
        e = m3.basis_element(i)
        assert one * e == e and e * one == e


def test_a2_relations(a2):
    e0, e1, e2 = (a2.basis_element(i) for i in range(3))
    one = a2.unit_element()
    assert one == e1 + e2
    assert e1 * e0 == e0 and e0 * e2 == e0
    assert (e0 * e1).is_zero() and (e2 * e0).is_zero() and (e0 * e0).is_zero()
    assert e1 * e1 == e1 and e2 * e2 == e2
    assert one * e0 == e0


def test_all_nine_a2_products(a2):
    # e_i e_j -> basis index, None meaning zero
    want = {
        (0, 0): None, (0, 1): None, (0, 2): 0,
        (1, 0): 0, (1, 1): 1, (1, 2): None,
        (2, 0): None, (2, 1): None, (2, 2): 2,
    }
    for (i, j), k in want.items():
        prod = a2.basis_element(i) * a2.basis_element(j)
        if k is None:
            assert prod.is_zero(), (i, j)
        else:
            assert prod == a2.basis_element(k), (i, j)


def test_associativity_enforced():
    one = Fraction(1)
    # the last entry breaks associativity and the unit law
    bad = [(0, 0, 0, one), (0, 1, 0, one), (1, 0, 1, one), (1, 1, 1, one), (1, 0, 0, one)]
    with pytest.raises(AlgebraError):
        FDAlgebra.from_entries("bad", ("x", "y"), (Fraction(1), Fraction(0)), bad)


def test_records_run_their_construction_checks(a2):
    # the checks each record's constructor runs, whichever way it is called
    from doublepoisson.brackets import DoubleDerivation
    from doublepoisson.poly import PolyRing, RelationSet
    from doublepoisson.tensors import Tensor2

    with pytest.raises(AlgebraError, match="inconsistent dimensions"):
        FDAlgebra("short", a2.basis_names, a2.unit[:2], a2.products)
    with pytest.raises(AlgebraError, match="coordinate length"):
        AlgElement(a2, (1, 0))
    with pytest.raises(AlgebraError, match="one image per basis element"):
        DoubleDerivation(a2, (Tensor2.zero(a2),) * 2)
    ring = PolyRing(("c", "s"))
    with pytest.raises(ValueError, match="does not decrease"):
        RelationSet(ring, (((0,), ring.parse("c^2 + s")),))


@pytest.mark.parametrize("name", ["a2", "mat1", "mat2", "mat1+mat1", "a2+mat1"])
def test_algebras_from_one_preset_are_equal_and_hash_equal(name):
    first, second = resolve_preset(name), resolve_preset(name)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    rebuilt = FDAlgebra(first.name, first.basis_names, first.unit, first.products)
    assert rebuilt == first and hash(rebuilt) == hash(first)


def test_algebras_from_different_presets_differ():
    names = ["a2", "mat1", "mat2", "mat1+mat1", "a2+mat1", "mat1+a2"]
    algebras = [resolve_preset(name) for name in names]
    for (i, x), (j, y) in product(enumerate(algebras), repeat=2):
        assert (x == y) == (i == j), (names[i], names[j])
    assert len(set(algebras)) == len(names)
    # the name is one of the four fields compared
    mat2 = algebras[2]
    assert FDAlgebra("renamed", mat2.basis_names, mat2.unit, mat2.products) != mat2
    assert mat2 != "mat2"


def test_direct_sum_examples():
    kk = direct_sum(make_matrix_algebra(1), make_matrix_algebra(1))
    x, y = kk.basis_element(0), kk.basis_element(1)
    assert x * x == x and y * y == y and (x * y).is_zero()
    m21 = direct_sum(make_matrix_algebra(2), make_matrix_algebra(1))
    a = m21.basis_element(0)  # E11 of the first block
    b = m21.basis_element(4)  # the second block
    assert (a * b).is_zero() and (b * a).is_zero()
    assert direct_sum(make_matrix_algebra(2), make_matrix_algebra(2)).dim == 8


def test_preset_resolution():
    assert resolve_preset("mat2").dim == 4
    assert resolve_preset("a2").name == "a2"
    assert resolve_preset("mat1+mat1").dim == 2
    assert resolve_preset("a2+mat1").dim == 4
    assert resolve_preset("nope") is None
    assert resolve_preset(" a2 + mat1 ") == resolve_preset("a2+mat1")
    for name in ("a2", "mat3", "mat1+mat1", " a2 + mat2 "):
        assert is_preset(name)
    for name in ("nope", "mat0", "a2+", "a2+a2-rebased.json", "mat2+x", ""):
        assert not is_preset(name) and resolve_preset(name) is None


def test_preset_dim_is_read_off_the_name(monkeypatch):
    for name in ("a2", "mat1", "mat3", "mat1+mat1", " a2 + mat2 ", "a2+a2+mat1"):
        assert preset_dim(name) == resolve_preset(name).dim
    for name in ("nope", "mat0", "a2+", "a2+a2-rebased.json", "mat2+x", ""):
        assert preset_dim(name) is None

    def refuse(*args):
        raise AssertionError("preset built")

    # nothing is built, so a large preset costs nothing to measure
    monkeypatch.setattr(algebra_module, "_matrix_fields", refuse)
    assert preset_dim("mat40") == 1600
    assert preset_dim("a2+mat40+mat1") == 1604


def test_preset_sum_is_nested_direct_sum():
    m1 = make_matrix_algebra(1)
    want = direct_sum(direct_sum(make_a2(), m1), m1)
    got = resolve_preset("a2+mat1+mat1")
    assert got == want and hash(got) == hash(want)


def test_commutators(a2, mat2):
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    assert commutator(e1, e0) == e0  # e1 e0 - e0 e1 = e0
    assert commutator(e0, e0).is_zero()
    E11, E12 = mat2.basis_element(0), mat2.basis_element(1)
    assert commutator(E11, E12) == E12
    with pytest.raises(AlgebraError):
        commutator(e0, E11)


def test_commutator_subspace_a2(a2):
    sub = commutator_subspace(a2)
    # all nine commutators lie in span{e0}
    assert sub.dim == 1 and sub.flat_dim == 2
    assert sub.contains((Fraction(5), Fraction(0), Fraction(0)))
    assert not sub.contains((Fraction(0), Fraction(1), Fraction(0)))
    assert sub.project_flat((Fraction(3), Fraction(2), Fraction(-1))) == (Fraction(2), Fraction(-1))


def test_commutator_subspace_commutative():
    kk = direct_sum(make_matrix_algebra(1), make_matrix_algebra(1))
    assert commutator_subspace(kk).dim == 0


def test_commutator_subspace_mat2(mat2):
    sub = commutator_subspace(mat2)
    # trace-zero matrices: E12, E21, E11 - E22
    assert sub.dim == 3 and sub.flat_dim == 1
    assert sub.contains((Fraction(1), Fraction(0), Fraction(0), Fraction(-1)))
    assert not sub.contains(mat2.unit)


def test_dim_split_property():
    rng = random.Random(3)
    for alg in (make_a2(), make_matrix_algebra(2), make_matrix_algebra(3),
                resolve_preset("mat1+mat1"), resolve_preset("a2+a2")):
        sub = commutator_subspace(alg)
        assert sub.dim + sub.flat_dim == alg.dim
        # random commutators stay inside [A,A]
        for _ in range(10):
            x = alg.element([Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)])
            y = alg.element([Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)])
            assert sub.contains(commutator(x, y).coords)


# -- oracle: the dense structure constants -----------------------------------------
#
# The algebra used to store its dense structure constants mul[i][j][k], and the
# presets were built as dense dim^3 grids.  The loops below are those builders,
# kept as the oracle of the sparse product entries.


_DENSE_MUL: dict = {}  # id(alg) -> (alg, mul); holding alg keeps its id unique


def _dense_mul(alg):
    """mul[i][j][k]: the coefficient of e_k in e_i e_j, zeros filled in.

    Cached by identity: the oracles call it in their inner loops, where
    hashing the algebra would cost more than the lookup saves.
    """
    hit = _DENSE_MUL.get(id(alg))
    if hit is None:
        n = alg.dim
        mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in alg.entries():
            mul[i][j][k] = c
        hit = _DENSE_MUL[id(alg)] = (alg, _frozen(mul))
    return hit[1]


def _frozen(mul):
    return tuple(tuple(tuple(v) for v in row) for row in mul)


def _dense_entries(mul):
    """Every (i, j, k, mul[i][j][k]), zeros included: the builder drops them."""
    n = len(mul)
    return [(i, j, k, mul[i][j][k]) for i in range(n) for j in range(n) for k in range(n)]


def _dense_matrix_fields(n):
    dim = n * n
    names = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    mul = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, l in product(range(n), repeat=4):
        if j == k:
            mul[i * n + j][k * n + l][i * n + l] = Fraction(1)
    unit = [Fraction(0)] * dim
    for i in range(n):
        unit[i * n + i] = Fraction(1)
    return (f"mat{n}", names, tuple(unit), _frozen(mul))


def _dense_a2_fields():
    z, o = Fraction(0), Fraction(1)
    mul = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), k in {(1, 1): 1, (2, 2): 2, (1, 0): 0, (0, 2): 0}.items():
        mul[i][j][k] = o
    return ("a2", ("e0", "e1", "e2"), (z, o, o), _frozen(mul))


def _dense_sum_fields(a, b):
    a_name, a_basis, a_unit, a_mul = a
    b_name, b_basis, b_unit, b_mul = b
    na, nb = len(a_basis), len(b_basis)
    dim = na + nb
    mul = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k in product(range(na), repeat=3):
        mul[i][j][k] = a_mul[i][j][k]
    for i, j, k in product(range(nb), repeat=3):
        mul[na + i][na + j][na + k] = b_mul[i][j][k]
    return (
        f"{a_name}+{b_name}",
        tuple(f"a.{s}" for s in a_basis) + tuple(f"b.{s}" for s in b_basis),
        a_unit + b_unit,
        _frozen(mul),
    )


def _dense_preset_fields(name):
    parts = [_dense_a2_fields() if p == "a2" else _dense_matrix_fields(int(p[3:])) for p in name.split("+")]
    return reduce(_dense_sum_fields, parts)


DENSE_ORACLE_PRESETS = ("a2", "mat1", "mat2", "mat3", "mat4", "a2+mat1", "mat2+mat1+a2")


@pytest.mark.parametrize("name", DENSE_ORACLE_PRESETS)
def test_sparse_presets_match_dense_oracle(name):
    alg = resolve_preset(name)
    want_name, want_basis, want_unit, want_mul = _dense_preset_fields(name)
    assert (alg.name, alg.basis_names, alg.unit) == (want_name, want_basis, want_unit)
    assert _dense_mul(alg) == want_mul
    # the products view holds exactly the nonzero constants, k ascending
    for i, j in product(range(alg.dim), repeat=2):
        assert alg.products[i][j] == tuple((k, c) for k, c in enumerate(want_mul[i][j]) if c)
    assert alg == FDAlgebra.from_entries(want_name, want_basis, want_unit, _dense_entries(want_mul))


@pytest.mark.parametrize("name", DENSE_ORACLE_PRESETS)
def test_preset_json_round_trip_and_direct_sum_agree(name):
    alg = resolve_preset(name)
    back = algebra_from_json(algebra_to_json(alg))
    assert back == alg and hash(back) == hash(alg)
    summed = reduce(direct_sum, (resolve_preset(p) for p in name.split("+")))
    assert summed == alg and hash(summed) == hash(alg)


def test_entries_builder_sums_duplicates_and_drops_zeros():
    half = Fraction(1, 2)
    clean = [(1, 1, 1, Fraction(1)), (2, 2, 2, Fraction(1)), (1, 0, 0, Fraction(1)), (0, 2, 0, Fraction(1))]
    messy = [
        (0, 2, 0, half), (1, 1, 1, Fraction(3)), (2, 2, 2, Fraction(1)), (0, 0, 1, Fraction(0)),
        (1, 0, 0, Fraction(1)), (2, 1, 0, Fraction(7)), (1, 1, 1, Fraction(-2)), (0, 2, 0, half),
        (2, 1, 0, Fraction(-7)),
    ]
    unit = (Fraction(0), Fraction(1), Fraction(1))
    a = FDAlgebra.from_entries("a2", ("e0", "e1", "e2"), unit, clean)
    b = FDAlgebra.from_entries("a2", ("e0", "e1", "e2"), unit, messy)
    assert a == b == make_a2() and hash(a) == hash(b)
    assert b.products[2][1] == () and b.products[0][0] == ()


@pytest.mark.parametrize("entry", [(0, 0, 3), (3, 0, 0), (0, -1, 0)])
def test_entries_builder_rejects_out_of_range(entry):
    with pytest.raises(AlgebraError, match="not in 0..2"):
        FDAlgebra.from_entries("a2", ("e0", "e1", "e2"), (0, 1, 1), [*make_a2().entries(), (*entry, 1)])


# -- oracle: the dense load-time laws ---------------------------------------------


def _dense_law_error(name, unit, mul):
    """The message of the dense O(dim^5) associativity loop, then of the unit law, or None."""
    n = len(unit)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = sum((mul[i][j][p] * mul[p][k][m] for p in range(n)), Fraction(0))
                    rhs = sum((mul[j][k][q] * mul[i][q][m] for q in range(n)), Fraction(0))
                    if lhs != rhs:
                        return f"{name}: (e{i}e{j})e{k} != e{i}(e{j}e{k})"
    for i in range(n):
        basis = [Fraction(int(k == i)) for k in range(n)]
        left = [sum((unit[a] * mul[a][i][k] for a in range(n)), Fraction(0)) for k in range(n)]
        right = [sum((mul[i][b][k] * unit[b] for b in range(n)), Fraction(0)) for k in range(n)]
        if left != basis or right != basis:
            return f"{name}: unit fails on basis element {i}"
    return None


_entries = st.sampled_from((0,) * 8 + (1, 1, -1, 2, Fraction(1, 2)))


@st.composite
def _structure_tables(draw):
    """(unit, mul): mostly non-associative random tables; some relabelled presets."""
    kind = draw(st.sampled_from(("random", "random", "unital", "unital", "preset")))
    if kind == "preset":
        alg = resolve_preset(draw(st.sampled_from(("a2", "mat1+mat1", "mat2", "a2+mat1"))))
        n = alg.dim
        perm = draw(st.permutations(range(n)))
        mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in alg.entries():
            mul[perm[i]][perm[j]][perm[k]] = c
        unit = [Fraction(0)] * n
        for i in range(n):
            unit[perm[i]] = alg.unit[i]
        if draw(st.booleans()):
            unit = [Fraction(draw(st.integers(0, 1))) for _ in range(n)]
        return unit, mul
    n = draw(st.integers(1, 3))
    mul = [[[Fraction(draw(_entries)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    unit = [Fraction(int(k == 0)) for k in range(n)]
    if kind == "unital":
        # e0 is a two-sided unit, so a failure is an associativity failure
        for j in range(n):
            mul[0][j] = [Fraction(int(k == j)) for k in range(n)]
            mul[j][0] = [Fraction(int(k == j)) for k in range(n)]
    return unit, mul


@seed(20261017)
@settings(max_examples=200, deadline=None, database=None)
@given(_structure_tables())
def test_sparse_laws_match_dense_oracle(table):
    unit, mul = table
    expected = _dense_law_error("t", unit, mul)
    try:
        FDAlgebra.from_entries("t", tuple(f"x{i}" for i in range(len(unit))), unit, _dense_entries(mul))
        got = None
    except AlgebraError as e:
        got = str(e)
    assert got == expected


# -- generating sets ---------------------------------------------------------------


def _upper_triangular(n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    mul = [
        [x, y, cells.index((i, l)), "1"]
        for x, (i, j) in enumerate(cells)
        for y, (k, l) in enumerate(cells)
        if j == k
    ]
    unit = ["1" if i == j else "0" for i, j in cells]
    return algebra_from_json(
        {"name": f"T{n}", "basis": [f"E{i + 1}{j + 1}" for i, j in cells], "unit": unit, "mul": mul}
    )


def _generated_dim(algebra, generators):
    """dim of the span of 1 and the generators closed under products, by dense products."""
    basis = []

    def add(x):
        if rank_of_vectors([b.coords for b in basis] + [x.coords]) > len(basis):
            basis.append(x)
            return True
        return False

    for x in [algebra.unit_element()] + [algebra.basis_element(g) for g in generators]:
        add(x)
    grown = True
    while grown:
        grown = False
        for x in list(basis):
            for y in list(basis):
                grown = add(x * y) or grown
    return len(basis)


GENERATED_ALGEBRAS = ("a2", "mat1", "mat2", "mat3", "mat4", "mat1+mat1", "a2+mat1", "mat2+mat1", "a2+a2", "T3", "T4")


def _named_algebra(name):
    return _upper_triangular(int(name[1])) if name.startswith("T") else resolve_preset(name)


@pytest.mark.parametrize("name", GENERATED_ALGEBRAS)
def test_generating_set_generates(name):
    algebra = _named_algebra(name)
    gens = generating_set(algebra)
    assert list(gens) == sorted(set(gens)) and all(0 <= g < algebra.dim for g in gens)
    assert _generated_dim(algebra, gens) == algebra.dim
    # deterministic: the same set again, and on a separately built copy
    assert generating_set(algebra) == gens
    assert generating_set(_named_algebra(name)) == gens


def test_generating_set_of_mat3():
    # the Peirce order visits the cycle E12, E23, E31 first, and it generates;
    # greedy by index keeps four (E12, E13, E21, E31), so the cycle is returned
    assert generating_set(make_matrix_algebra(3)) == (1, 5, 6)
    assert generating_set(make_a2()) == (0, 1)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_generating_set_of_mat_n_is_the_cycle_of_matrix_units(n):
    gens = generating_set(make_matrix_algebra(n))
    assert len(gens) == n
    # E_12, E_23, ..., E_n1
    assert gens == tuple(sorted(i * n + (i + 1) % n for i in range(n)))


def _smallest_generating_size(algebra):
    """The size of a smallest generating subset of the basis, by exhaustive search."""
    n = algebra.dim
    for size in range(n + 1):
        if any(_generated_dim(algebra, subset) == n for subset in combinations(range(n), size)):
            return size


@pytest.mark.parametrize("name", ("mat2", "mat3", "a2", "T3", "a2+mat1", "mat2+mat1", "a2+a2"))
def test_generating_set_is_a_smallest_one(name):
    algebra = _named_algebra(name)
    assert algebra.dim <= 9
    assert len(generating_set(algebra)) == _smallest_generating_size(algebra)
