"""The sparse axiom checkers against the dense loops they replaced.

Every function prefixed _dense_ below is the pre-sparse implementation, kept
here as the oracle: dense grids, dense multiplication matrices and dense
Tensor3 sums.  The checkers must return the same witnesses (tags and
tensors, in the same order) on random rational brackets and wedges that fail
some or all of the axioms, and on the symbolic a2 family.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import commutator_subspace, resolve_preset
from doublepoisson.brackets import DoubleBracket
from doublepoisson.families import a2_double_family, a2_double_family_symbolic
from doublepoisson.inner import (
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    weak_jacobi_condition,
)
from doublepoisson.modified import ModifiedBracket, h0_jacobi_check, h0_skew_check
from doublepoisson.poly import MultiPoly, PolyRing, RelationSet, distinct_up_to_scalar
from doublepoisson.tensors import Tensor2, Tensor3, tensor3_from_terms, tensor_from_terms
from jacobi_oracles import double_jacobiator
from test_algebra import _dense_mul
from test_solver import _t3_json, _two_stage_algebra
from test_tensors import leg_commutator

SPECS = ("a2", "mat1+mat1", "mat2", "a2+a2", "T3")
#: J(r), the inner bracket and the Jacobi checkers use the unit law and the
#: product table's own coefficients: a unit that is not a basis sum, and
#: fractional constants.
UNIT_LAW_SPECS = ("mat2~rebased", "a2+mat1/2")


@pytest.fixture(scope="module")
def algebras(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("algebras")
    t3 = _t3_json(tmp / "T3.json")
    out = {spec: dpio.load_algebra(t3 if spec == "T3" else spec) for spec in SPECS}
    out.update((spec, _two_stage_algebra(spec, tmp)) for spec in UNIT_LAW_SPECS)
    return out


# -- the dense oracle ------------------------------------------------------------


def _zero3(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def _dense_bracket(alg, grid):
    """The DoubleBracket of a dense grid C[i][j][a][b]."""
    n = alg.dim
    return DoubleBracket.from_entries(
        alg, [(i, j, a, b, grid[i][j][a][b]) for i, j, a, b in product(range(n), repeat=4)]
    )


def _summed_tensor3(alg, cells):
    """sum v e_a (x) e_b (x) e_c over the ((a, b, c), v) cells."""
    terms = {}
    for cell, v in cells:
        terms[cell] = terms.get(cell, 0) + v
    return tensor3_from_terms(alg, terms)


def _dense_tensor_zero_mod(t, rels):
    if rels is None:
        return t.is_zero()
    return all(
        rels.normal_form(v).is_zero() if isinstance(v, MultiPoly) else not v
        for *_, v in t.entries()
    )


def _dense_left_matrix(x):
    """L with x e_a = sum_c L[c][a] e_c."""
    alg = x.algebra
    n = alg.dim
    mul = _dense_mul(alg)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for a in range(n):
            row = mul[i][a]
            for c in range(n):
                if row[c] != 0:
                    mat[c][a] = mat[c][a] + xi * row[c]
    return mat


def _dense_right_matrix(x):
    """R with e_a x = sum_c R[c][a] e_c."""
    alg = x.algebra
    n = alg.dim
    mul = _dense_mul(alg)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j, xj in enumerate(x.coords):
        if not xj:
            continue
        for a in range(n):
            row = mul[a][j]
            for c in range(n):
                if row[c] != 0:
                    mat[c][a] = mat[c][a] + xj * row[c]
    return mat


def _dense_mult_first(t, mat):
    n = t.algebra.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = t.grid[a][b]
            if not v:
                continue
            for c in range(n):
                w = mat[c][a]
                if w:
                    out[c][b] = out[c][b] + w * v
    return Tensor2.of(t.algebra, out)


def _dense_mult_second(t, mat):
    n = t.algebra.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = t.grid[a][b]
            if not v:
                continue
            for c in range(n):
                w = mat[c][b]
                if w:
                    out[a][c] = out[a][c] + w * v
    return Tensor2.of(t.algebra, out)


def _dense_skew(db, rels=None):
    n = db.algebra.dim
    residuals = []
    for i in range(n):
        for j in range(i, n):
            r = db.eval_basis(i, j) + db.eval_basis(j, i).flip()
            if not _dense_tensor_zero_mod(r, rels):
                residuals.append((("skew", i, j), r))
    return residuals


def _dense_second_leibniz(db, rels=None):
    alg = db.algebra
    n = alg.dim
    residuals = []
    for i, k, l in product(range(n), repeat=3):
        lhs = Tensor2.zero(alg)
        for m, c in enumerate(_dense_mul(alg)[k][l]):
            if c != 0:
                lhs = lhs + db.eval_basis(i, m).scale(c)
        ek, el = alg.basis_element(k), alg.basis_element(l)
        rhs = _dense_mult_first(db.eval_basis(i, l), _dense_left_matrix(ek)) + _dense_mult_second(
            db.eval_basis(i, k), _dense_right_matrix(el)
        )
        r = lhs - rhs
        if not _dense_tensor_zero_mod(r, rels):
            residuals.append((("second", i, k, l), r))
    return residuals


def _dense_first_leibniz(db, rels=None):
    alg = db.algebra
    n = alg.dim
    residuals = []
    for k, l, i in product(range(n), repeat=3):
        lhs = Tensor2.zero(alg)
        for m, c in enumerate(_dense_mul(alg)[k][l]):
            if c != 0:
                lhs = lhs + db.eval_basis(m, i).scale(c)
        ek, el = alg.basis_element(k), alg.basis_element(l)
        rhs = _dense_mult_second(db.eval_basis(l, i), _dense_left_matrix(ek)) + _dense_mult_first(
            db.eval_basis(k, i), _dense_right_matrix(el)
        )
        r = lhs - rhs
        if not _dense_tensor_zero_mod(r, rels):
            residuals.append((("first", k, l, i), r))
    return residuals


def _dense_bracket_into_first_leg(db, i, t):
    n = db.algebra.dim
    out = _zero3(n)
    for a, b, v in t.entries():
        block = db.eval_basis(i, a).grid
        for c in range(n):
            for d in range(n):
                w = block[c][d]
                if w:
                    out[c][d][b] = out[c][d][b] + v * w
    return Tensor3.of(db.algebra, out)


def _dense_jacobiator(db, i, j, k):
    t1 = _dense_bracket_into_first_leg(db, i, db.eval_basis(j, k))
    t2 = _dense_bracket_into_first_leg(db, j, db.eval_basis(k, i)).tau123()
    t3 = _dense_bracket_into_first_leg(db, k, db.eval_basis(i, j)).tau132()
    return t1 + t2 + t3


def _dense_leg_commutator(t, x, leg):
    left, right = _dense_left_matrix(x), _dense_right_matrix(x)
    n = t.algebra.dim
    out = _zero3(n)
    for a, b, c, v in t.entries():
        for m in range(n):
            if leg == 1:
                out[a][m][c] = out[a][m][c] + v * left[m][b]
                out[m][b][c] = out[m][b][c] - v * right[m][a]
            elif leg == 2:
                out[a][b][m] = out[a][b][m] + v * left[m][c]
                out[a][m][c] = out[a][m][c] - v * right[m][b]
            else:
                out[m][b][c] = out[m][b][c] + v * left[m][a]
                out[a][b][m] = out[a][b][m] - v * right[m][c]
    return Tensor3.of(t.algebra, out)


def _dense_legwise_product(t, u):
    alg = t.algebra
    n = alg.dim
    mul = _dense_mul(alg)
    out = _zero3(n)
    for a, b, c, v in t.entries():
        for p, q, r, w in u.entries():
            coeff = v * w
            row1, row2, row3 = mul[a][p], mul[b][q], mul[c][r]
            for i in range(n):
                if row1[i] == 0:
                    continue
                c1 = coeff * row1[i]
                for j in range(n):
                    if row2[j] == 0:
                        continue
                    c2 = c1 * row2[j]
                    for k in range(n):
                        if row3[k] != 0:
                            out[i][j][k] = out[i][j][k] + c2 * row3[k]
    return Tensor3.of(alg, out)


def _dense_unit_inclusion(r, i, j):
    alg = r.algebra
    out = _zero3(alg.dim)
    (rest,) = tuple({1, 2, 3} - {i, j})
    for a, b, v in r.entries():
        for u, cu in enumerate(alg.unit):
            if cu != 0:
                pos = {i: a, j: b, rest: u}
                out[pos[1]][pos[2]][pos[3]] = out[pos[1]][pos[2]][pos[3]] + v * cu
    return Tensor3.of(alg, out)


def _dense_aybe(r):
    r12, r13, r23 = (_dense_unit_inclusion(r, *legs) for legs in ((1, 2), (1, 3), (2, 3)))
    return (
        _dense_legwise_product(r13, r12)
        + _dense_legwise_product(r23, r13)
        - _dense_legwise_product(r12, r23)
    )


def _dense_weak_jacobi(r):
    alg = r.algebra
    j = _dense_aybe(r)
    residuals = []
    if j.is_zero():
        return True, residuals
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    for x, y, z in product(range(alg.dim), repeat=3):
        t = _dense_leg_commutator(j, basis[x], 1)
        t = _dense_leg_commutator(t, basis[y], 2)
        t = _dense_leg_commutator(t, basis[z], 3)
        if not t.is_zero():
            residuals.append(((x, y, z), t))
    return not residuals, residuals


def _dense_multiplied(mb, x, y):
    alg = mb.algebra
    n = alg.dim
    out = [Fraction(0)] * n
    for i, j in product(range(n), repeat=2):
        c = x.coords[i] * y.coords[j]
        if not c:
            continue
        for a, b, v in mb.eval_basis(i, j).entries():
            for k, w in enumerate(_dense_mul(alg)[a][b]):
                out[k] = out[k] + c * v * w
    return alg.element(out)


def _dense_h0_jacobi(mb):
    alg = mb.algebra
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    m = lambda x, y: _dense_multiplied(mb, x, y)  # noqa: E731
    bad = []
    for i, j, k in product(range(alg.dim), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        r = m(x, m(y, z)) - m(y, m(x, z)) - m(m(x, y), z)
        if not r.is_zero():
            bad.append(((i, j, k), r))
    return bad


def _dense_h0_skew(mb):
    alg = mb.algebra
    sub = commutator_subspace(alg)
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    bad = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            s = _dense_multiplied(mb, basis[i], basis[j]) + _dense_multiplied(mb, basis[j], basis[i])
            flat = sub.project_flat(list(s.coords))
            if any(flat):
                bad.append(((i, j), flat))
    return bad


def _dense_inner_bracket(r):
    alg = r.algebra
    n = alg.dim
    grid = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    mul = _dense_mul(alg)
    for p, q, w in r.entries():
        for i in range(n):
            for j in range(n):
                block = grid[i][j]
                row1 = mul[p][i]
                row2 = mul[q][j]
                for a in range(n):
                    if row1[a] == 0:
                        continue
                    c1 = w * row1[a]
                    for b in range(n):
                        if row2[b] != 0:
                            block[a][b] = block[a][b] + c1 * row2[b]
                row1 = mul[p][i]
                for m in range(n):
                    if row1[m] == 0:
                        continue
                    roww = mul[j][m]
                    for a in range(n):
                        if roww[a] != 0:
                            block[a][q] = block[a][q] - w * row1[m] * roww[a]
                row2 = mul[i][q]
                for m in range(n):
                    if row2[m] == 0:
                        continue
                    roww = mul[m][j]
                    for b in range(n):
                        if roww[b] != 0:
                            block[p][b] = block[p][b] - w * row2[m] * roww[b]
                row1 = mul[j][p]
                row2 = mul[i][q]
                for a in range(n):
                    if row1[a] == 0:
                        continue
                    c1 = w * row1[a]
                    for b in range(n):
                        if row2[b] != 0:
                            block[a][b] = block[a][b] + c1 * row2[b]
    return _dense_bracket(alg, grid)


# -- inputs ------------------------------------------------------------------------

_small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3)))


@st.composite
def _wedges(draw, alg):
    n = alg.dim
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    terms = draw(st.lists(st.tuples(pair, _small_rational), max_size=4))
    return WedgeElement.from_terms(alg, [(a, b, c) for (a, b), c in terms])


@st.composite
def _brackets(draw, alg):
    """An inner bracket (skew, Leibniz) plus random entries that may break both."""
    n = alg.dim
    base = inner_bracket(draw(_wedges(alg)))
    slot = st.tuples(*[st.integers(0, n - 1)] * 4)
    extra = draw(st.lists(st.tuples(slot, _small_rational), max_size=6))
    return base + DoubleBracket.from_entries(alg, [(*s, c) for s, c in extra])


def _assert_bracket_checks_match(db, rels=None):
    n = db.algebra.dim
    dense = {t: _dense_jacobiator(db, *t) for t in product(range(n), repeat=3)}
    expected_jacobi = [
        (("jacobi", *t), r) for t, r in dense.items() if not _dense_tensor_zero_mod(r, rels)
    ]
    assert db.check_jacobi(rels) == expected_jacobi
    assert db.check_jacobi(rels, collect=False) == expected_jacobi[:1]
    assert {t: double_jacobiator(db, *t).terms for t in dense} == {t: r.terms for t, r in dense.items()}
    second, first = _dense_second_leibniz(db, rels), _dense_first_leibniz(db, rels)
    assert db.check_second_leibniz(rels) == second
    assert db.check_leibniz(rels) == second + first
    assert ModifiedBracket(db.algebra, db.terms, db.params).check_leibniz_both(rels) == second + first
    assert db.check_skew(rels) == _dense_skew(db, rels)


# -- tests -------------------------------------------------------------------------


@seed(20261018)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_bracket_checkers_match_dense_oracle(algebras, data):
    db = data.draw(_brackets(algebras[data.draw(st.sampled_from(SPECS + UNIT_LAW_SPECS))]))
    _assert_bracket_checks_match(db)


@seed(20261019)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_aybe_and_leg_operations_match_dense_oracle(algebras, data):
    alg = algebras[data.draw(st.sampled_from(SPECS + UNIT_LAW_SPECS))]
    r = data.draw(_wedges(alg))
    assert aybe_obstruction(r) == _dense_aybe(r)
    assert weak_jacobi_condition(r) == _dense_weak_jacobi(r)
    n = alg.dim
    cells = st.lists(st.tuples(st.tuples(*[st.integers(0, n - 1)] * 3), _small_rational), max_size=5)
    t = _summed_tensor3(alg, data.draw(cells))
    x = alg.element([data.draw(_small_rational) for _ in range(n)])
    for leg in (1, 2, 3):
        assert leg_commutator(t, x, leg) == _dense_leg_commutator(t, x, leg)


@seed(20261020)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_h0_checks_match_dense_oracle(algebras, data):
    alg = algebras[data.draw(st.sampled_from(SPECS + UNIT_LAW_SPECS))]
    n = alg.dim
    slot = st.tuples(*[st.integers(0, n - 1)] * 4)
    entries = data.draw(st.lists(st.tuples(slot, _small_rational), max_size=8))
    mb = ModifiedBracket.from_entries(alg, [(*s, c) for s, c in entries])
    assert h0_jacobi_check(mb) == _dense_h0_jacobi(mb)
    assert h0_skew_check(mb) == _dense_h0_skew(mb)


@pytest.mark.parametrize("spec", UNIT_LAW_SPECS)
def test_checkers_read_the_algebras_own_products(algebras, spec):
    # a dense bracket fails every axiom at many indices, so witness values scaled
    # by a common denominator of the product table would show
    alg = algebras[spec]
    n = alg.dim
    entries = [(i, j, a, b, Fraction((i + 2 * j + 3 * a) % 5 - 2, b + 1)) for i, j, a, b in product(range(n), repeat=4)]
    mb = ModifiedBracket.from_entries(alg, entries)
    assert h0_jacobi_check(mb) == _dense_h0_jacobi(mb) != []
    assert h0_skew_check(mb) == _dense_h0_skew(mb)
    db = DoubleBracket.from_entries(alg, entries)
    assert db.check_jacobi() != []
    _assert_bracket_checks_match(db)


@seed(20261021)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_inner_bracket_matches_dense_oracle(algebras, data):
    spec = data.draw(st.sampled_from(("a2", "mat2", "T3", "a2+a2", "mat3") + UNIT_LAW_SPECS))
    alg = algebras.get(spec) or resolve_preset(spec)
    r = data.draw(_wedges(alg))
    got = inner_bracket(r)
    assert got == _dense_inner_bracket(r)
    assert [str(v) for v in got.flat_coeffs()] == [str(v) for v in _dense_inner_bracket(r).flat_coeffs()]


def test_check_all_on_a_mat3_inner_bracket_matches_dense_oracle():
    # inner, so skew and Leibniz hold, but Jacobi fails at most triples
    m3 = resolve_preset("mat3")
    r = WedgeElement.from_terms(m3, [(0, 4, Fraction(1)), (1, 5, Fraction(2)), (2, 7, Fraction(-1))])
    db = inner_bracket(r)
    dense = _dense_skew(db) + _dense_second_leibniz(db) + _dense_first_leibniz(db)
    for t in product(range(m3.dim), repeat=3):
        residual = _dense_jacobiator(db, *t)
        if not residual.is_zero():
            dense.append((("jacobi", *t), residual))
    report = db.check_all()
    assert report.skew_ok and report.leibniz_ok and not report.jacobi_ok
    assert len(dense) > 600
    assert [tag for tag, _ in report.residuals] == [tag for tag, _ in dense]
    assert all(got.grid == want.grid for (_, got), (_, want) in zip(report.residuals, dense))


def test_symbolic_inner_bracket_matches_dense_oracle(algebras):
    for spec in ("a2", "T3") + UNIT_LAW_SPECS:
        alg = algebras[spec]
        n = alg.dim
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        ring = PolyRing(tuple(f"w{a}{b}" for a, b in pairs))
        r = WedgeElement.from_terms(alg, [(a, b, ring.var(f"w{a}{b}")) for a, b in pairs])
        assert inner_bracket(r) == _dense_inner_bracket(r)


def test_symbolic_family_matches_dense_oracle():
    db, _ = a2_double_family_symbolic()
    _assert_bracket_checks_match(db)
    # quotienting by the conic: the same empty witness lists on both paths
    ring = PolyRing(("g", "a", "b"))
    rels = RelationSet.single(ring, "g^2", "0 - a*b")
    db2 = a2_double_family(ring.var("a"), ring.var("b"), ring.var("g"), params=ring.names)
    assert db2.check_all(rels=rels).all_ok
    _assert_bracket_checks_match(db2, rels)


def test_aybe_solve_matches_dense_oracle(algebras):
    # aybe_solve's general wedge: one parameter w{a}{b} per e_a ^ e_b
    for spec in ("a2", "mat1+mat1"):
        alg = algebras[spec]
        n = alg.dim
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        ring = PolyRing(tuple(f"w{a}{b}" for a, b in pairs))
        r = WedgeElement.from_terms(alg, [(a, b, ring.var(f"w{a}{b}")) for a, b in pairs])
        j = _dense_aybe(r)
        assert aybe_obstruction(r) == j
        _, weak = _dense_weak_jacobi(r)
        assert weak_jacobi_condition(r) == (not weak, weak)
        system = aybe_solve(alg, include_weak=True)
        assert list(system.equations) == distinct_up_to_scalar(v for *_, v in j.entries())
        assert list(system.weak_equations) == distinct_up_to_scalar(
            v for _, t in weak for *_, v in t.entries()
        )


def test_first_leibniz_is_exact_on_a_skew_violating_bracket(algebras):
    # On a2 (e1 e1 = e1, e2 e2 = e2, e1 e0 = e0, e0 e2 = e0, all other products
    # zero) take {{e1, e1}} = e1 (x) e1 and every other slot zero.  It is not
    # skew.  The first-argument rule
    #   {{e_k e_l, e_i}} - (1 (x) e_k){{e_l, e_i}} - {{e_k, e_i}}(e_l (x) 1)
    # fails at (k, l, i) = (1, 0, 1): 0 - 0 - e1 e0 (x) e1 = -e0 (x) e1,
    # and at (1, 1, 1): e1 (x) e1 - e1 (x) e1 - e1 (x) e1 = -e1 (x) e1.
    # The second-argument rule fails at (i, k, l) = (1, 1, 0), where
    # {{e1, e1}}(1 (x) e0) = e1 (x) e1 e0 = e1 (x) e0 is left over, and at (1, 1, 1).
    alg = algebras["a2"]
    db = DoubleBracket.from_entries(alg, [(1, 1, 1, 1, Fraction(1))])

    def tensor(a, b, c):
        return tensor_from_terms(alg, {(a, b): Fraction(c)})

    assert db.check_skew() == [(("skew", 1, 1), tensor(1, 1, 2))]
    assert db.check_leibniz() == [
        (("second", 1, 1, 0), tensor(1, 0, -1)),
        (("second", 1, 1, 1), tensor(1, 1, -1)),
        (("first", 1, 0, 1), tensor(0, 1, -1)),
        (("first", 1, 1, 1), tensor(1, 1, -1)),
    ]
    assert not db.check_all().leibniz_ok
