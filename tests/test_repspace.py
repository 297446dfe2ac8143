import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import make_a2, make_matrix_algebra
from doublepoisson.brackets import DoubleBracket
from doublepoisson.families import a2_alpha_bracket_symbolic
from doublepoisson.inner import inner_bracket, wedge_basis
from doublepoisson.poly import MultiPoly, PolyRing, scalar_is_zero
from doublepoisson.repspace import (
    ChartError,
    CoordRing,
    coord_var_name,
    a2_rep2_rational_point,
    a2_rep3_rational_point,
    chart_consistency,
    chart_relations_check,
    eval_table_at_point,
    get_chart,
    induce,
    jacobi_check_bivector,
    matrix_algebra_rep_point,
    register_chart_rep2_a2,
    register_chart_rep3_a2,
)
from test_solver import _t3_json


@pytest.fixture(scope="module")
def a2():
    return make_a2()


@pytest.fixture(scope="module")
def alpha_table(a2):
    db, _ = a2_alpha_bracket_symbolic("A")
    return induce(db, 2)


@pytest.fixture(scope="module")
def rep2_chart():
    return register_chart_rep2_a2()


@pytest.fixture(scope="module")
def rep3_chart():
    return register_chart_rep3_a2()


def test_induced_table_alpha_family(alpha_table):
    # {(e0)_ij, (e1)_pq} = A (e0)_pj (e0)_iq
    R = alpha_table.ring.ring
    for i in (1, 2):
        for j in (1, 2):
            for p in (1, 2):
                for q in (1, 2):
                    got = alpha_table.entry(f"e0_{i}{j}", f"e1_{p}{q}")
                    want = R.var("A") * R.var(f"e0_{p}{j}") * R.var(f"e0_{i}{q}")
                    assert (got - want).is_zero()
                    assert alpha_table.entry(f"e0_{i}{j}", f"e0_{p}{q}").is_zero()
                    assert alpha_table.entry(f"e1_{i}{j}", f"e1_{p}{q}").is_zero()


# -- oracle: the induced table by MultiPoly products ----------------------------


def _multipoly_induce(db, n):
    """The table entry by entry from MultiPoly products: the path induce replaced."""
    alg = db.algebra
    ring = CoordRing.build(alg, n, tuple(db.params))
    R = ring.ring
    param_images = {p: R.var(p) for p in db.params}
    coeffs = db.coeffs
    table = {}
    for ga in range(alg.dim):
        for gb in range(alg.dim):
            block = coeffs[ga][gb]
            nonzero = [
                (u, v, block[u][v])
                for u in range(alg.dim)
                for v in range(alg.dim)
                if not scalar_is_zero(block[u][v])
            ]
            for i, j, p, q in product(range(n), repeat=4):
                val = R.zero()
                for u, v, c in nonzero:
                    if isinstance(c, MultiPoly):
                        c = c.substitute(param_images, R)
                    val = val + c * ring.var(u, p, j) * ring.var(v, i, q)
                key = (
                    coord_var_name(alg.basis_names[ga], i, j),
                    coord_var_name(alg.basis_names[gb], p, q),
                )
                table[key] = val
    return table


def _assert_induce_matches_oracle(db, n):
    got = induce(db, n).table
    want = _multipoly_induce(db, n)
    assert list(got) == list(want)
    assert all(got[key].ring == want[key].ring and got[key].terms == want[key].terms for key in want)


@pytest.fixture(scope="module")
def oracle_algebras(tmp_path_factory):
    t3 = _t3_json(tmp_path_factory.mktemp("algebras") / "T3.json")
    return {spec: dpio.load_algebra(t3 if spec == "T3" else spec) for spec in ("a2", "mat2", "T3")}


_small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))


@seed(20261022)
@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_induce_matches_multipoly_oracle(oracle_algebras, data):
    alg = oracle_algebras[data.draw(st.sampled_from(("a2", "mat2", "T3")))]
    n = data.draw(st.integers(1, 3))
    slot = st.tuples(*[st.integers(0, alg.dim - 1)] * 4)
    cells = data.draw(st.lists(st.tuples(slot, _small_rational), max_size=5))
    # each entry with its skew partner: C[j][i][b][a] = -C[i][j][a][b]
    entries = [(*s, c) for s, c in cells] + [(j, i, b, a, -c) for (i, j, a, b), c in cells]
    _assert_induce_matches_oracle(DoubleBracket.from_entries(alg, entries), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_induce_of_the_symbolic_alpha_family_matches_multipoly_oracle(n):
    db, _ = a2_alpha_bracket_symbolic("A")
    _assert_induce_matches_oracle(db, n)


def test_induce_rejects_a_bracket_that_is_not_skew(a2):
    with pytest.raises(ChartError):
        induce(DoubleBracket.from_entries(a2, [(0, 1, 0, 0, Fraction(1))]), 1)


def test_table_antisymmetry(alpha_table):
    assert alpha_table.check_antisymmetry()


def test_zero_bracket_zero_table(a2):
    from doublepoisson.brackets import DoubleBracket

    table = induce(DoubleBracket.zero(a2), 2)
    assert all(p.is_zero() for p in table.table.values())


def test_poisson_eval_biderivation(alpha_table):
    rng = random.Random(14)
    R = alpha_table.ring.ring

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randint(1, 3)):
            exps = {}
            for _ in range(rng.randint(0, 2)):
                exps[rng.choice(R.names)] = rng.randint(1, 2)
            p = p + R.monomial(exps, Fraction(rng.randint(-3, 3)))
        return p

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (alpha_table.poisson_eval(f, f)).is_zero()
        lhs = alpha_table.poisson_eval(f, g * h)
        rhs = g * alpha_table.poisson_eval(f, h) + alpha_table.poisson_eval(f, g) * h
        assert (lhs - rhs).is_zero()
        anti = alpha_table.poisson_eval(f, g) + alpha_table.poisson_eval(g, f)
        assert anti.is_zero()


def test_poisson_eval_rejects_foreign_variables(alpha_table):
    other = PolyRing(("zz",))
    with pytest.raises(ChartError):
        alpha_table.poisson_eval(other.var("zz"), other.var("zz"))


def test_coord_ring_relations(a2):
    ring = CoordRing.build(a2, 2)
    rels = ring.relation_polys()
    # relations are nontrivial polynomials describing rho(e_g) products
    assert any(not p.is_zero() for p in rels)
    point = a2_rep2_rational_point(Fraction(3, 5), Fraction(4, 5), Fraction(2), Fraction(7))
    for p in rels:
        assert p.eval_rational(point) == 0


def test_rep2_chart_substitution(rep2_chart):
    # rho(e0)_12 = lam c^2 per the published matrix display
    R = rep2_chart.ring
    assert (rep2_chart.substitution["e0_12"] - R.parse("lam*c^2")).is_zero()
    assert (rep2_chart.substitution["e1_11"] - R.parse("c^2 - mu*c*s")).is_zero()


def test_rep2_chart_relations_exact(rep2_chart):
    ok, worst = chart_relations_check(rep2_chart, mode="exact")
    assert ok and worst == 0.0


def test_rep2_chart_consistency_exact(rep2_chart, alpha_table):
    report = chart_consistency(rep2_chart, alpha_table, mode="exact")
    assert report.ok
    assert report.mode == "exact"


def test_rep2_pi_matrix(rep2_chart):
    assert str(rep2_chart.pi_entry(1, 2)) == "A*lam^2"
    assert str(rep2_chart.pi_entry(2, 1)) == "-A*lam^2"
    zero_slots = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]
    for p, q in zero_slots:
        assert rep2_chart.pi_entry(p, q).is_zero()


def test_rep2_chart_corrupted_pi_fails(rep2_chart, alpha_table):
    # mutate A*lam^2 -> A*lam and the consistency residual must be nonzero
    from dataclasses import replace

    R = rep2_chart.ring
    z = R.zero()
    bad_pi = (
        (z, z, z),
        (z, z, R.parse("A*lam")),
        (z, R.parse("0 - A*lam"), z),
    )
    corrupted = replace(rep2_chart, bivector=bad_pi)
    report = chart_consistency(corrupted, alpha_table, mode="exact")
    assert not report.ok
    assert report.failures


def test_rep2_numeric_mode_matches_exact(rep2_chart, alpha_table):
    report = chart_consistency(rep2_chart, alpha_table, mode="numeric", samples=25, seed=3)
    assert report.ok
    assert report.max_residual <= 1e-9


def test_rep2_bivector_jacobi(rep2_chart):
    assert jacobi_check_bivector(rep2_chart, mode="exact")


def test_constant_bivector_jacobi(a2):
    from dataclasses import replace

    chart = register_chart_rep2_a2()
    R = chart.ring
    const_pi = (
        (R.zero(), R.one(), R.zero()),
        (R.parse("0-1"), R.zero(), R.one()),
        (R.zero(), R.parse("0-1"), R.zero()),
    )
    assert jacobi_check_bivector(replace(chart, bivector=const_pi), mode="exact")


def test_rep3_chart_relations_numeric(rep3_chart):
    ok, worst = chart_relations_check(rep3_chart, mode="numeric", samples=100, seed=7)
    assert ok and worst <= 1e-9


def test_rep3_chart_consistency_numeric(rep3_chart):
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 3)
    report = chart_consistency(rep3_chart, table, mode="numeric", samples=100, seed=7, tol=1e-9)
    assert report.ok
    assert report.max_residual <= 1e-9
    assert "f1" in report.frame and "f2" in report.frame


def test_rep3_chart_consistency_exact_bonus(rep3_chart):
    # the frame is polynomial in cos/sin, so the residuals even vanish exactly
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 3)
    assert chart_consistency(rep3_chart, table, mode="exact").ok


def test_rep3_bivector_jacobi(rep3_chart):
    assert jacobi_check_bivector(rep3_chart, mode="numeric", samples=100, seed=7)
    assert jacobi_check_bivector(rep3_chart, mode="exact")


def test_rep3_beta_delta_zero_slice_rank(rep3_chart):
    # on the cb = cd = 0 slice the bivector drops to rank 2
    import numpy as np

    pts = rep3_chart.sample_points(5, seed=11)
    for pt in pts:
        pt = dict(pt)
        pt["cb"] = 0.0
        pt["cd"] = 0.0
        grid = np.array(
            [[entry.eval_float(pt) for entry in row] for row in rep3_chart.bivector]
        )
        assert np.linalg.matrix_rank(grid, tol=1e-12) == 2


def test_chart_algebra_guard(rep2_chart):
    db, _ = a2_alpha_bracket_symbolic("A")
    table3 = induce(db, 3)
    with pytest.raises(ChartError):
        chart_consistency(rep2_chart, table3)
    with pytest.raises(ChartError):
        get_chart("rep9-nope")


def test_trace_casimir_at_rational_points(a2):
    """Traces are Casimirs for every inner bracket, at exact variety points."""
    # Rep2(a2)
    points2 = [
        a2_rep2_rational_point(Fraction(3, 5), Fraction(4, 5), Fraction(2), Fraction(7)),
        a2_rep2_rational_point(Fraction(5, 13), Fraction(-12, 13), Fraction(-1), Fraction(3)),
    ]
    for w in wedge_basis(a2):
        table = induce(inner_bracket(w), 2)
        for point in points2:
            for g in ("e0", "e1", "e2"):
                for p in (1, 2):
                    for q in (1, 2):
                        for x in ("e0", "e1", "e2"):
                            total = sum(
                                eval_table_at_point(table, f"{x}_{i}{i}", f"{g}_{p}{q}", point)
                                for i in (1, 2)
                            )
                            assert total == 0
    # Rep3(a2), rational sphere point (3/7, 6/7, 2/7)
    point3 = a2_rep3_rational_point(
        (Fraction(3, 7), Fraction(6, 7), Fraction(2, 7)),
        (Fraction(6, 7), Fraction(-3, 7), Fraction(0)),
        (Fraction(3, 7), Fraction(4, 7), Fraction(8, 7)),
    )
    table = induce(inner_bracket(wedge_basis(a2)[0]), 3)
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            total = sum(
                eval_table_at_point(table, f"e0_{i}{i}", f"e1_{p}{q}", point3)
                for i in (1, 2, 3)
            )
            assert total == 0
    # Rep2(Mat2), conjugation point
    m2 = make_matrix_algebra(2)
    pointm = matrix_algebra_rep_point(2, [[1, 2], [3, 5]])
    for w in wedge_basis(m2):
        table = induce(inner_bracket(w), 2)
        for x in m2.basis_names:
            for g in m2.basis_names:
                for p in (1, 2):
                    for q in (1, 2):
                        total = sum(
                            eval_table_at_point(table, f"{x}_{i}{i}", f"{g}_{p}{q}", pointm)
                            for i in (1, 2)
                        )
                        assert total == 0
