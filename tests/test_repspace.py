import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import make_a2, make_matrix_algebra
from doublepoisson.brackets import DoubleBracket
from doublepoisson.families import a2_alpha_bracket, a2_alpha_bracket_symbolic, a2_double_family
from doublepoisson.inner import inner_bracket, wedge_basis
from doublepoisson.linalg import rank_of_vectors
from doublepoisson.poly import MultiPoly, PolyRing
from doublepoisson.repspace import (
    ChartCoord,
    ChartError,
    ChartReport,
    CoordRing,
    ParamChart,
    PoissonTable,
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
    _consistency_residuals,
    _vanishing,
)
from test_poly import _old_substitute
from test_solver import _t3_json


def _with_bivector(chart, bivector):
    """``chart`` with its bivector replaced, built through the ParamChart constructor."""
    return ParamChart(
        chart.name, chart.algebra, chart.n, chart.ring, chart.relations, chart.coords,
        chart.substitution, bivector, chart.params, chart.frame,
    )


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
                if block[u][v]
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


@pytest.fixture(scope="module")
def corrupted_rep2_chart(rep2_chart):
    # A*lam^2 -> A*lam
    R = rep2_chart.ring
    z = R.zero()
    bad_pi = (
        (z, z, z),
        (z, z, R.parse("A*lam")),
        (z, R.parse("0 - A*lam"), z),
    )
    return _with_bivector(rep2_chart, bad_pi)


def test_rep2_chart_corrupted_pi_fails(corrupted_rep2_chart, alpha_table):
    report = chart_consistency(corrupted_rep2_chart, alpha_table, mode="exact")
    assert not report.ok
    assert report.failures


def test_chart_consistency_rejects_a_bivector_that_is_not_antisymmetric(rep2_chart, alpha_table):
    R = rep2_chart.ring
    z = R.zero()
    one_sided = ((z, z, z), (z, z, R.parse("A*lam^2")), (z, z, z))
    with pytest.raises(ChartError, match="not antisymmetric"):
        chart_consistency(_with_bivector(rep2_chart, one_sided), alpha_table)


def test_rep2_chart_corrupted_pi_fails_numerically(corrupted_rep2_chart, alpha_table):
    tol = 1e-9
    report = chart_consistency(corrupted_rep2_chart, alpha_table, mode="numeric", samples=25, seed=3, tol=tol)
    assert not report.ok
    assert report.max_residual > tol
    assert all(worst > tol for _, worst in report.failures)


def test_rep2_numeric_mode_matches_exact(rep2_chart, alpha_table):
    report = chart_consistency(rep2_chart, alpha_table, mode="numeric", samples=25, seed=3)
    assert report.ok
    assert report.max_residual <= 1e-9


def test_rep2_bivector_jacobi(rep2_chart):
    assert jacobi_check_bivector(rep2_chart, mode="exact")


def test_chart_checks_reject_an_unknown_mode(rep2_chart, alpha_table):
    with pytest.raises(ChartError):
        jacobi_check_bivector(rep2_chart, mode="bogus")
    with pytest.raises(ChartError):
        chart_relations_check(rep2_chart, mode="bogus")
    with pytest.raises(ChartError):
        chart_consistency(rep2_chart, alpha_table, mode="bogus")


def test_constant_bivector_jacobi(a2):
    chart = register_chart_rep2_a2()
    R = chart.ring
    const_pi = (
        (R.zero(), R.one(), R.zero()),
        (R.parse("0-1"), R.zero(), R.one()),
        (R.zero(), R.parse("0-1"), R.zero()),
    )
    assert jacobi_check_bivector(_with_bivector(chart, const_pi), mode="exact")


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
    # on the cb = cd = 0 slice the bivector drops to rank 2; the zeroed
    # blocks evaluate to exactly 0.0, so the float grid ranks exactly
    pts = rep3_chart.sample_points(5, seed=11)
    for pt in pts:
        pt = dict(pt)
        pt["cb"] = 0.0
        pt["cd"] = 0.0
        grid = [[Fraction(entry.eval_float(pt)) for entry in row] for row in rep3_chart.bivector]
        assert rank_of_vectors(grid) == 2


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


# -- oracle: the chart check by per-pair substitution ----------------------------


def _substitute_poly(chart, p, bindings=None):
    """Map a coordinate-ring polynomial into the chart ring by the reference fold, all powers afresh."""
    mapping = {}
    for v in p.ring.names:
        if v in chart.substitution:
            mapping[v] = chart.substitution[v]
        elif bindings and v in bindings:
            mapping[v] = chart.ring.const(bindings[v])
        elif v in chart.ring.names:
            mapping[v] = chart.ring.var(v)
        else:
            raise ChartError(f"no chart image for variable {v!r}")
    return _old_substitute(p, mapping, chart.ring).to_poly()


def _substituted_residuals(chart, table, bindings=None):
    """The consistency residuals, every image substituted afresh per pair: the cached check's reference."""
    names = table.ring.coordinate_names()
    pi = chart.bound_bivector(bindings)
    ncoords = len(chart.coords)
    pi_nonzero = [(p, q) for p in range(ncoords) for q in range(ncoords) if not pi[p][q].is_zero()]
    derivatives = {}
    for u in names:
        image = _substitute_poly(chart, table.ring.ring.var(u), bindings)
        derivatives[u] = [coord.derive(image) for coord in chart.coords]
    for u in names:
        for v in names:
            rhs = chart.ring.zero()
            for p, q in pi_nonzero:
                rhs = rhs + pi[p][q] * derivatives[u][p] * derivatives[v][q]
            yield (u, v), _substitute_poly(chart, table.entry(u, v), bindings) - rhs


def _oracle_report(chart, residuals, mode, samples, seed, bindings):
    failures, max_residual = _vanishing(chart, iter(residuals), mode, samples, seed, 1e-9, bindings)
    return ChartReport(chart.name, mode, not failures, max_residual, tuple(failures), chart.frame)


def _chart_case(data, charts, corrupted):
    """(chart, table, bindings) for one drawn case, on rep2 or rep3."""
    n = data.draw(st.sampled_from((2, 3)))
    case = data.draw(st.sampled_from(("symbolic", "alpha", "off-variety", "corrupted")))
    chart = charts[n]
    if case in ("symbolic", "corrupted"):
        db, _ = a2_alpha_bracket_symbolic("A")
        if case == "corrupted":
            n, chart = 2, corrupted
        return chart, induce(db, n), None
    nonzero = _small_rational.filter(lambda c: c != 0)
    if case == "alpha":
        alpha = data.draw(nonzero)
        return chart, induce(a2_alpha_bracket(alpha), n), {"A": alpha}
    # off the variety gamma^2 + alpha beta = 0; A is bound as the CLI binds it
    alpha, beta, gamma = data.draw(
        st.tuples(nonzero, _small_rational, _small_rational).filter(lambda t: t[2] ** 2 + t[0] * t[1] != 0)
    )
    db = a2_double_family(alpha, beta, gamma)
    return chart, induce(db, n), {"A": db.eval_basis(0, 1).grid[0][0]}


@seed(20261025)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_cached_chart_check_matches_per_pair_substitution(rep2_chart, rep3_chart, corrupted_rep2_chart, data):
    chart, table, bindings = _chart_case(data, {2: rep2_chart, 3: rep3_chart}, corrupted_rep2_chart)
    want = list(_substituted_residuals(chart, table, bindings))
    got = list(_consistency_residuals(chart, table, bindings))
    # the cached check builds the pairs u < v; the oracle's mirrors are their negations
    names = table.ring.coordinate_names()
    residual = dict(want)
    upper = [((u, v), residual[(u, v)]) for a, u in enumerate(names) for v in names[a + 1 :]]
    assert all(residual[(v, u)] == -p for (u, v), p in upper)
    assert all(residual[(u, u)].is_zero() for u in names)
    assert [tag for tag, _ in got] == [tag for tag, _ in upper]
    for (_, p), (_, q) in zip(got, upper):
        assert p.ring == q.ring and list(p.terms.items()) == list(q.terms.items())
    for mode in ("exact", "numeric"):
        report = chart_consistency(chart, table, mode=mode, samples=5, seed=11, bindings=bindings)
        oracle = _oracle_report(chart, want, mode, 5, 11, bindings)
        assert report == oracle
        assert report.max_residual.hex() == oracle.max_residual.hex()


def test_chart_consistency_derives_each_generator_image_once(rep3_chart, monkeypatch):
    """27 generators x 6 coordinates derivations, not one per pair; one morphism per ring, no per-pair substitution.

    Each unordered pair of distinct generators reads its table entry once; its mirror is the negated residual.
    """
    calls = Counter()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    patched = (
        (ChartCoord, "derive"),
        (MultiPoly, "substitute"),
        (MultiPoly, "__pow__"),
        (PolyRing, "morphism"),
        (PoissonTable, "entry"),
    )
    for cls, name in patched:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 3)
    # each table entry has degree at most 2 in each variable: one power per (variable, exponent)
    powers = 2 * table.ring.ring.nvars
    assert chart_consistency(rep3_chart, table, mode="exact").ok
    assert calls["derive"] == 27 * 6 and calls["morphism"] == 1 and calls["__pow__"] <= powers
    assert calls["substitute"] == 0 and calls["entry"] == 27 * 26 // 2
    calls.clear()
    # bound, the bivector's 36 entries go through one more morphism
    assert chart_consistency(rep3_chart, induce(a2_alpha_bracket(Fraction(2)), 3), bindings={"A": 2}).ok
    assert calls["derive"] == 27 * 6 and calls["morphism"] == 2 and calls["substitute"] == 0
    calls.clear()
    # the bivector Jacobi check derives each entry once along each coordinate
    assert jacobi_check_bivector(rep3_chart, mode="exact")
    assert calls["derive"] == 6 * 36
