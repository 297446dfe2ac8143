"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 8's dimension clause is implemented exactly as stated and is an
expected failure: the classical 7-parameter modified-bracket family on the
upper-triangular algebra is provably incomplete (see README, "Known deviation
from the classical classification", and tests/test_modified.py); the computed
dimension is 8.
"""

import random
import time
from fractions import Fraction

import pytest

from doublepoisson.algebra import make_a2, make_matrix_algebra, resolve_preset
from doublepoisson.families import (
    A2_DOUBLE_PARAM_SLOTS,
    a2_alpha_bracket,
    a2_alpha_bracket_symbolic,
    a2_double_family,
    a2_modified_family,
    a2_modified_family_symbolic,
)
from doublepoisson.inner import (
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    trace_casimir_check,
    weak_jacobi_condition,
    wedge_basis,
)
from doublepoisson.linalg import in_span, rank_of_vectors, subspaces_equal
from doublepoisson.modified import flat_bracket, h0_jacobi_check, h0_skew_check
from doublepoisson.poly import PolyRing
from doublepoisson.repspace import (
    a2_rep2_rational_point,
    chart_consistency,
    eval_table_at_point,
    induce,
    jacobi_check_bivector,
    matrix_algebra_rep_point,
    register_chart_rep2_a2,
    register_chart_rep3_a2,
)
from doublepoisson.solver import (
    inner_bracket_span_equality,
    jacobi_constraints,
    outer_double_derivation_dim,
    solve_linear,
    solve_modified,
)
from doublepoisson.tensors import tensor3_from_terms


def _report(criterion: str, ok: bool, elapsed: float, budget: float, note: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({note})" if note else ""
    print(f"[{status}] criterion {criterion}: {elapsed:.3f}s (budget {budget:g}s){extra}")
    assert ok, f"criterion {criterion} failed{extra}"
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget:g}s budget ({elapsed:.3f}s)"


def test_criterion_1_a2_classification():
    started = time.time()
    variety = jacobi_constraints(solve_linear(make_a2()))
    ok = variety.dim == 3
    # reparametrize to (alpha, beta, gamma) via the documented coefficient
    # slots and compare the general element term for term
    general = variety.general_element()
    forms = {
        nm: general.coeffs[i][j][a][b] for nm, (i, j, a, b) in A2_DOUBLE_PARAM_SLOTS.items()
    }
    display = a2_double_family(
        forms["alpha"], forms["beta"], forms["gamma"], params=variety.parameter_names
    )
    ok = ok and display == general
    # invertibility of the reparametrization
    mat = [
        [forms[nm].coefficient(tuple(1 if k == c else 0 for k in range(3))) for c in range(3)]
        for nm in ("alpha", "beta", "gamma")
    ]
    from doublepoisson.linalg import invert_matrix

    invert_matrix(mat)
    # single quadratic constraint, proportional to gamma^2 + alpha*beta
    ok = ok and len(variety.quadratic_constraints) == 1
    conic = forms["gamma"] * forms["gamma"] + forms["alpha"] * forms["beta"]
    constraint = variety.quadratic_constraints[0]
    lead = conic.leading_monomial()
    ratio = constraint.coefficient(lead) / conic.coefficient(lead)
    ok = ok and ratio != 0 and (constraint - conic * ratio).is_zero()
    _report("1 (a2 classification)", ok, time.time() - started, 1.0)


def test_criterion_2_inner_reproduction():
    started = time.time()
    a2 = make_a2()
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    db1 = inner_bracket(WedgeElement.wedge(e0, e1))
    ok = db1 == a2_alpha_bracket(Fraction(1))  # {{e0,e1}} = e0(x)e0, rest zero
    db2 = inner_bracket(WedgeElement.wedge(one, e0))
    ok = ok and db2 == a2_alpha_bracket(Fraction(-2))
    expected_j = tensor3_from_terms(
        a2,
        {key: -c for u, c in enumerate(a2.unit) if c != 0
         for key in ((0, 0, u), (0, u, 0), (u, 0, 0))},
    )
    ok = ok and aybe_obstruction(WedgeElement.wedge(one, e0)) == expected_j
    ok = ok and weak_jacobi_condition(WedgeElement.wedge(one, e0))[0]
    ok = ok and weak_jacobi_condition(WedgeElement.wedge(e0, e1))[0]
    _report("2 (inner reproduction)", ok, time.time() - started, 1.0)


def test_criterion_3_aybe_scan():
    started = time.time()
    a2 = make_a2()
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()
    gens = [WedgeElement.wedge(one, e0), WedgeElement.wedge(one, e1), WedgeElement.wedge(e0, e1)]
    system = aybe_solve(a2, gens, ("a", "b", "c"), leg_basis=[one, e0, e1])
    ring = PolyRing(("a", "b", "c"))
    monic = set()
    for p in system.equations:
        monic.add(str(p * (Fraction(1) / p.coefficient(p.leading_monomial()))))
    wanted = set()
    for text in ("a*c - a^2", "a*b", "a*b - b*c", "b^2"):
        q = ring.parse(text)
        wanted.add(str(q * (Fraction(1) / q.coefficient(q.leading_monomial()))))
    ok = monic == wanted
    ok = ok and system.satisfied_by((0, 0, Fraction(9)))
    ok = ok and system.satisfied_by((Fraction(4), 0, Fraction(4)))
    ok = ok and not system.satisfied_by((1, 1, 0))
    _report("3 (AYBE scan)", ok, time.time() - started, 1.0)


def test_criterion_4_matrix_innerness():
    started = time.time()
    m2 = make_matrix_algebra(2)
    ok = inner_bracket_span_equality(m2)
    ok = ok and outer_double_derivation_dim(m2)[2] == 0
    mm = resolve_preset("mat1+mat1")
    ok = ok and inner_bracket_span_equality(mm)
    ok = ok and outer_double_derivation_dim(mm)[2] == 0
    _report("4 (matrix innerness)", ok, time.time() - started, 60.0)


def test_criterion_5_rep2_bivector():
    started = time.time()
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 2)
    chart = register_chart_rep2_a2()
    report = chart_consistency(chart, table, mode="exact")
    # all generator pairs checked exactly (144 ordered pairs, a superset of
    # the 18 mixed {(e0)_ij, (e1)_pq} pairs)
    ok = report.ok
    R = chart.ring
    pi_ok = (
        str(chart.pi_entry(1, 2)) == "A*lam^2"
        and str(chart.pi_entry(2, 1)) == "-A*lam^2"
        and all(
            chart.pi_entry(p, q).is_zero()
            for p in range(3)
            for q in range(3)
            if (p, q) not in ((1, 2), (2, 1))
        )
    )
    ok = ok and pi_ok
    _report("5 (Rep2 bivector, exact)", ok, time.time() - started, 5.0)


def test_criterion_6_rep3_bivector():
    started = time.time()
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 3)
    chart = register_chart_rep3_a2()
    report = chart_consistency(chart, table, mode="numeric", samples=100, seed=7, tol=1e-9)
    ok = report.ok and report.max_residual <= 1e-9
    ok = ok and jacobi_check_bivector(chart, mode="numeric", samples=100, seed=7, tol=1e-9)
    ok = ok and bool(chart.frame)
    _report(
        "6 (Rep3 bivector, numeric)",
        ok,
        time.time() - started,
        10.0,
        note=f"frame: {chart.frame}; max residual {report.max_residual:.2e}",
    )


def test_criterion_7_trace_casimirs():
    started = time.time()
    a2 = make_a2()
    m2 = make_matrix_algebra(2)
    ok = trace_casimir_check(WedgeElement.wedge(a2.basis_element(0), a2.basis_element(1)))
    # exact evaluation at rational variety points, all inner brackets
    points2 = [a2_rep2_rational_point(Fraction(3, 5), Fraction(4, 5), Fraction(2), Fraction(7))]
    for w in wedge_basis(a2):
        table = induce(inner_bracket(w), 2)
        for point in points2:
            for x in ("e0", "e1", "e2"):
                for g in ("e0", "e1", "e2"):
                    for p in (1, 2):
                        for q in (1, 2):
                            total = sum(
                                eval_table_at_point(table, f"{x}_{i}{i}", f"{g}_{p}{q}", point)
                                for i in (1, 2)
                            )
                            ok = ok and total == 0
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
                        ok = ok and total == 0
    _report("7 (trace Casimirs)", ok, time.time() - started, 5.0)


def test_criterion_8_modified_family_checks():
    """The green clauses of criterion 8: the (mdpb) family itself."""
    started = time.time()
    mb, _ = a2_modified_family_symbolic()
    ok = not mb.check_leibniz_both()
    ok = ok and not h0_skew_check(mb)
    ok = ok and not h0_jacobi_check(mb)
    table = flat_bracket(mb)
    ok = ok and table.is_zero() and len(table.basis_indices) == 2
    # the family sits inside the computed solution space (7 of its 8 dims)
    variety = solve_modified(make_a2())
    null = [b.flat_coeffs() for b in variety.nullspace_basis]
    fam = []
    for k in range(7):
        args = [Fraction(0)] * 7
        args[k] = Fraction(1)
        fam.append(a2_modified_family(*args).flat_coeffs())
    ok = ok and rank_of_vectors(fam) == 7 and all(in_span(null, v) for v in fam)
    ok = ok and variety.quadratic_constraints == ()
    _report("8 (modified family checks)", ok, time.time() - started, 5.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented defect of the classical classification: the 7-parameter "
        "family (mdpb) is incomplete -- the gamma-direction double bracket is a "
        "modified double Poisson bracket outside it, so the true classification "
        "is 8-dimensional, not 7 (see README)"
    ),
)
def test_criterion_8_published_dimension():
    """Criterion 8 as stated: solve --modified returns a 7-dimensional family
    matching (mdpb) after reparametrization.  Expected to fail; see above."""
    started = time.time()
    variety = solve_modified(make_a2())
    fam = []
    for k in range(7):
        args = [Fraction(0)] * 7
        args[k] = Fraction(1)
        fam.append(a2_modified_family(*args).flat_coeffs())
    null = [b.flat_coeffs() for b in variety.nullspace_basis]
    ok = variety.dim == 7 and subspaces_equal(null, fam)
    _report(
        "8 (published modified dimension)",
        ok,
        time.time() - started,
        5.0,
        note=f"computed dimension {variety.dim}; published count 7 is provably incomplete",
    )


def test_criterion_9_property_suites():
    started = time.time()
    rng = random.Random(0)
    a2 = make_a2()
    m2 = make_matrix_algebra(2)

    # (a) implication chain AYBE => weak => double Jacobi, >= 200 wedges
    cases = 0
    for alg, count in ((a2, 170), (m2, 40)):
        n = alg.dim
        for _ in range(count):
            grid = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = Fraction(rng.randint(-3, 3))
                    grid[i][j] = c
                    grid[j][i] = -c
            r = WedgeElement.of(alg, grid)
            weak_ok, _ = weak_jacobi_condition(r)
            if aybe_obstruction(r).is_zero():
                assert weak_ok
            assert weak_ok == (not inner_bracket(r).check_jacobi(collect=False))
            cases += 1
    assert cases >= 200

    # (b) PoissonTable biderivation + antisymmetry, >= 200 random polynomials
    db, _ = a2_alpha_bracket_symbolic("A")
    table = induce(db, 2)
    R = table.ring.ring

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
        assert (table.poisson_eval(f, g) + table.poisson_eval(g, f)).is_zero()
        lhs = table.poisson_eval(f, g * h)
        rhs = g * table.poisson_eval(f, h) + table.poisson_eval(f, g) * h
        assert (lhs - rhs).is_zero()

    # (c) field/ring axioms, >= 1000 exact cases
    for _ in range(1000):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == 0
        if b != 0:
            assert (a / b) * b == a
    _report("9 (property suites)", True, time.time() - started, 60.0)
