"""Golden paper-reproduction corpus.

Each item reruns one computation against its classical reference value.
One item is expected to FAIL permanently: the modified-bracket
classification on a2 is provably 8-dimensional, while the classical family
has 7 parameters (see README, "Known deviation from the classical
classification").
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import make_a2, make_matrix_algebra, resolve_preset
from .families import (
    A2_DOUBLE_PARAM_SLOTS,
    a2_alpha_bracket,
    a2_alpha_bracket_symbolic,
    a2_double_family,
    a2_modified_family_symbolic,
)
from .inner import (
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    trace_casimir_check,
    weak_jacobi_condition,
)
from .linalg import in_span, rank_of_vectors, subspaces_equal
from .modified import flat_bracket, h0_jacobi_check, h0_skew_check
from .poly import PolyRing
from .repspace import (
    a2_rep2_rational_point,
    chart_consistency,
    eval_table_at_point,
    induce,
    jacobi_check_bivector,
    register_chart_rep2_a2,
    register_chart_rep3_a2,
)
from .solver import (
    inner_bracket_span_equality,
    outer_double_derivation_dim,
    solve,
    solve_modified,
)


def _item(name: str, ok: bool, note: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "note": note}


def _a2_family_quadratic_matches(variety) -> bool:
    """The single quadratic constraint is proportional to gamma^2 + alpha*beta."""
    if len(variety.quadratic_constraints) != 1:
        return False
    constraint = variety.quadratic_constraints[0].to_poly()
    # reparametrize: express (alpha, beta, gamma) as linear forms in t
    general = variety.general_element()
    slots = A2_DOUBLE_PARAM_SLOTS
    forms = {nm: general.coeffs[i][j][a][b] for nm, (i, j, a, b) in slots.items()}
    target = forms["gamma"] * forms["gamma"] + forms["alpha"] * forms["beta"]
    lead = target.leading_monomial()
    lc = target.coefficient(lead)
    cc = constraint.coefficient(lead)
    if lc == 0 or cc == 0:
        return False
    return (constraint * lc - target * cc).is_zero()


def run_golden_report(seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    results: list[dict] = []
    a2 = make_a2()
    e0, e1 = a2.basis_element(0), a2.basis_element(1)
    one = a2.unit_element()

    # --- classification of double brackets on a2 ---
    variety = solve(a2)
    results.append(_item("a2 double brackets form a 3-parameter family", variety.dim == 3))
    display = [
        a2_double_family(Fraction(1), Fraction(0), Fraction(0)).flat_coeffs(),
        a2_double_family(Fraction(0), Fraction(1), Fraction(0)).flat_coeffs(),
        a2_double_family(Fraction(0), Fraction(0), Fraction(1)).flat_coeffs(),
    ]
    results.append(
        _item(
            "a2 family matches the published display after reparametrization",
            subspaces_equal([b.flat_coeffs() for b in variety.nullspace_basis], display),
        )
    )
    results.append(
        _item(
            "a2 Jacobi constraint is proportional to gamma^2 + alpha*beta",
            _a2_family_quadratic_matches(variety),
        )
    )

    # --- inner brackets and AYBE on a2 ---
    r1 = WedgeElement.wedge(e0, e1)
    db1 = inner_bracket(r1)
    expected = a2_alpha_bracket(Fraction(1))
    results.append(_item("inner bracket of e0^e1 equals the alpha-family at alpha=1", db1 == expected))
    r2 = WedgeElement.wedge(one, e0)
    db2 = inner_bracket(r2)
    results.append(
        _item(
            "inner bracket of 1^e0 gives {{e0,e1}} = -2 e0(x)e0",
            db2 == a2_alpha_bracket(Fraction(-2)),
        )
    )
    j2 = aybe_obstruction(r2)
    expected_j = _minus_sym3(a2)
    results.append(_item("J(1^e0) = -(e0,e0,1)-cyclic", j2 == expected_j))
    results.append(_item("J(e0^e1) = 0", aybe_obstruction(r1).is_zero()))
    results.append(
        _item(
            "weak Jacobi condition holds for 1^e0 and e0^e1",
            weak_jacobi_condition(r2)[0] and weak_jacobi_condition(r1)[0],
        )
    )
    gens = [WedgeElement.wedge(one, e0), WedgeElement.wedge(one, e1), WedgeElement.wedge(e0, e1)]
    system = aybe_solve(a2, gens, ("a", "b", "c"), leg_basis=[one, e0, e1])
    ring = PolyRing(("a", "b", "c"))
    got = set()
    for p in system.equations:
        lead = p.leading_monomial()
        got.add(str(p * (Fraction(1) / p.coefficient(lead))))
    wanted_monic = set()
    for text in ("a*c - a^2", "a*b", "a*b - b*c", "b^2"):
        p = ring.parse(text)
        lead = p.leading_monomial()
        wanted_monic.add(str(p * (Fraction(1) / p.coefficient(lead))))
    results.append(
        _item(
            "a2 AYBE system is {ac = a^2, ab = 0, ab = bc, b^2 = 0}",
            got == wanted_monic,
            note=f"emitted {sorted(got)}",
        )
    )
    lam, mu = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
    results.append(
        _item(
            "AYBE solutions (0,0,l) and (m,0,m) check out; (1,1,0) does not",
            system.satisfied_by((0, 0, lam))
            and system.satisfied_by((mu, 0, mu))
            and not system.satisfied_by((1, 1, 0)),
        )
    )

    # --- matrix algebras: all brackets inner ---
    m2 = make_matrix_algebra(2)
    results.append(
        _item(
            "Mat2: solve_linear span equals the inner-bracket span",
            inner_bracket_span_equality(m2),
        )
    )
    results.append(
        _item("Mat2: no outer double derivations", outer_double_derivation_dim(m2)[2] == 0)
    )
    mm = resolve_preset("mat1+mat1")
    results.append(
        _item(
            "mat1+mat1: inner span equality and no outer derivations",
            inner_bracket_span_equality(mm) and outer_double_derivation_dim(mm)[2] == 0,
        )
    )

    # --- representation spaces ---
    db_sym, _ = a2_alpha_bracket_symbolic("A")
    table2 = induce(db_sym, 2)
    chart2 = register_chart_rep2_a2()
    rep2 = chart_consistency(chart2, table2, mode="exact")
    results.append(_item("Rep2(a2): exact chart consistency for the alpha-family", rep2.ok))
    results.append(
        _item(
            "Rep2(a2): bivector is the A*lam^2 block",
            str(chart2.pi_entry(1, 2)) == "A*lam^2" and jacobi_check_bivector(chart2, "exact"),
        )
    )
    table3 = induce(db_sym, 3)
    chart3 = register_chart_rep3_a2()
    rep3 = chart_consistency(chart3, table3, mode="numeric", samples=100, seed=seed, tol=1e-9)
    results.append(
        _item(
            "Rep3(a2): numeric chart consistency (100 samples, tol 1e-9)",
            rep3.ok and jacobi_check_bivector(chart3, "numeric", samples=100, seed=seed),
            note=f"frame: {chart3.frame}; max residual {rep3.max_residual:.2e}",
        )
    )

    # --- trace Casimirs ---
    results.append(
        _item(
            "trace Casimirs: m o {{-,-}}_r = 0 on every basis pair (a2, r = e0^e1)",
            trace_casimir_check(db1),
        )
    )
    point = a2_rep2_rational_point(Fraction(3, 5), Fraction(4, 5), Fraction(2), Fraction(7))
    table_conc = induce(inner_bracket(r1), 2)
    trace_ok = True
    for p in range(2):
        for q in range(2):
            for g in ("e0", "e1", "e2"):
                total = Fraction(0)
                for i in range(2):
                    total += eval_table_at_point(table_conc, f"e0_{i+1}{i+1}", f"{g}_{p+1}{q+1}", point)
                if total != 0:
                    trace_ok = False
    results.append(_item("Rep2(a2): trace of e0 is a Casimir at a rational variety point", trace_ok))

    # --- modified brackets ---
    mb, _ = a2_modified_family_symbolic()
    results.append(
        _item(
            "(mdpb) family: both Leibniz rules hold identically in 7 parameters",
            not mb.check_leibniz_both(),
        )
    )
    results.append(
        _item(
            "(mdpb) family: H0-skew and H0-Jacobi hold identically",
            not h0_skew_check(mb) and not h0_jacobi_check(mb),
        )
    )
    results.append(
        _item("(mdpb) family: flat bracket on A_flat is identically zero", flat_bracket(mb).is_zero())
    )
    mv = solve_modified(a2)
    from .families import a2_modified_family

    fam = []
    for k in range(7):
        args = [Fraction(0)] * 7
        args[k] = Fraction(1)
        fam.append(a2_modified_family(*args).flat_coeffs())
    null = [b.flat_coeffs() for b in mv.nullspace_basis]
    results.append(
        _item(
            "(mdpb) family is contained in the computed modified solution space",
            rank_of_vectors(fam) == 7 and all(in_span(null, v) for v in fam),
        )
    )
    results.append(
        _item(
            "a2 modified classification matches the published 7-parameter count",
            mv.dim == 7,
            note=(
                f"computed dimension {mv.dim}: the classical 7-parameter family is provably "
                "incomplete (the gamma-direction double bracket is itself a "
                "modified bracket outside it); see README"
            ),
        )
    )
    results.append(
        _item(
            "a2 modified classification has no quadratic constraints",
            not mv.quadratic_constraints,
        )
    )
    return results


def _minus_sym3(a2):
    """-(e0(x)e0(x)1 + e0(x)1(x)e0 + 1(x)e0(x)e0) on a2."""
    from .tensors import tensor3_from_terms

    terms: dict = {}
    for u, c in enumerate(a2.unit):
        for key in ((0, 0, u), (0, u, 0), (u, 0, 0)):
            terms[key] = terms.get(key, 0) - c
    return tensor3_from_terms(a2, terms)
