"""Correctness gate: every job's output against the hand-written answers.

The gate reads only the files the program wrote and its exit codes; it does
not import the program.  Polynomials are parsed from the printed strings and
their linear rank is computed here in exact rationals.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")
_RATIONAL = re.compile(r"^\d+(/\d+)?$")


def parse_poly(text: str) -> dict:
    """'2/3*t0*t1^2 - t2 + 5' -> {(('t0', 1), ('t1', 2)): 2/3, (('t2', 1),): -1, (): 5}."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    terms: dict = {}
    signs = [sign] + [1 if s == "+" else -1 for s in parts[1::2]]
    for s, body in zip(signs, parts[0::2]):
        coeff = Fraction(s)
        mono: dict[str, int] = {}
        for factor in body.split("*"):
            if _RATIONAL.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            mono[name] = mono.get(name, 0) + (int(exp) if exp else 1)
        key = tuple(sorted(mono.items()))
        total = terms.get(key, 0) + coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return terms


def rank(rows: list[dict]) -> int:
    """Rank of sparse rows {column: Fraction} by exact Gaussian elimination."""
    pivots: dict = {}
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        while work:
            lead = min(work)
            if lead not in pivots:
                pivots[lead] = work
                break
            piv = pivots[lead]
            f = work[lead] / piv[lead]
            for k, v in piv.items():
                s = work.get(k, 0) - f * v
                if s:
                    work[k] = s
                else:
                    work.pop(k, None)
    return len(pivots)


def constraint_rank(strings: list[str]) -> int:
    return rank([parse_poly(s) for s in strings])


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = dict(m1)
            for v, e in m2:
                mono[v] = mono.get(v, 0) + e
            key = tuple(sorted(mono.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def a2_constraint_is_classical(report: dict, slots: dict) -> bool:
    """The single a2 constraint is proportional to gamma^2 + alpha*beta.

    alpha, beta, gamma are read off the general element sum_k t_k B_k at
    the documented coefficient slots, as linear forms in the t_k.
    """
    if len(report["quadratic_constraints"]) != 1:
        return False
    forms = {name: {} for name in slots}
    for pname, entries in zip(report["parameters"], report["basis"]):
        for i, j, a, b, c in entries:
            for name, slot in slots.items():
                if [i, j, a, b] == slot:
                    forms[name][((pname, 1),)] = Fraction(c)
    target = _poly_add(
        _poly_mul(forms["gamma"], forms["gamma"]), _poly_mul(forms["alpha"], forms["beta"])
    )
    got = parse_poly(report["quadratic_constraints"][0])
    return bool(target) and bool(got) and rank([target, got]) == 1


def antisymmetric(table: dict) -> bool:
    """{u, v} = -{v, u} for every printed entry (zero entries are omitted)."""
    for key, text in table.items():
        u, v = key.split(",")
        other = table.get(f"{v},{u}", "0")
        if _poly_add(parse_poly(text), parse_poly(other)):
            return False
    return True


class Gate:
    """Checks one job result at a time; `errors` lists every disagreement."""

    def __init__(self, expected: dict | None = None):
        self.expected = expected or json.loads(EXPECTED_FILE.read_text())
        self.errors: list[str] = []
        self.outputs: dict[str, dict] = {}

    def check(self, job: dict, result: dict) -> bool:
        """True iff the job ran and its answer is the expected one."""
        try:
            problem = self._problem(job, result)
        except (OSError, KeyError, TypeError, ValueError) as e:
            problem = f"missing or unreadable output: {e!r}"
        if problem:
            self.errors.append(f"{job['id']}: {problem}")
        return not problem

    def _problem(self, job: dict, result: dict) -> str:
        if result.get("error"):
            return f"raised {result['error']}"
        out = json.loads(Path(result["out"]).read_text())
        self.outputs[job["id"]] = out
        rc, exp, kind = result["rc"], job["expect"], job["kind"]
        if kind in ("solve", "solve_modified"):
            want = self.expected[kind][exp["ref"]]
            got = {"nullspace_dim": out["nullspace_dim"],
                   "constraint_rank": constraint_rank(out["quadratic_constraints"])}
            if rc != 0 or got != want or out["modified"] != (kind == "solve_modified"):
                return f"rc={rc} got {got}, want {want}"
            if exp["ref"] == "a2" and kind == "solve" and not a2_constraint_is_classical(
                out, self.expected["a2_param_slots"]
            ):
                return "a2 constraint is not proportional to gamma^2 + alpha*beta"
        elif kind == "hh1":
            want = self.expected["hh1"][exp["ref"]]
            got = [out["dim_der"], out["dim_inner"], out["dim_outer"]]
            if rc != 0 or got != want:
                return f"rc={rc} got {got}, want {want}"
        elif kind == "innerness":
            if out != {"equal": exp["equal"]}:
                return f"got {out}"
        elif kind == "check":
            checks = out["checks"]
            if exp.get("modified"):
                want_ok = True
                checks_ok = out["modified"] and all(checks.values())
            else:
                if "agrees_with_inner" in exp:
                    want_ok = self.outputs[job["bracket_from"]["job"]]["weak_jacobi_condition"]
                else:
                    want_ok = exp["jacobi"]
                checks_ok = checks["skew"] and checks["leibniz"] and checks["jacobi"] == want_ok
            if not checks_ok or rc != (0 if want_ok else 1):
                return f"rc={rc} checks {checks}, want verdict {want_ok}"
        elif kind == "inner":
            weak = out["weak_jacobi_condition"]
            if rc != (0 if weak else 1) or (out["aybe_holds"] and not weak):
                return f"rc={rc} aybe {out['aybe_holds']} weak {weak}"
        elif kind == "induce":
            if rc != 0 or not out["table"]:
                return f"rc={rc}, {len(out['table'])} table entries"
            if exp.get("chart") and not (out["chart"]["consistency"] and out["chart"]["bivector_jacobi"]):
                return f"chart {out['chart']['name']} failed"
            if exp.get("antisymmetric") and not antisymmetric(out["table"]):
                return "induced table is not antisymmetric"
        elif kind == "report":
            failing = [item["name"] for item in out["results"] if not item["ok"]]
            if rc != 1 or failing != [self.expected["report_known_deviation"]]:
                return f"rc={rc} failing {failing}"
        else:
            return f"unknown job kind {kind!r}"
        return ""
