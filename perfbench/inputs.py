"""Seeded input generator and the job lists of the workloads.

Everything the program sees is written here as files and argv: algebra JSON
(T_n and unimodular rebasings), bracket JSON (a2 family points, a2 modified
family points, the alpha bracket), wedge JSON and chart sample seeds.  The
same seed gives byte-identical files and the same argv.

The generator is pure Python with integer/rational arithmetic and does not
import the program, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- algebras -----------------------------------------------------------------


def mul_table(spec: str) -> tuple[list[str], list, dict]:
    """(basis names, unit, {(i, j): {k: c}}) of a2, mat_n, T_n (n < 10) or a '+'-sum.

    These are the algebras the jobs write as JSON, rebased or not.
    """
    if "+" in spec:
        names, unit, mul = [], [], {}
        for part in spec.split("+"):
            pn, pu, pm = mul_table(part)
            off = len(names)
            names += [f"{part}.{s}" for s in pn]
            unit += pu
            for (i, j), row in pm.items():
                mul[(i + off, j + off)] = {k + off: c for k, c in row.items()}
        return names, unit, mul
    if spec == "a2":
        # e1 e1 = e1, e2 e2 = e2, e1 e0 = e0, e0 e2 = e0; unit e1 + e2
        mul = {(1, 1): {1: 1}, (2, 2): {2: 1}, (1, 0): {0: 1}, (0, 2): {0: 1}}
        return ["e0", "e1", "e2"], [0, 1, 1], mul
    kind, n = spec[:-1], int(spec[-1])
    if kind == "mat":
        cells = [(i, j) for i in range(n) for j in range(n)]
    elif kind == "T":
        cells = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        raise ValueError(f"no table for {spec!r}")
    index = {c: k for k, c in enumerate(cells)}
    mul = {}
    for (i, j) in cells:
        for (k, l) in cells:
            if j == k:
                mul[(index[(i, j)], index[(k, l)])] = {index[(i, l)]: 1}
    unit = [1 if i == j else 0 for (i, j) in cells]
    return [f"E{i + 1}{j + 1}" for (i, j) in cells], unit, mul


def algebra_json(name: str, names, unit, mul) -> dict:
    entries = [
        [i, j, k, fmt(c)]
        for (i, j), row in sorted(mul.items())
        for k, c in sorted(row.items())
        if c != 0
    ]
    return {"name": name, "basis": list(names), "unit": [fmt(u) for u in unit], "mul": entries}


def unimodular_pair(n: int, steps: int, rng: random.Random):
    """(P, P^-1): a product of `steps` integer transvections I +- E_ab.

    A fixed number of +-1 transvections keeps the entries small and the
    fill-in of the rebased structure constants comparable across seeds.
    """
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        # P <- (I + s E_ab) P ; Q <- Q (I - s E_ab)
        P[a] = [x + s * y for x, y in zip(P[a], P[b])]
        for row in Q:
            row[b] -= s * row[a]
    return P, Q


def rebase(spec: str, steps: int, rng: random.Random) -> dict:
    """The algebra `spec` written in the basis f = P e for a seeded unimodular P."""
    names, unit, mul = mul_table(spec)
    n = len(names)
    P, Q = unimodular_pair(n, steps, rng)
    new = {}
    for i in range(n):
        for k in range(n):
            acc = [0] * n  # f_i f_k in e-coordinates
            for j, pij in enumerate(P[i]):
                if not pij:
                    continue
                for l, pkl in enumerate(P[k]):
                    if not pkl:
                        continue
                    for m, c in mul.get((j, l), {}).items():
                        acc[m] += pij * pkl * c
            row = {}
            for r in range(n):
                v = sum(acc[m] * Q[m][r] for m in range(n) if acc[m])
                if v:
                    row[r] = v
            if row:
                new[(i, k)] = row
    new_unit = [sum(unit[m] * Q[m][r] for m in range(n)) for r in range(n)]
    return algebra_json(f"{spec}~rebased", [f"f{i}" for i in range(n)], new_unit, new)


# -- brackets and wedges ------------------------------------------------------


def a2_double_point(alpha, beta, gamma) -> dict:
    """Closed form of the general double bracket on a2 (e0 arrow, unit e1 + e2).

    {{e0,e1}} = alpha e0(x)e0 + beta e2(x)e1 + gamma (e0(x)e2 - e1(x)e0),
    {{e0,e0}} = beta (1(x)e0 - e0(x)1), {{e1,e1}} = gamma (e1(x)e2 - e2(x)e1),
    {{e1,e0}} by skew; blocks with e2 follow from {{x, 1}} = 0.  It is a
    double Poisson bracket iff gamma^2 + alpha*beta = 0.
    """
    blocks = {
        (0, 1): [(0, 0, alpha), (2, 1, beta), (0, 2, gamma), (1, 0, -gamma)],
        (0, 0): [(1, 0, beta), (2, 0, beta), (0, 1, -beta), (0, 2, -beta)],
        (1, 1): [(1, 2, gamma), (2, 1, -gamma)],
        (1, 0): [(0, 0, -alpha), (1, 2, -beta), (2, 0, -gamma), (0, 1, gamma)],
    }
    return {"algebra": "a2", "params": [], "coeffs": _a2_fill(blocks)}


def a2_modified_point(al, be, ga, de, io, ka, et) -> dict:
    """Closed form of the seven-parameter modified family on a2."""
    bg = be + ga
    blocks = {
        (0, 0): [(0, 0, al), (1, 0, be), (2, 0, be), (0, 1, ga), (0, 2, ga), (0, 1, -bg), (1, 0, -bg)],
        (0, 1): [(0, 0, de), (0, 1, ka), (0, 2, ka), (1, 1, be), (2, 1, be), (0, 1, -ka), (1, 0, -ka), (1, 1, -be)],
        (1, 0): [(0, 0, io), (1, 1, ga), (1, 2, ga), (1, 1, -ga)],
        (1, 1): [(0, 0, et), (1, 1, ka), (1, 2, ka), (1, 1, -ka)],
    }
    return {"algebra": "a2", "params": [], "coeffs": _a2_fill(blocks), "modified": True}


def _a2_fill(blocks) -> list:
    grid = {}
    for (i, j), terms in blocks.items():
        for a, b, c in terms:
            grid[(i, j, a, b)] = grid.get((i, j, a, b), 0) + Fraction(c)
    # C[i][2] = -C[i][1], C[2][j] = -C[1][j]  (the unit is e1 + e2)
    for (i, j, a, b), c in list(grid.items()):
        if i in (0, 1) and j == 1:
            grid[(i, 2, a, b)] = -c
    for (i, j, a, b), c in list(grid.items()):
        if i == 1:
            grid[(2, j, a, b)] = -c
    return [[i, j, a, b, fmt(c)] for (i, j, a, b), c in sorted(grid.items()) if c != 0]


def a2_on_variety(rng: random.Random):
    """(alpha, beta, gamma) on gamma^2 + alpha*beta = 0."""
    p, q = rng.randint(1, 5), rng.randint(1, 5)
    s = rng.choice((-1, 1))
    # alpha = s p^2, beta = -s q^2, gamma = p q  =>  gamma^2 + alpha beta = 0
    return s * p * p, -s * q * q, p * q


def a2_off_variety(rng: random.Random):
    while True:
        a, b, g = (rng.randint(-5, 5) for _ in range(3))
        if g * g + a * b != 0:
            return a, b, g


#: Wedges of the verify group: (a, b, c) terms c e_a ^ e_b.  A seed picks
#: a global scale and, on Mat_n, a relabelling E_ij -> E_s(i)s(j) by a
#: permutation s, which is an automorphism: the inputs differ per seed but
#: the support of the inner bracket, and so the checker's work, does not.
WEDGES = {
    "mat2": [(0, 1, 1), (1, 2, -2), (0, 3, 3)],
    "T3": [(0, 1, 1), (1, 3, 2), (2, 4, -1), (3, 5, 3)],
    "a2+a2": [(0, 1, 1), (1, 3, -2), (2, 4, 1), (4, 5, 3)],
    "mat3": [(0, 1, 1), (1, 5, 2), (3, 8, -1), (2, 7, 3)],
}


def seeded_wedge(spec: str, rng: random.Random) -> dict:
    terms = WEDGES[spec]
    scale = rng.choice((-3, -2, -1, 1, 2, 3))
    if spec.startswith("mat"):
        n = int(spec[3:])
        s = rng.sample(range(n), n)
        relabel = {i * n + j: s[i] * n + s[j] for i in range(n) for j in range(n)}
        terms = [(relabel[a], relabel[b], c) for a, b, c in terms]
    out = [[min(a, b), max(a, b), str(scale * c * (1 if a < b else -1))] for a, b, c in terms]
    return {"algebra": spec, "terms": sorted(out)}


# -- workloads ----------------------------------------------------------------

REBASE_STEPS = 4

#: The job groups each workload runs, in order.  The checker group rides on
#: the linear one: alone it is a pass of about 10 s, too short to average
#: out the drift in host speed, and it is measured nowhere else.
WORKLOADS = {"classify": ("classify",), "linear-verify": ("linear", "verify")}


def build_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs under `workdir` and return its job list.

    A job is {"id", "kind", "argv" | "api", "expect"}; "argv" goes to
    doublepoisson.cli.main with --format json --out <file> appended.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    groups = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[dict] = []

    def write(name: str, data: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        return str(path)

    def add(kind: str, argv=None, api=None, from_inner=None, **expect):
        job = {"id": f"{len(jobs):02d}-{kind}", "kind": kind, "expect": expect}
        if argv is not None:
            job["argv"] = argv
        else:
            job["api"] = api
        if from_inner is not None:
            # the bracket file is the inner bracket printed by an earlier job
            job["bracket_from"] = {"job": from_inner, "path": argv[argv.index("--bracket") + 1]}
        jobs.append(job)

    t3 = write("T3.json", algebra_json("T3", *mul_table("T3")))
    if "classify" in groups:
        # The ladder of the aim-1 baseline; T3 comes from a JSON file so the
        # loader is on the path; mat2 in a seeded basis is the dense case
        # (same answer, far more fill-in); mat3 is the largest reachable.
        for spec in ("a2", "mat1+mat1", "mat2", "a2+mat1", t3, "mat2+mat1", "a2+a2"):
            add("solve", ["solve", "--algebra", spec], ref=_ref(spec, t3))
        mat2r = write("mat2-rebased.json", rebase("mat2", REBASE_STEPS, rng))
        add("solve", ["solve", "--algebra", mat2r], ref="mat2")
        add("solve", ["solve", "--algebra", "mat3", "--force-large"], ref="mat3")
        for spec in ("a2", "mat2", "a2+mat1", t3, "a2+a2"):
            add("solve_modified", ["solve", "--algebra", spec, "--modified"], ref=_ref(spec, t3))
    if "linear" in groups:
        # hh1 is the derivation system alone (n^3 unknowns) and innerness is
        # solve_linear plus the inner span: no quadratic stage at all.
        t4 = write("T4.json", algebra_json("T4", *mul_table("T4")))
        for spec in ("a2", "mat1+mat1", "mat2", t3, t4):
            add("hh1", ["hh1", "--algebra", spec, "--force-large"], ref=_ref(spec, t3, t4))
        for spec in ("a2+a2", "T3"):
            path = write(f"{spec}-rebased.json", rebase(spec, REBASE_STEPS, rng))
            add("hh1", ["hh1", "--algebra", path, "--force-large"], ref=spec)
        add("hh1", ["hh1", "--algebra", "mat3", "--force-large"], ref="mat3")
        add("hh1", ["hh1", "--algebra", "mat4", "--force-large"], ref="mat4")
        for spec in ("mat2", "mat3"):
            add("innerness", api={"fn": "inner_bracket_span_equality", "algebra": spec}, equal=True)
    if "verify" in groups:
        # Points on and off gamma^2 + alpha*beta = 0 give both verdicts.
        for k in range(4):
            a, b, g = a2_on_variety(rng) if k % 2 == 0 else a2_off_variety(rng)
            path = write(f"a2-point-{k}.json", a2_double_point(a, b, g))
            add("check", ["check", "--algebra", "a2", "--bracket", path],
                jacobi=(g * g + a * b == 0))
        for k in range(3):
            params = [rng.randint(-4, 4) for _ in range(7)]
            path = write(f"a2-modified-{k}.json", a2_modified_point(*params))
            add("check", ["check", "--algebra", "a2", "--bracket", path, "--modified"], modified=True)
        # One wedge per algebra; check then runs on the inner bracket that
        # `inner` printed, so the two verdicts can be compared.
        for spec in ("mat2", t3, "a2+a2", "mat3"):
            w = seeded_wedge(_ref(spec, t3), rng)
            w["algebra"] = spec
            wpath = write(f"wedge-{len(jobs):02d}.json", w)
            add("inner", ["inner", "--algebra", spec, "--wedge", wpath])
            add("check", ["check", "--algebra", spec, "--bracket", str(workdir / f"inner-{len(jobs):02d}.json")],
                from_inner=jobs[-1]["id"], agrees_with_inner=True)
        alpha = rng.choice((-3, -2, -1, 1, 2, 3))
        ab = write("a2-alpha.json", a2_double_point(alpha, 0, 0))
        add("induce", ["induce", "--algebra", "a2", "--bracket", ab, "--n", "2", "--chart", "rep2-a2"], chart=True)
        add("induce", ["induce", "--algebra", "a2", "--bracket", ab, "--n", "3", "--chart", "rep3-a2",
                       "--numeric", "--samples", "100", "--seed", str(rng.randint(0, 10**6))], chart=True)
        mw = seeded_wedge("mat2", rng)
        add("inner", ["inner", "--algebra", "mat2", "--wedge", write("wedge-induce.json", mw)])
        add("induce", ["induce", "--algebra", "mat2", "--bracket", str(workdir / f"inner-{len(jobs):02d}.json"),
                       "--n", "3"], from_inner=jobs[-1]["id"], antisymmetric=True)
        add("report", ["report"], report=True)
    return jobs


def _ref(spec: str, *files: str) -> str:
    """Expected-answer key of an algebra spec (JSON files map to their stem)."""
    return Path(spec).stem if spec in files else spec
