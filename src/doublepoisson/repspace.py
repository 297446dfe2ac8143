"""Induced Poisson structures on coordinate rings of representation spaces.

For a bracket {{-,-}} on A and a representation size n, the coordinate ring
O(Rep_n(A)) carries the generators x[g][i][j] ("entry (i,j) of the matrix of
basis element g") and the induced bracket

    {a_ij, b_pq} = {{a,b}}'_pj * {{a,b}}''_iq.

Verification charts parametrize the variety:

* Rep2 of a2 -- exact, over Q[c,s,lam,mu] / (c^2 + s^2 - 1), with the angle
  coordinate theta acting through the derivation c -> -s, s -> c.
* Rep3 of a2 -- the rank-1 branch in spherical coordinates; residuals are
  exact polynomials evaluated numerically at seeded on-variety samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FDAlgebra, make_a2
from .brackets import CoefficientBracket
from .poly import MultiPoly, PolyRing, RelationSet


class ChartError(ValueError):
    """Raised for malformed or mismatched verification charts."""


def coord_var_name(basis_name: str, i: int, j: int) -> str:
    return f"{basis_name}_{i + 1}{j + 1}"


@dataclass(frozen=True)
class CoordRing:
    """Generators and defining relations of O(Rep_n(A)), plus bracket parameters."""

    algebra: FDAlgebra
    n: int
    params: tuple[str, ...]
    ring: PolyRing

    @staticmethod
    def build(algebra: FDAlgebra, n: int, params: tuple[str, ...] = ()) -> CoordRing:
        names = list(params)
        for g in algebra.basis_names:
            for i in range(n):
                for j in range(n):
                    names.append(coord_var_name(g, i, j))
        return CoordRing(algebra, n, tuple(params), PolyRing(names))

    def var(self, g: int, i: int, j: int) -> MultiPoly:
        return self.ring.var(coord_var_name(self.algebra.basis_names[g], i, j))

    def coordinate_names(self) -> list[str]:
        return [
            coord_var_name(g, i, j)
            for g in self.algebra.basis_names
            for i in range(self.n)
            for j in range(self.n)
        ]

    def generic_matrix(self, g: int) -> list[list[MultiPoly]]:
        return [[self.var(g, i, j) for j in range(self.n)] for i in range(self.n)]

    def relation_polys(self) -> list[MultiPoly]:
        """Entries of X_g X_h - sum mul[g][h][k] X_k and of sum unit_g X_g - Id."""
        alg = self.algebra
        n = self.n
        out = []
        mats = [self.generic_matrix(g) for g in range(alg.dim)]
        for g in range(alg.dim):
            for h in range(alg.dim):
                for i in range(n):
                    for j in range(n):
                        p = self.ring.zero()
                        for k in range(n):
                            p = p + mats[g][i][k] * mats[h][k][j]
                        for m in range(alg.dim):
                            c = alg.mul[g][h][m]
                            if c != 0:
                                p = p - mats[m][i][j] * c
                        out.append(p)
        for i in range(n):
            for j in range(n):
                p = self.ring.zero()
                for g in range(alg.dim):
                    c = alg.unit[g]
                    if c != 0:
                        p = p + mats[g][i][j] * c
                if i == j:
                    p = p - 1
                out.append(p)
        return out


@dataclass(frozen=True)
class PoissonTable:
    """Pairwise generator brackets on a coordinate ring (antisymmetric)."""

    ring: CoordRing
    table: dict

    def entry(self, u: str, v: str) -> MultiPoly:
        return self.table[(u, v)]

    def check_antisymmetry(self) -> bool:
        """Each entry's term map is the negated term map of its transpose's."""
        for (u, v), p in self.table.items():
            q = self.table[(v, u)].terms
            if len(p.terms) != len(q) or any(q.get(e) != -c for e, c in p.terms.items()):
                return False
        return True

    def poisson_eval(self, f: MultiPoly, g: MultiPoly) -> MultiPoly:
        """{f, g} = sum table[(u,v)] df/du dg/dv (biderivation extension)."""
        if f.ring != self.ring.ring or g.ring != self.ring.ring:
            raise ChartError("polynomials must live in the table's coordinate ring")
        names = self.ring.coordinate_names()
        out = self.ring.ring.zero()
        dfs = {u: f.partial(u) for u in names}
        dgs = {v: g.partial(v) for v in names}
        for u in names:
            if dfs[u].is_zero():
                continue
            for v in names:
                if dgs[v].is_zero():
                    continue
                t = self.table[(u, v)]
                if not t.is_zero():
                    out = out + t * dfs[u] * dgs[v]
        return out


def induce(db: CoefficientBracket, n: int) -> PoissonTable:
    """Induced Poisson table: {a_ij, b_pq} = sum_C C[a][b][u][v] (e_u)_pj (e_v)_iq.

    Each entry's term map is written directly: the bracket term (u, v, c)
    of {{a, b}} gives c times the monomial x_{u,pj} x_{v,iq}, with a
    parametric c embedded in the coordinate ring once per term.  The input
    bracket must be skew (the contract of a double bracket); the resulting
    table is certified antisymmetric before it is returned.
    """
    alg = db.algebra
    ring = CoordRing.build(alg, n, tuple(db.params))
    R = ring.ring
    offset = len(db.params)  # the coordinates follow the parameters, (g, i, j) ascending
    names = [[[coord_var_name(g, i, j) for j in range(n)] for i in range(n)] for g in alg.basis_names]

    def embedded(c) -> list:
        """c as [(exponent vector over R, coefficient)]; its variables must be bracket parameters."""
        if not isinstance(c, MultiPoly):
            return [((0,) * R.nvars, c)]
        for name in c.ring.names:
            if name not in db.params:
                raise ValueError(f"coefficient variable {name!r} is not a bracket parameter")
        positions = [R.index(name) for name in c.ring.names]
        out = []
        for e, coeff in c.terms.items():
            exps = [0] * R.nvars
            for k, power in zip(positions, e):
                exps[k] = power
            out.append((exps, coeff))
        return out

    table: dict = {}
    for ga in range(alg.dim):
        for gb in range(alg.dim):
            terms = [(u, v, embedded(c)) for u, v, c in db.terms[ga][gb]]
            for i in range(n):
                for j in range(n):
                    for p in range(n):
                        for q in range(n):
                            acc: dict = {}
                            for u, v, monomials in terms:
                                left = offset + (u * n + p) * n + j  # x_{u,pj}
                                right = offset + (v * n + i) * n + q  # x_{v,iq}
                                for e, coeff in monomials:
                                    exps = list(e)
                                    exps[left] += 1
                                    exps[right] += 1
                                    key = tuple(exps)
                                    acc[key] = acc.get(key, 0) + coeff
                            table[(names[ga][i][j], names[gb][p][q])] = MultiPoly(R, acc)
    result = PoissonTable(ring, table)
    if not result.check_antisymmetry():
        raise ChartError("induced table is not antisymmetric; the bracket is not skew")
    return result


# -- charts ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChartCoord:
    """One chart coordinate and how to differentiate along it.

    kind "plain": the coordinate is the ring variable ``name``.
    kind "angle": the coordinate enters through cos/sin variables, and
    d/d(coord) is the derivation cos -> -sin, sin -> cos.
    """

    name: str
    kind: str
    cos_var: str | None = None
    sin_var: str | None = None

    def derive(self, p: MultiPoly) -> MultiPoly:
        if self.kind == "plain":
            return p.partial(self.name)
        dc = p.partial(self.cos_var)
        ds = p.partial(self.sin_var)
        ring = p.ring
        return dc * (-ring.var(self.sin_var)) + ds * ring.var(self.cos_var)


@dataclass(frozen=True)
class ParamChart:
    """A parametrization of (a branch of) Rep_n(A) plus a candidate bivector."""

    name: str
    algebra: FDAlgebra
    n: int
    ring: PolyRing
    relations: RelationSet | None
    coords: tuple[ChartCoord, ...]
    substitution: dict
    bivector: tuple
    params: tuple[str, ...]
    frame: str = ""

    def nf(self, p: MultiPoly) -> MultiPoly:
        return self.relations.normal_form(p) if self.relations else p

    def coordinate(self, name: str) -> ChartCoord:
        for c in self.coords:
            if c.name == name:
                return c
        raise ChartError(f"no chart coordinate {name!r}")

    def pi_entry(self, a: int, b: int) -> MultiPoly:
        return self.bivector[a][b]

    def substitute_poly(self, p: MultiPoly, bindings: dict | None = None) -> MultiPoly:
        """Map a coordinate-ring polynomial into the chart ring."""
        mapping = {}
        for v in p.ring.names:
            if v in self.substitution:
                mapping[v] = self.substitution[v]
            elif bindings and v in bindings:
                mapping[v] = self.ring.const(bindings[v])
            elif v in self.ring.names:
                mapping[v] = self.ring.var(v)
            else:
                raise ChartError(f"no chart image for variable {v!r}")
        return p.substitute(mapping, self.ring)

    def bound_bivector(self, bindings: dict | None):
        if not bindings:
            return self.bivector
        mapping = {}
        for v in self.ring.names:
            if v in bindings:
                mapping[v] = self.ring.const(bindings[v])
            else:
                mapping[v] = self.ring.var(v)
        return tuple(
            tuple(entry.substitute(mapping, self.ring) for entry in row)
            for row in self.bivector
        )

    def sample_points(self, count: int, seed: int, bindings: dict | None = None) -> list[dict]:
        """Seeded on-variety samples: every chart ring variable gets a float."""
        rng = random.Random(seed)
        points = []
        handled: set[str] = set()
        for c in self.coords:
            if c.kind == "angle":
                handled.update((c.cos_var, c.sin_var))
            else:
                handled.add(c.name)
        for _ in range(count):
            values: dict[str, float] = {}
            for c in self.coords:
                if c.kind == "angle":
                    angle = rng.uniform(0.0, 2.0 * math.pi)
                    values[c.cos_var] = math.cos(angle)
                    values[c.sin_var] = math.sin(angle)
                else:
                    values[c.name] = rng.uniform(-2.0, 2.0)
            for v in self.ring.names:
                if v in values or v in handled:
                    continue
                if bindings and v in bindings:
                    values[v] = float(bindings[v])
                else:
                    values[v] = rng.uniform(-2.0, 2.0)
            points.append(values)
        return points


def _poly_arrays(p: MultiPoly, var_order: list[str]):
    import numpy as np

    idx = [p.ring.index(v) for v in var_order]
    exps = np.array([[e[i] for i in idx] for e in p.terms] or np.zeros((0, len(idx))), dtype=np.int64)
    coeffs = np.array([float(c) for c in p.terms.values()] or [], dtype=np.float64)
    return exps, coeffs


def _eval_poly_at(p: MultiPoly, samples: np.ndarray, var_order: list[str]) -> np.ndarray:
    """Evaluate p at every row of ``samples`` (columns ordered by var_order)."""
    import numpy as np

    exps, coeffs = _poly_arrays(p, var_order)
    if coeffs.size == 0:
        return np.zeros(samples.shape[0])
    powers = samples[:, None, :] ** exps[None, :, :]
    return powers.prod(axis=2) @ coeffs


@dataclass(frozen=True)
class ChartReport:
    chart: str
    mode: str
    ok: bool
    max_residual: float
    failures: tuple
    frame: str = ""


def chart_consistency(
    chart: ParamChart,
    table: PoissonTable,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    bindings: dict | None = None,
) -> ChartReport:
    """Does the chart bivector reproduce the induced table on this chart?

    Exact mode: for every generator pair (u, v),
        nf( subst(table[(u,v)]) - sum_pq pi[p][q] D_p(subst u) D_q(subst v) ) = 0
    modulo the chart relations.  Numeric mode checks the same identity at
    seeded on-variety sample points within ``tol``.
    """
    if table.ring.algebra != chart.algebra or table.ring.n != chart.n:
        raise ChartError(
            f"chart {chart.name} is for {chart.algebra.name} at n={chart.n}"
        )
    names = table.ring.coordinate_names()
    pi = chart.bound_bivector(bindings)
    ncoords = len(chart.coords)
    pi_nonzero = [
        (p, q)
        for p in range(ncoords)
        for q in range(ncoords)
        if not pi[p][q].is_zero()
    ]
    subst_images = {u: chart.substitute_poly(table.ring.ring.var(u), bindings) for u in names}
    derivatives = {
        u: [chart.coords[k].derive(img) for k in range(ncoords)]
        for u, img in subst_images.items()
    }

    if mode == "exact":
        failures = []
        for u in names:
            for v in names:
                lhs = chart.substitute_poly(table.entry(u, v), bindings)
                rhs = chart.ring.zero()
                for p, q in pi_nonzero:
                    rhs = rhs + pi[p][q] * derivatives[u][p] * derivatives[v][q]
                residual = chart.nf(lhs - rhs)
                if not residual.is_zero():
                    failures.append(((u, v), residual))
        return ChartReport(chart.name, "exact", not failures, 0.0, tuple(failures), chart.frame)

    if mode != "numeric":
        raise ChartError(f"unknown mode {mode!r}")

    import numpy as np

    points = chart.sample_points(samples, seed, bindings)
    var_order = list(chart.ring.names)
    sample_matrix = np.array([[pt[v] for v in var_order] for pt in points])
    img_vals = {u: _eval_poly_at(img, sample_matrix, var_order) for u, img in subst_images.items()}
    deriv_vals = {
        u: [_eval_poly_at(d, sample_matrix, var_order) for d in derivs]
        for u, derivs in derivatives.items()
    }
    pi_vals = {pq: _eval_poly_at(pi[pq[0]][pq[1]], sample_matrix, var_order) for pq in pi_nonzero}

    # Evaluate table entries by substituting the sampled ambient coordinates.
    ambient_order = list(table.ring.ring.names)
    ambient_vals = np.zeros((sample_matrix.shape[0], len(ambient_order)))
    for col, v in enumerate(ambient_order):
        if v in subst_images:
            ambient_vals[:, col] = img_vals[v]
        elif bindings and v in bindings:
            ambient_vals[:, col] = float(bindings[v])
        elif v in var_order:
            ambient_vals[:, col] = sample_matrix[:, var_order.index(v)]
        else:
            raise ChartError(f"no sample value for table variable {v!r}")

    max_residual = 0.0
    failures = []
    for u in names:
        for v in names:
            lhs = _eval_poly_at(table.entry(u, v), ambient_vals, ambient_order)
            rhs = np.zeros_like(lhs)
            for p, q in pi_nonzero:
                rhs = rhs + pi_vals[(p, q)] * deriv_vals[u][p] * deriv_vals[v][q]
            worst = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
            max_residual = max(max_residual, worst)
            if worst > tol:
                failures.append(((u, v), worst))
    return ChartReport(
        chart.name, "numeric", not failures, max_residual, tuple(failures), chart.frame
    )


def chart_relations_check(
    chart: ParamChart,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
):
    """All CoordRing relation polynomials must vanish under the substitution."""
    ring = CoordRing.build(chart.algebra, chart.n)
    rels = ring.relation_polys()
    if mode == "exact":
        bad = []
        for p in rels:
            image = chart.nf(chart.substitute_poly(p))
            if not image.is_zero():
                bad.append(image)
        return (not bad, 0.0 if not bad else math.inf)
    import numpy as np

    points = chart.sample_points(samples, seed)
    var_order = list(chart.ring.names)
    sample_matrix = np.array([[pt[v] for v in var_order] for pt in points])
    worst = 0.0
    for p in rels:
        image = chart.substitute_poly(p)
        vals = _eval_poly_at(image, sample_matrix, var_order)
        if vals.size:
            worst = max(worst, float(np.max(np.abs(vals))))
    return (worst <= tol, worst)


def jacobi_check_bivector(
    chart: ParamChart,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    bindings: dict | None = None,
) -> bool:
    """Schouten self-bracket of the chart bivector vanishes (exact or sampled).

    Components: sum_l pi[l][a] D_l pi[b][c] + pi[l][b] D_l pi[c][a]
                        + pi[l][c] D_l pi[a][b]  for a < b < c.
    """
    pi = chart.bound_bivector(bindings)
    ncoords = len(chart.coords)
    components = []
    for a in range(ncoords):
        for b in range(a + 1, ncoords):
            for c in range(b + 1, ncoords):
                comp = chart.ring.zero()
                for l in range(ncoords):
                    comp = comp + pi[l][a] * chart.coords[l].derive(pi[b][c])
                    comp = comp + pi[l][b] * chart.coords[l].derive(pi[c][a])
                    comp = comp + pi[l][c] * chart.coords[l].derive(pi[a][b])
                components.append(comp)
    if mode == "exact":
        return all(chart.nf(comp).is_zero() for comp in components)
    import numpy as np

    points = chart.sample_points(samples, seed, bindings)
    var_order = list(chart.ring.names)
    sample_matrix = np.array([[pt[v] for v in var_order] for pt in points])
    for comp in components:
        vals = _eval_poly_at(comp, sample_matrix, var_order)
        if vals.size and float(np.max(np.abs(vals))) > tol:
            return False
    return True


# -- the two a2 verification charts ----------------------------------------------


def register_chart_rep2_a2(param: str = "A") -> ParamChart:
    """Rep2(a2): u=(c,s), v=lam(-s,c), w=(c-mu*s, s+mu*c) on c^2+s^2=1.

    rho(e0) = u v^T, rho(e1) = u w^T, rho(e2) = Id - rho(e1); the bivector in
    coordinates (theta, lam, mu) has the single block {lam, mu} = A lam^2.
    """
    alg = make_a2()
    ring = PolyRing((param, "c", "s", "lam", "mu"))
    A, c, s, lam, mu = (ring.var(nm) for nm in ring.names)
    rels = RelationSet.of(ring, [(c * c, ring.one() - s * s)])
    u = [c, s]
    v = [-lam * s, lam * c]
    w = [c - mu * s, s + mu * c]
    subst = {}
    for i in range(2):
        for j in range(2):
            subst[coord_var_name("e0", i, j)] = u[i] * v[j]
            subst[coord_var_name("e1", i, j)] = u[i] * w[j]
            subst[coord_var_name("e2", i, j)] = (ring.one() if i == j else ring.zero()) - u[i] * w[j]
    coords = (
        ChartCoord("theta", "angle", "c", "s"),
        ChartCoord("lam", "plain"),
        ChartCoord("mu", "plain"),
    )
    z = ring.zero()
    pi = (
        (z, z, z),
        (z, z, A * lam * lam),
        (z, -(A * lam * lam), z),
    )
    return ParamChart(
        name="rep2-a2",
        algebra=alg,
        n=2,
        ring=ring,
        relations=rels,
        coords=coords,
        substitution=subst,
        bivector=pi,
        params=(param,),
    )


REP3_FRAME_STANDARD = (
    "f1 = (-sin(theta), cos(theta), 0), "
    "f2 = (-cos(theta)sin(phi), -sin(theta)sin(phi), cos(phi)) "
    "(orthonormal tangent frame of S^2 in spherical coordinates)"
)


def register_chart_rep3_a2(frame_choice: str = "standard", param: str = "A") -> ParamChart:
    """Rep3(a2), rank-1 branch: u on S^2, y = ca f1 + cb f2, z = u + cg f1 + cd f2.

    Chart coordinates are (theta, phi, ca, cb, cg, cd); ca..cd are the plane
    coordinates, renamed so they cannot clash with the bracket parameters.
    The bivector blocks are {ca,cg} = A ca^2, {ca,cd} = {cb,cg} = A ca cb,
    {cb,cd} = A cb^2.
    """
    if frame_choice != "standard":
        raise ChartError(f"unknown frame choice {frame_choice!r}")
    alg = make_a2()
    ring = PolyRing((param, "ct", "st", "cp", "sp", "ca", "cb", "cg", "cd"))
    A, ct, st, cp, sp, ca, cb, cg, cd = (ring.var(nm) for nm in ring.names)
    rels = RelationSet.of(
        ring,
        [(ct * ct, ring.one() - st * st), (cp * cp, ring.one() - sp * sp)],
    )
    x = [ct * cp, st * cp, sp]
    f1 = [-st, ct, ring.zero()]
    f2 = [-ct * sp, -st * sp, cp]
    y = [ca * f1[k] + cb * f2[k] for k in range(3)]
    z = [x[k] + cg * f1[k] + cd * f2[k] for k in range(3)]
    subst = {}
    for i in range(3):
        for j in range(3):
            subst[coord_var_name("e0", i, j)] = x[i] * y[j]
            subst[coord_var_name("e1", i, j)] = x[i] * z[j]
            subst[coord_var_name("e2", i, j)] = (
                ring.one() if i == j else ring.zero()
            ) - x[i] * z[j]
    coords = (
        ChartCoord("theta", "angle", "ct", "st"),
        ChartCoord("phi", "angle", "cp", "sp"),
        ChartCoord("ca", "plain"),
        ChartCoord("cb", "plain"),
        ChartCoord("cg", "plain"),
        ChartCoord("cd", "plain"),
    )
    z0 = ring.zero()
    blocks = {
        (2, 4): A * ca * ca,
        (2, 5): A * ca * cb,
        (3, 4): A * ca * cb,
        (3, 5): A * cb * cb,
    }
    grid = [[z0 for _ in range(6)] for _ in range(6)]
    for (p, q), val in blocks.items():
        grid[p][q] = val
        grid[q][p] = -val
    return ParamChart(
        name="rep3-a2",
        algebra=alg,
        n=3,
        ring=ring,
        relations=rels,
        coords=coords,
        substitution=subst,
        bivector=tuple(tuple(row) for row in grid),
        params=(param,),
        frame=REP3_FRAME_STANDARD,
    )


CHART_REGISTRY = {
    "rep2-a2": register_chart_rep2_a2,
    "rep3-a2": register_chart_rep3_a2,
}


def get_chart(name: str) -> ParamChart:
    if name not in CHART_REGISTRY:
        raise ChartError(f"unknown chart {name!r} (available: {sorted(CHART_REGISTRY)})")
    return CHART_REGISTRY[name]()


# -- exact on-variety points (used for trace-Casimir style checks) ----------------


def a2_rep2_rational_point(c: Fraction, s: Fraction, lam: Fraction, mu: Fraction) -> dict:
    """Exact Rep2(a2) point from a rational circle point c^2 + s^2 = 1."""
    if c * c + s * s != 1:
        raise ChartError("need c^2 + s^2 = 1 exactly")
    u = [c, s]
    v = [-lam * s, lam * c]
    w = [c - mu * s, s + mu * c]
    values = {}
    for i in range(2):
        for j in range(2):
            values[coord_var_name("e0", i, j)] = u[i] * v[j]
            values[coord_var_name("e1", i, j)] = u[i] * w[j]
            values[coord_var_name("e2", i, j)] = (Fraction(1) if i == j else Fraction(0)) - u[i] * w[j]
    return values


def a2_rep3_rational_point(u, v, w) -> dict:
    """Exact Rep3(a2) point from rational vectors with u.u=1, u.v=0, u.w=1."""
    u = [Fraction(t) for t in u]
    v = [Fraction(t) for t in v]
    w = [Fraction(t) for t in w]
    dot = lambda p, q: sum(a * b for a, b in zip(p, q))
    if dot(u, u) != 1 or dot(u, v) != 0 or dot(u, w) != 1:
        raise ChartError("need u.u = 1, u.v = 0, u.w = 1 exactly")
    values = {}
    for i in range(3):
        for j in range(3):
            values[coord_var_name("e0", i, j)] = u[i] * v[j]
            values[coord_var_name("e1", i, j)] = u[i] * w[j]
            values[coord_var_name("e2", i, j)] = (Fraction(1) if i == j else Fraction(0)) - u[i] * w[j]
    return values


def matrix_algebra_rep_point(n: int, g: list[list[Fraction]]) -> dict:
    """Rep_n(Mat_n) point given by conjugation with an invertible matrix g."""
    from .algebra import make_matrix_algebra
    from .linalg import invert_matrix

    alg = make_matrix_algebra(n)
    g = [[Fraction(x) for x in row] for row in g]
    g_inv = invert_matrix(g)
    values = {}
    for bi in range(n):
        for bj in range(n):
            # rho(E_bi,bj) = g E g^{-1}, entrywise g[i][bi] * g_inv[bj][j]
            name = alg.basis_names[bi * n + bj]
            for i in range(n):
                for j in range(n):
                    values[coord_var_name(name, i, j)] = g[i][bi] * g_inv[bj][j]
    return values


def eval_table_at_point(table: PoissonTable, u: str, v: str, values: dict) -> Fraction:
    """Exact evaluation of one table entry at a rational variety point."""
    full = dict(values)
    for p in table.ring.params:
        full.setdefault(p, Fraction(1))
    return table.entry(u, v).eval_rational(full)
