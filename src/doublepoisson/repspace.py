"""Induced Poisson structures on coordinate rings of representation spaces.

For a bracket {{-,-}} on A and a representation size n, the coordinate ring
O(Rep_n(A)) carries the generators x[g][i][j] ("entry (i,j) of the matrix of
basis element g") and the induced bracket

    {a_ij, b_pq} = {{a,b}}'_pj * {{a,b}}''_iq.

Verification charts parametrize the variety:

* Rep2 of a2 -- exact, over Q[c,s,lam,mu] / (c^2 + s^2 - 1), with the angle
  coordinate theta acting through the derivation c -> -s, s -> c.
* Rep3 of a2 -- the rank-1 branch in spherical coordinates.

Each chart check (table consistency, relations, bivector Jacobi) builds one
residual polynomial per item in the chart ring.  It reads images cached for
the length of one call: one ``PolyRing.morphism`` into the chart ring (each
power of a variable's image raised once), each derivative of a generator
image or of a bivector entry, and the bivector contracted once with each
generator's derivatives.  Exact mode reduces a residual modulo the chart
relations; numeric mode samples it with ``MultiPoly.eval_floats`` at seeded
on-variety points.  No numpy.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from .algebra import FDAlgebra, make_a2
from .brackets import CoefficientBracket
from .poly import MultiPoly, PolyRing, RelationSet


class ChartError(ValueError):
    """Raised for malformed or mismatched verification charts."""


def coord_var_name(basis_name: str, i: int, j: int) -> str:
    return f"{basis_name}_{i + 1}{j + 1}"


def _coordinate_names(algebra: FDAlgebra, n: int) -> list[str]:
    return [coord_var_name(g, i, j) for g in algebra.basis_names for i in range(n) for j in range(n)]


class CoordRing:
    """Generators and defining relations of O(Rep_n(A)), plus bracket parameters."""

    __slots__ = ("algebra", "n", "params", "ring")

    def __init__(self, algebra: FDAlgebra, n: int, params: tuple[str, ...], ring: PolyRing):
        self.algebra = algebra
        self.n = n
        self.params = params
        self.ring = ring

    @staticmethod
    def build(algebra: FDAlgebra, n: int, params: tuple[str, ...] = ()) -> CoordRing:
        """The ring of the bracket ``params`` and the Rep_n coordinates.

        Two coordinates with one name, as E11_111 names cells (1, 11) and
        (11, 1) from n = 11 on, or a name in both, raise ChartError.
        """
        coords = _coordinate_names(algebra, n)
        repeated = sorted(name for name, k in Counter(coords).items() if k > 1)
        if repeated:
            raise ChartError(f"Rep_{n} coordinate names {repeated} each name more than one cell")
        clashes = sorted(set(params) & set(coords))
        if clashes:
            raise ChartError(f"bracket parameters {clashes} clash with Rep_{n} coordinate names")
        return CoordRing(algebra, n, tuple(params), PolyRing(list(params) + coords))

    def var(self, g: int, i: int, j: int) -> MultiPoly:
        return self.ring.var(coord_var_name(self.algebra.basis_names[g], i, j))

    def coordinate_names(self) -> list[str]:
        return _coordinate_names(self.algebra, self.n)

    def generic_matrix(self, g: int) -> list[list[MultiPoly]]:
        return [[self.var(g, i, j) for j in range(self.n)] for i in range(self.n)]

    def relation_polys(self) -> list[MultiPoly]:
        """Entries of X_g X_h - sum_k c_k X_k, for e_g e_h = sum_k c_k e_k, and of sum unit_g X_g - Id."""
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
                        for m, c in alg.products[g][h]:
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


class PoissonTable:
    """Pairwise generator brackets on a coordinate ring (antisymmetric)."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: CoordRing, table: dict):
        self.ring = ring
        self.table = table

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
        """c as [(word over R, coefficient)]; its variables must be bracket parameters."""
        if not isinstance(c, MultiPoly):
            return [((), c)]
        for name in c.ring.names:
            if name not in db.params:
                raise ValueError(f"coefficient variable {name!r} is not a bracket parameter")
        positions = [R.index(name) for name in c.ring.names]
        return [(tuple(sorted(positions[i] for i in word)), coeff) for word, coeff in c.terms.items()]

    table: dict = {}
    words: dict = {}  # one tuple per distinct monomial, shared by the entries that hold it
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
                                pair = (left, right) if left <= right else (right, left)
                                for word, coeff in monomials:
                                    key = word + pair  # parameter letters precede coordinate letters
                                    key = words.setdefault(key, key)
                                    acc[key] = acc.get(key, 0) + coeff
                            table[(names[ga][i][j], names[gb][p][q])] = MultiPoly(R, acc)
    result = PoissonTable(ring, table)
    if not result.check_antisymmetry():
        raise ChartError("induced table is not antisymmetric; the bracket is not skew")
    return result


# -- charts ---------------------------------------------------------------------


class ChartCoord:
    """One chart coordinate and how to differentiate along it.

    kind "plain": the coordinate is the ring variable ``name``.
    kind "angle": the coordinate enters through cos/sin variables, and
    d/d(coord) is the derivation cos -> -sin, sin -> cos.
    """

    __slots__ = ("name", "kind", "cos_var", "sin_var")

    def __init__(self, name: str, kind: str, cos_var: str | None = None, sin_var: str | None = None):
        self.name = name
        self.kind = kind
        self.cos_var = cos_var
        self.sin_var = sin_var

    def derive(self, p: MultiPoly) -> MultiPoly:
        if self.kind == "plain":
            return p.partial(self.name)
        dc = p.partial(self.cos_var)
        ds = p.partial(self.sin_var)
        ring = p.ring
        return dc * (-ring.var(self.sin_var)) + ds * ring.var(self.cos_var)


class ParamChart:
    """A parametrization of (a branch of) Rep_n(A) plus a candidate bivector."""

    __slots__ = (
        "name", "algebra", "n", "ring", "relations", "coords", "substitution", "bivector", "params", "frame"
    )

    def __init__(
        self,
        name: str,
        algebra: FDAlgebra,
        n: int,
        ring: PolyRing,
        relations: RelationSet | None,
        coords: tuple[ChartCoord, ...],
        substitution: dict,
        bivector: tuple,
        params: tuple[str, ...],
        frame: str = "",
    ):
        self.name = name
        self.algebra = algebra
        self.n = n
        self.ring = ring
        self.relations = relations
        self.coords = coords
        self.substitution = substitution
        self.bivector = bivector
        self.params = params
        self.frame = frame

    def nf(self, p: MultiPoly) -> MultiPoly:
        return self.relations.normal_form(p) if self.relations else p

    def pi_entry(self, a: int, b: int) -> MultiPoly:
        return self.bivector[a][b]

    def bound_bivector(self, bindings: dict | None):
        if not bindings:
            return self.bivector
        image = _chart_images(self, self.ring, bindings)
        return tuple(tuple(image(entry) for entry in row) for row in self.bivector)

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


class ChartReport:
    __slots__ = ("chart", "mode", "ok", "max_residual", "failures", "frame")

    def __init__(self, chart: str, mode: str, ok: bool, max_residual: float, failures: tuple, frame: str = ""):
        self.chart = chart
        self.mode = mode
        self.ok = ok
        self.max_residual = max_residual
        self.failures = failures
        self.frame = frame

    def _fields(self) -> tuple:
        return (self.chart, self.mode, self.ok, self.max_residual, self.failures, self.frame)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChartReport):
            return NotImplemented
        return self._fields() == other._fields()


def _chart_images(chart: ParamChart, ring: PolyRing, bindings: dict | None):
    """The map of ``ring`` into the chart ring, as a cached ``PolyRing.morphism``.

    A variable goes to its chart substitution, else to its binding, else to
    the chart variable of the same name.
    """
    mapping = {}
    for v in ring.names:
        if v in chart.substitution:
            mapping[v] = chart.substitution[v]
        elif bindings and v in bindings:
            mapping[v] = chart.ring.const(bindings[v])
        elif v in chart.ring.names:
            mapping[v] = chart.ring.var(v)
        else:
            raise ChartError(f"no chart image for variable {v!r}")
    return ring.morphism(mapping, chart.ring)


def _vanishing(
    chart: ParamChart, residuals, mode: str, samples: int, seed: int, tol: float, bindings: dict | None
) -> tuple[list, float]:
    """(failures, max_residual) of tagged chart-ring residuals that should vanish on the chart.

    Exact mode keeps each residual whose normal form modulo the chart
    relations is nonzero, as (tag, normal form).  Numeric mode converts the
    seeded on-variety samples to floats once, evaluates each residual that
    is not identically zero at all of them with ``eval_floats``, and keeps
    (tag, worst |value|) above ``tol``.
    """
    if mode == "exact":
        reduced = ((tag, chart.nf(p)) for tag, p in residuals)
        return [(tag, r) for tag, r in reduced if not r.is_zero()], 0.0
    if mode != "numeric":
        raise ChartError(f"unknown mode {mode!r}")
    points = [[float(pt[name]) for name in chart.ring.names] for pt in chart.sample_points(samples, seed, bindings)]
    failures = []
    max_residual = 0.0
    for tag, p in residuals:
        if p.is_zero():
            continue
        worst = max(map(abs, p.eval_floats(points)))
        max_residual = max(max_residual, worst)
        if worst > tol:
            failures.append((tag, worst))
    return failures, max_residual


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

    One residual per generator pair (u, v), see ``_consistency_residuals``.
    Exact mode reduces it modulo the chart relations; numeric mode samples it
    with ``eval_floats`` at seeded on-variety points within ``tol``; no numpy.
    Only the pairs u < v are built, reduced or sampled: residual(v, u) =
    -residual(u, v) has the negated normal form and the same sampled size,
    and residual(u, u) = 0.  The failures are listed in (u, v) order.
    """
    if table.ring.algebra != chart.algebra or table.ring.n != chart.n:
        raise ChartError(
            f"chart {chart.name} is for {chart.algebra.name} at n={chart.n}"
        )
    residuals = _consistency_residuals(chart, table, bindings)
    upper, max_residual = _vanishing(chart, residuals, mode, samples, seed, tol, bindings)
    mirrored = [((v, u), -r if mode == "exact" else r) for (u, v), r in upper]
    place = {u: k for k, u in enumerate(table.ring.coordinate_names())}
    failures = sorted(upper + mirrored, key=lambda f: (place[f[0][0]], place[f[0][1]]))
    return ChartReport(chart.name, mode, not failures, max_residual, tuple(failures), chart.frame)


def _consistency_residuals(chart: ParamChart, table: PoissonTable, bindings: dict | None):
    """((u, v), img(table[(u,v)]) - sum_q w_u[q] D_q(img v)) for each generator pair u < v.

    w_u[q] = sum_p pi[p][q] D_p(img u) is contracted once per generator u,
    and each D_p(img u) is derived once, so a pair costs one product per
    coordinate q that the bivector reaches.  The pairs u < v (in coordinate
    order) are all that is built: the table is antisymmetric (an induced
    table is certified so) and so must the bound bivector be, so
    residual(v, u) = -residual(u, v) and residual(u, u) = 0.
    """
    image = _chart_images(chart, table.ring.ring, bindings)
    names = table.ring.coordinate_names()
    pi = chart.bound_bivector(bindings)
    ncoords = range(len(chart.coords))
    if any(pi[p][q] != -pi[q][p] for p in ncoords for q in ncoords):
        raise ChartError(f"chart {chart.name}: the bivector is not antisymmetric")
    pi_nonzero = [(p, q) for p in ncoords for q in ncoords if not pi[p][q].is_zero()]
    reached = sorted({q for _, q in pi_nonzero})
    derivatives = {}
    contracted = {}
    for u in names:
        img = image(table.ring.ring.var(u))
        derivatives[u] = [coord.derive(img) for coord in chart.coords]
        w = [chart.ring.zero() for _ in ncoords]
        for p, q in pi_nonzero:
            w[q] = w[q] + pi[p][q] * derivatives[u][p]
        contracted[u] = w
    for a, u in enumerate(names):
        for v in names[a + 1 :]:
            rhs = chart.ring.zero()
            for q in reached:
                rhs = rhs + contracted[u][q] * derivatives[v][q]
            yield (u, v), image(table.entry(u, v)) - rhs


def chart_relations_check(
    chart: ParamChart,
    mode: str = "exact",
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
):
    """All CoordRing relation polynomials must vanish under the substitution."""
    coord_ring = CoordRing.build(chart.algebra, chart.n)
    image = _chart_images(chart, coord_ring.ring, None)
    residuals = ((k, image(p)) for k, p in enumerate(coord_ring.relation_polys()))
    failures, worst = _vanishing(chart, residuals, mode, samples, seed, tol, None)
    # an exact failure has no sampled size
    return (not failures, math.inf if failures and not worst else worst)


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
                        + pi[l][c] D_l pi[a][b]  for a < b < c,
    read from one table of the derivatives D_l pi[p][q].
    """
    pi = chart.bound_bivector(bindings)
    dpi = [[[coord.derive(entry) for entry in row] for row in pi] for coord in chart.coords]

    def components():
        for a, b, c in combinations(range(len(chart.coords)), 3):
            comp = chart.ring.zero()
            for l in range(len(chart.coords)):
                comp = comp + pi[l][a] * dpi[l][b][c]
                comp = comp + pi[l][b] * dpi[l][c][a]
                comp = comp + pi[l][c] * dpi[l][a][b]
            yield (a, b, c), comp

    failures, _ = _vanishing(chart, components(), mode, samples, seed, tol, bindings)
    return not failures


# -- the two a2 verification charts ----------------------------------------------


def _a2_rank_one(x, y, z) -> dict:
    """rho(e0) = x y^T, rho(e1) = x z^T, rho(e2) = Id - x z^T, by coordinate name.

    The vector entries may be MultiPolys (a chart substitution) or Fractions
    (an exact point).
    """
    values = {}
    for i in range(len(x)):
        for j in range(len(x)):
            values[coord_var_name("e0", i, j)] = x[i] * y[j]
            values[coord_var_name("e1", i, j)] = x[i] * z[j]
            values[coord_var_name("e2", i, j)] = int(i == j) - x[i] * z[j]
    return values


def register_chart_rep2_a2() -> ParamChart:
    """Rep2(a2): u=(c,s), v=lam(-s,c), w=(c-mu*s, s+mu*c) on c^2+s^2=1.

    rho(e0) = u v^T, rho(e1) = u w^T, rho(e2) = Id - rho(e1); the bivector in
    coordinates (theta, lam, mu) has the single block {lam, mu} = A lam^2.
    """
    alg = make_a2()
    ring = PolyRing(("A", "c", "s", "lam", "mu"))
    A, c, s, lam, mu = (ring.var(nm) for nm in ring.names)
    rels = RelationSet.of(ring, [(c * c, ring.one() - s * s)])
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
        substitution=_a2_rank_one([c, s], [-lam * s, lam * c], [c - mu * s, s + mu * c]),
        bivector=pi,
        params=("A",),
    )


REP3_FRAME_STANDARD = (
    "f1 = (-sin(theta), cos(theta), 0), "
    "f2 = (-cos(theta)sin(phi), -sin(theta)sin(phi), cos(phi)) "
    "(orthonormal tangent frame of S^2 in spherical coordinates)"
)


def register_chart_rep3_a2() -> ParamChart:
    """Rep3(a2), rank-1 branch: u on S^2, y = ca f1 + cb f2, z = u + cg f1 + cd f2.

    Chart coordinates are (theta, phi, ca, cb, cg, cd); ca..cd are the plane
    coordinates, renamed so they cannot clash with the bracket parameters.
    The bivector blocks are {ca,cg} = A ca^2, {ca,cd} = {cb,cg} = A ca cb,
    {cb,cd} = A cb^2.
    """
    alg = make_a2()
    ring = PolyRing(("A", "ct", "st", "cp", "sp", "ca", "cb", "cg", "cd"))
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
        substitution=_a2_rank_one(x, y, z),
        bivector=tuple(tuple(row) for row in grid),
        params=("A",),
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
    return _a2_rank_one([c, s], [-lam * s, lam * c], [c - mu * s, s + mu * c])


def a2_rep3_rational_point(u, v, w) -> dict:
    """Exact Rep3(a2) point from rational vectors with u.u=1, u.v=0, u.w=1."""
    u = [Fraction(t) for t in u]
    v = [Fraction(t) for t in v]
    w = [Fraction(t) for t in w]
    dot = lambda p, q: sum(a * b for a, b in zip(p, q))
    if dot(u, u) != 1 or dot(u, v) != 0 or dot(u, w) != 1:
        raise ChartError("need u.u = 1, u.v = 0, u.w = 1 exactly")
    return _a2_rank_one(u, v, w)


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
