"""Inner double brackets from wedges, and the associative Yang-Baxter test.

For r = A^B = A(x)B - B(x)A the inner bracket is expanded as

    {{x,y}}_r = Ax(x)By - yAx(x)B - A(x)xBy + yA(x)xB
                - Bx(x)Ay + yBx(x)A + B(x)xAy - yB(x)xA,

the orientation that reproduces {{e0,e1}}_{e0^e1} = e0(x)e0 and
{{e0,e1}}_{1^e0} = -2 e0(x)e0 on the upper-triangular algebra.  The Jacobi
obstruction is J(r) = r13 x r12 + r23 x r13 - r12 x r23 (legwise products,
unit on the missing leg); J(r) = 0 is the associative Yang-Baxter equation,
and the weaker sufficient-and-necessary condition for the double Jacobi
identity of {{-,-}}_r is [[[J(r),x]_1,y]_2,z]_3 = 0 for all x, y, z.

J(r) and the triple commutators are summed over nonzero terms only, as
sparse tensors over the algebra's product table; a Tensor3 is built only for
the returned obstruction and for witness triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .brackets import DoubleBracket
from .poly import MultiPoly, PolyRing, Scalar, distinct_up_to_scalar, scalar_is_zero
from .tensors import (
    Tensor2,
    Tensor3,
    _leg_commutator_terms,
    _legwise_product_terms,
    _mult_maps,
    _nonzero_terms,
    _zero_grid2,
    tensor3_from_terms,
)


@dataclass(frozen=True)
class WedgeElement:
    """r in Lambda^2 A, stored as the antisymmetric grid of r = sum r[a][b] e_a(x)e_b."""

    algebra: FDAlgebra
    grid: tuple

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.grid) != n or any(len(r) != n for r in self.grid):
            raise AlgebraError("wedge grid has wrong shape")
        for a in range(n):
            for b in range(n):
                if not scalar_is_zero(self.grid[a][b] + self.grid[b][a]):
                    raise AlgebraError("wedge grid is not antisymmetric")

    @staticmethod
    def zero(algebra: FDAlgebra) -> WedgeElement:
        return WedgeElement(algebra, tuple(tuple(r) for r in _zero_grid2(algebra.dim)))

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> WedgeElement:
        return WedgeElement(algebra, tuple(tuple(row) for row in grid))

    @staticmethod
    def wedge(x: AlgElement, y: AlgElement) -> WedgeElement:
        """x ^ y = x(x)y - y(x)x."""
        if x.algebra != y.algebra:
            raise AlgebraError("wedge factors from different algebras")
        n = x.algebra.dim
        grid = [
            [x.coords[a] * y.coords[b] - y.coords[a] * x.coords[b] for b in range(n)]
            for a in range(n)
        ]
        return WedgeElement.of(x.algebra, grid)

    @staticmethod
    def from_terms(algebra: FDAlgebra, terms) -> WedgeElement:
        """Sum of coeff * (e_a(x)e_b - e_b(x)e_a) over (a, b, coeff) triples."""
        grid = _zero_grid2(algebra.dim)
        for a, b, c in terms:
            grid[a][b] = grid[a][b] + c
            grid[b][a] = grid[b][a] - c
        return WedgeElement.of(algebra, grid)

    def __add__(self, other: WedgeElement) -> WedgeElement:
        if self.algebra != other.algebra:
            raise AlgebraError("wedges over different algebras")
        n = self.algebra.dim
        return WedgeElement.of(
            self.algebra,
            [[self.grid[a][b] + other.grid[a][b] for b in range(n)] for a in range(n)],
        )

    def scale(self, c: Scalar) -> WedgeElement:
        n = self.algebra.dim
        return WedgeElement.of(
            self.algebra, [[c * self.grid[a][b] for b in range(n)] for a in range(n)]
        )

    def is_zero(self) -> bool:
        return all(scalar_is_zero(v) for row in self.grid for v in row)

    def as_tensor2(self) -> Tensor2:
        return Tensor2.of(self.algebra, self.grid)

    def entries(self):
        for a, row in enumerate(self.grid):
            for b, v in enumerate(row):
                if not scalar_is_zero(v):
                    yield (a, b, v)


def wedge_basis(algebra: FDAlgebra) -> list[WedgeElement]:
    """The e_a ^ e_b, a < b, basis of Lambda^2 A."""
    n = algebra.dim
    return [
        WedgeElement.from_terms(algebra, [(a, b, Fraction(1))])
        for a in range(n)
        for b in range(a + 1, n)
    ]


def inner_bracket(r: WedgeElement) -> DoubleBracket:
    """{{x,y}}_r = [[r,x]_in, y]_out with the worked-example orientation.

    Per summand P(x)Q of r the contribution to {{x,y}} is
    Px(x)Qy - yPx(x)Q - P(x)xQy + yP(x)xQ, summed over the nonzero entries
    of the product table.
    """
    alg = r.algebra
    n = alg.dim
    slots = [[{} for _ in range(n)] for _ in range(n)]
    prods = alg.products
    for p, q, w in r.entries():
        for i in range(n):  # x = e_i
            px = prods[p][i]
            xq = prods[i][q]
            for j in range(n):  # y = e_j
                block = slots[i][j]
                # Px (x) Qy
                qy = prods[q][j]
                for a, u in px:
                    c1 = w * u
                    for b, v in qy:
                        block[(a, b)] = block.get((a, b), 0) + c1 * v
                # - yPx (x) Q : yPx = e_j (e_p e_i)
                for m, u in px:
                    for a, v in prods[j][m]:
                        block[(a, q)] = block.get((a, q), 0) - w * u * v
                # - P (x) xQy : xQy = (e_i e_q) e_j
                for m, u in xq:
                    for b, v in prods[m][j]:
                        block[(p, b)] = block.get((p, b), 0) - w * u * v
                # + yP (x) xQ
                for a, u in prods[j][p]:
                    c1 = w * u
                    for b, v in xq:
                        block[(a, b)] = block.get((a, b), 0) + c1 * v
    return DoubleBracket.from_slots(alg, slots)


def _unit_inclusion_terms(r: WedgeElement, i: int, j: int) -> dict:
    """r_ij: r on legs (i, j) of A(x)A(x)A, the unit on the remaining leg (sparse)."""
    (rest,) = tuple({1, 2, 3} - {i, j})
    out: dict = {}
    for a, b, v in r.entries():
        for u, cu in enumerate(r.algebra.unit):
            if cu == 0:
                continue
            pos = {i: a, j: b, rest: u}
            key = (pos[1], pos[2], pos[3])
            out[key] = out.get(key, 0) + v * cu
    return out


def _aybe_terms(r: WedgeElement) -> dict:
    """J(r) = r13 x r12 + r23 x r13 - r12 x r23, as a sparse tensor."""
    prods = r.algebra.products
    r12, r13, r23 = (_unit_inclusion_terms(r, *legs) for legs in ((1, 2), (1, 3), (2, 3)))
    out = _legwise_product_terms(prods, r13, r12)
    for key, v in _legwise_product_terms(prods, r23, r13).items():
        out[key] = out.get(key, 0) + v
    for key, v in _legwise_product_terms(prods, r12, r23).items():
        out[key] = out.get(key, 0) - v
    return _nonzero_terms(out)


def aybe_obstruction(r: WedgeElement) -> Tensor3:
    """J(r) = r13 x r12 + r23 x r13 - r12 x r23."""
    return tensor3_from_terms(r.algebra, _aybe_terms(r))


def weak_jacobi_condition(r: WedgeElement):
    """(flag, residuals) for [[[J(r),x]_1,y]_2,z]_3 = 0 over all basis triples.

    Vanishing is automatic when any argument is the unit, but every basis
    vector is scanned regardless.  The commutators act on sparse tensors, and
    a Tensor3 is built only for a witness triple.
    """
    alg = r.algebra
    n = alg.dim
    j = _aybe_terms(r)
    residuals = []
    if not j:
        return True, residuals
    basis = [alg.basis_element(i) for i in range(n)]
    maps = [(_mult_maps(e, left=True), _mult_maps(e, left=False)) for e in basis]
    for x in range(n):
        jx = _leg_commutator_terms(j, *maps[x], 1)
        if not jx:
            continue
        for y in range(n):
            jxy = _leg_commutator_terms(jx, *maps[y], 2)
            if not jxy:
                continue
            for z in range(n):
                jxyz = _leg_commutator_terms(jxy, *maps[z], 3)
                if jxyz:
                    residuals.append(((x, y, z), tensor3_from_terms(alg, jxyz)))
    return not residuals, residuals


def _reexpress_tensor3_legs(t: Tensor3, leg_basis) -> dict:
    """Coefficients of t in the tensor cube of an alternative basis of A.

    ``leg_basis`` is a list of algebra elements forming a basis; returns a map
    (i, j, k) -> coefficient with respect to that basis on every leg.  Used to
    present J(r) the way the source classification does (legs expanded over
    the unit-extended basis) without ever storing a non-canonical basis.
    """
    from .linalg import invert_matrix

    n = t.algebra.dim
    cols = [list(e.coords) for e in leg_basis]
    change = invert_matrix([[cols[j][i] for j in range(n)] for i in range(n)])
    # change[r][i]: coefficient of new basis vector r in stored basis vector e_i
    out: dict = {}
    for a, b, c, v in t.entries():
        for i in range(n):
            ci = change[i][a]
            if ci == 0:
                continue
            for j in range(n):
                cj = change[j][b]
                if cj == 0:
                    continue
                for k in range(n):
                    ck = change[k][c]
                    if ck == 0:
                        continue
                    key = (i, j, k)
                    prev = out.get(key)
                    term = v * (ci * cj * ck)
                    out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if not scalar_is_zero(v)}


@dataclass(frozen=True)
class AybeSystem:
    """Polynomial system J(r) = 0 over a parametrized wedge subspace."""

    algebra: FDAlgebra
    parameter_names: tuple[str, ...]
    generators: tuple[WedgeElement, ...]
    equations: tuple[MultiPoly, ...]
    weak_equations: tuple[MultiPoly, ...] | None = None

    def substitute_point(self, values) -> list[Fraction]:
        """Evaluate every equation at a rational parameter point."""
        binding = dict(zip(self.parameter_names, (Fraction(v) for v in values)))
        return [eq.eval_rational(binding) for eq in self.equations]

    def satisfied_by(self, values) -> bool:
        return all(v == 0 for v in self.substitute_point(values))


def aybe_solve(
    algebra: FDAlgebra,
    generators: list[WedgeElement] | None = None,
    parameter_names: tuple[str, ...] | None = None,
    include_weak: bool = False,
    leg_basis=None,
) -> AybeSystem:
    """Emit the AYBE system J(r) = 0 over a declared wedge subspace.

    ``generators`` defaults to the full wedge basis e_a ^ e_b (a < b) with
    coordinates named w{a}{b}.  No solving is attempted beyond emitting the
    coefficient equations (plus, on request, the weaker triple-commutator
    system); callers test candidate points with ``substitute_point``.

    ``leg_basis`` optionally re-expands the tensor legs of J(r) over an
    alternative basis of A before collecting coefficients -- e.g. the
    unit-extended basis (1, e0, e1) on the upper-triangular algebra, which is
    the presentation the published system uses.
    """
    if generators is None:
        generators = wedge_basis(algebra)
        names = tuple(
            f"w{a}{b}" for a in range(algebra.dim) for b in range(a + 1, algebra.dim)
        )
    else:
        names = parameter_names or tuple(f"t{k}" for k in range(len(generators)))
    if len(names) != len(generators):
        raise AlgebraError("one parameter name per generator required")
    if not generators:
        return AybeSystem(algebra, (), (), (), () if include_weak else None)
    ring = PolyRing(names)
    n = algebra.dim
    grid = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for name, gen in zip(names, generators):
        t = ring.var(name)
        for a, b, v in gen.entries():
            grid[a][b] = grid[a][b] + t * v
    r = WedgeElement.of(algebra, grid)
    j = aybe_obstruction(r)
    if leg_basis is not None:
        coeffs = _reexpress_tensor3_legs(j, leg_basis).values()
    else:
        coeffs = (v for _, _, _, v in j.entries())
    equations = distinct_up_to_scalar(coeffs)
    weak = None
    if include_weak:
        _, residuals = weak_jacobi_condition(r)
        weak_polys = [v for _, t3 in residuals for _, _, _, v in t3.entries()]
        weak = tuple(distinct_up_to_scalar(weak_polys))
    return AybeSystem(algebra, names, tuple(generators), tuple(equations), weak)


# -- trace Casimir identity ----------------------------------------------------


def trace_casimir_check(r: WedgeElement) -> bool:
    """Word-level verification that traces are Casimirs for inner brackets.

    Treats the matrix entries of the wedge legs and of the arguments x, y as
    formal noncommuting symbols and checks that sum_i {x_ii, y_pq}, computed
    from the inner-bracket expansion via (MN)_pq = sum_i M_pi N_iq alone,
    cancels identically -- independent of the matrix size n.  The cancellation
    is linear in r, so each wedge summand is certified separately.
    """
    if r.is_zero():
        return True
    words: dict[tuple[str, ...], Scalar] = {}
    for idx, (a, b, coeff) in enumerate(r.entries()):
        # abstract symbols for the two legs of this summand of r
        A, B = f"L{idx}", f"R{idx}"
        for left, right, sign in _inner_bracket_words(A, B, "x", "y"):
            word = left + right
            words[word] = words.get(word, Fraction(0)) + sign * coeff
    return all(scalar_is_zero(c) for c in words.values())


def _inner_bracket_words(A: str, B: str, x: str, y: str):
    """The bracket {{x,y}}_{A(x)B} as signed (left-leg word, right-leg word) pairs."""
    return [
        ((A, x), (B, y), Fraction(1)),
        ((y, A, x), (B,), Fraction(-1)),
        ((A,), (x, B, y), Fraction(-1)),
        ((y, A), (x, B), Fraction(1)),
    ]
