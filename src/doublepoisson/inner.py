"""Inner double brackets from wedges, and the associative Yang-Baxter test.

For r in Lambda^2 A the inner bracket is {{e_i, e_j}}_r = D_j(flip(D_i(flip r))),
with D_i(m) = e_i.m - m.e_i; per summand A(x)B of r = A^B = A(x)B - B(x)A
this is Ae_i(x)Be_j - e_jAe_i(x)B - A(x)e_iBe_j + e_jA(x)e_iB, the
orientation that reproduces {{e0,e1}}_{e0^e1} = e0(x)e0 and
{{e0,e1}}_{1^e0} = -2 e0(x)e0 on the upper-triangular algebra.  The Jacobi
obstruction is J(r) = r13 x r12 + r23 x r13 - r12 x r23 (legwise products,
unit on the missing leg); J(r) = 0 is the associative Yang-Baxter equation.
The jacobiator of {{-,-}}_r at (e_x, e_y, e_z) is the triple leg commutator
[[[J(r),e_x]_1,e_y]_2,e_z]_3, entry for entry, so the weaker condition that
it vanish, sufficient and necessary for the double Jacobi identity of
{{-,-}}_r, is checked as the inner bracket's own Jacobi identity, on the
shared scan of ``brackets``.

The signs and leg conventions live in ``axioms``: the inner bracket is two
folds of ``inner_derivation_terms``, and J(r) the fold of ``aybe_pairs``
over pairs of r's entries.  This module reads the product table
``products`` only to pass it to those generators.  A wedge is stored as its
nonzero a < b terms, like a bracket; its dense antisymmetric grid is a view.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .axioms import aybe_pairs, flipped, inner_derivation_terms
from .brackets import CoefficientBracket, DoubleBracket, _pair_residual, _residual
from .poly import MultiPoly, PolyRing, QuadraticForm, Scalar, distinct_up_to_scalar
from .tensors import Tensor3, _zero_grid2, tensor3_from_terms


class WedgeElement:
    """r in Lambda^2 A: r = sum c (e_a(x)e_b - e_b(x)e_a) over its ``terms``.

    ``terms`` is the tuple of nonzero (a, b, c) with a < b, in (a, b) order;
    the constructor takes it as given, and ``from_terms`` builds it from
    unordered or summed data.  ``of`` is the one dense entry point, and
    ``grid`` the dense antisymmetric view.  Two wedges are equal when their
    algebras and terms are.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FDAlgebra, terms: tuple):
        self.algebra = algebra
        self.terms = terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WedgeElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    @staticmethod
    def zero(algebra: FDAlgebra) -> WedgeElement:
        return WedgeElement(algebra, ())

    @staticmethod
    def of(algebra: FDAlgebra, grid) -> WedgeElement:
        """The wedge sum grid[a][b] e_a(x)e_b of an antisymmetric dense grid."""
        n = algebra.dim
        if len(grid) != n or any(len(r) != n for r in grid):
            raise AlgebraError("wedge grid has wrong shape")
        for a in range(n):
            for b in range(a, n):
                if grid[a][b] + grid[b][a]:
                    raise AlgebraError("wedge grid is not antisymmetric")
        terms = [(a, b, grid[a][b]) for a in range(n) for b in range(a + 1, n)]
        return WedgeElement.from_terms(algebra, terms)

    @staticmethod
    def wedge(x: AlgElement, y: AlgElement) -> WedgeElement:
        """x ^ y = x(x)y - y(x)x."""
        if x.algebra != y.algebra:
            raise AlgebraError("wedge factors from different algebras")
        n = x.algebra.dim
        u, v = x.coords, y.coords
        terms = [(a, b, u[a] * v[b] - v[a] * u[b]) for a in range(n) for b in range(a + 1, n)]
        return WedgeElement.from_terms(x.algebra, terms)

    @staticmethod
    def from_terms(algebra: FDAlgebra, terms) -> WedgeElement:
        """Sum of coeff * (e_a(x)e_b - e_b(x)e_a) over (a, b, coeff) triples."""
        n = algebra.dim
        acc: dict = {}
        for a, b, c in terms:
            if not (0 <= a < n and 0 <= b < n):
                raise AlgebraError(f"wedge term {(a, b)} not in 0..{n - 1}")
            if a > b:
                a, b, c = b, a, -c
            if a != b:  # e_a ^ e_a = 0
                acc[(a, b)] = acc.get((a, b), 0) + c
        nonzero = tuple((a, b, c) for (a, b), c in sorted(acc.items()) if c)
        return WedgeElement(algebra, nonzero)

    def __add__(self, other: WedgeElement) -> WedgeElement:
        if self.algebra != other.algebra:
            raise AlgebraError("wedges over different algebras")
        return WedgeElement.from_terms(self.algebra, self.terms + other.terms)

    def scale(self, c: Scalar) -> WedgeElement:
        return WedgeElement.from_terms(self.algebra, [(a, b, c * v) for a, b, v in self.terms])

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def grid(self) -> tuple:
        """Dense view: grid[a][b] is the coefficient of e_a(x)e_b, built on each call."""
        grid = _zero_grid2(self.algebra.dim)
        for a, b, v in self.terms:
            grid[a][b], grid[b][a] = v, -v
        return tuple(tuple(row) for row in grid)

    def entries(self) -> list:
        """The nonzero (a, b, coefficient of e_a(x)e_b), both orders, in (a, b) order."""
        return sorted([*self.terms, *((b, a, -v) for a, b, v in self.terms)], key=lambda t: t[:2])


def wedge_basis(algebra: FDAlgebra) -> list[WedgeElement]:
    """The e_a ^ e_b, a < b, basis of Lambda^2 A."""
    n = algebra.dim
    return [
        WedgeElement.from_terms(algebra, [(a, b, 1)])
        for a in range(n)
        for b in range(a + 1, n)
    ]


def inner_bracket(r: WedgeElement) -> DoubleBracket:
    """{{e_i, e_j}}_r = D_j(flip(D_i(flip r))), D_i the inner derivation of ``axioms``.

    The flips turn the inner commutator [r, e_i]_in into an outer one and back,
    and the two signs cancel: per summand P(x)Q of r the slot is
    Pe_i(x)Qe_j - e_jPe_i(x)Q - P(x)e_iQe_j + e_jP(x)e_iQ.
    """
    alg = r.algebra
    n = alg.dim
    prods = alg.products
    flip_r = flipped(r.entries())
    slots = []
    for i in range(n):
        half = [(b, a, v) for (a, b), v in _residual(inner_derivation_terms(prods, flip_r, i)).items()]
        slots.append([_residual(inner_derivation_terms(prods, half, j)) for j in range(n)])
    return DoubleBracket.from_slots(alg, slots)


def aybe_obstruction(r: WedgeElement) -> Tensor3:
    """J(r) = r13 x r12 + r23 x r13 - r12 x r23, the checker fold of ``axioms.aybe_pairs``."""
    return tensor3_from_terms(r.algebra, _pair_residual(aybe_pairs(r.algebra.products, r.entries())))


def weak_jacobi_condition(r: WedgeElement):
    """(flag, residuals) for [[[J(r),x]_1,y]_2,z]_3 = 0 over all basis triples, in (x, y, z) order.

    That triple commutator is the jacobiator of {{-,-}}_r at (e_x, e_y, e_z),
    entry for entry (Van den Bergh, Double Poisson algebras, 2008; Schedler,
    Poisson algebras and Yang-Baxter equations, 2009), so the condition is
    the inner bracket's own Jacobi check and its witnesses are those of
    ``check_jacobi`` without the axiom tag.
    """
    residuals = [(tag[1:], t) for tag, t in inner_bracket(r).check_jacobi()]
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
    return {k: v for k, v in out.items() if v}


class AybeSystem:
    """Polynomial system J(r) = 0 over a parametrized wedge subspace.

    ``equations`` are the coefficients of J(r), distinct up to scalars.
    ``weak_equations``, when asked for, are the reduced echelon basis of the
    span of the weak condition's coefficients, as ``QuadraticForm``s in the
    parameters: the Jacobi constraints of the span of the generators' inner
    brackets, in the key space and presentation of ``solve``'s.
    """

    __slots__ = ("algebra", "parameter_names", "generators", "equations", "weak_equations")

    def __init__(
        self,
        algebra: FDAlgebra,
        parameter_names: tuple[str, ...],
        generators: tuple[WedgeElement, ...],
        equations: tuple[MultiPoly, ...],
        weak_equations: tuple[QuadraticForm, ...] | None = None,
    ):
        self.algebra = algebra
        self.parameter_names = parameter_names
        self.generators = generators
        self.equations = equations
        self.weak_equations = weak_equations

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
    coefficient equations (plus, on request, the weak system, the Jacobi
    constraints of the span of the generators' inner brackets); callers test
    candidate points with ``substitute_point``.

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
    terms = [(a, b, ring.var(name) * v) for name, gen in zip(names, generators) for a, b, v in gen.terms]
    r = WedgeElement.from_terms(algebra, terms)
    j = aybe_obstruction(r)
    if leg_basis is not None:
        coeffs = _reexpress_tensor3_legs(j, leg_basis).values()
    else:
        coeffs = (v for _, _, _, v in j.entries())
    equations = distinct_up_to_scalar(coeffs)
    weak = None
    if include_weak:
        # inner brackets are skew and Leibniz, the precondition of ``jacobi_constraints``;
        # ``solver`` imports this module, and is loaded only here
        from .solver import LinearVariety, jacobi_constraints

        span = LinearVariety(algebra, names, tuple(inner_bracket(g) for g in generators), ())
        weak = jacobi_constraints(span).quadratic_constraints
    return AybeSystem(algebra, names, tuple(generators), tuple(equations), weak)


# -- trace Casimir identity ----------------------------------------------------


def trace_casimir_check(db: CoefficientBracket) -> bool:
    """Whether the traces are Casimirs of the bracket that ``db`` induces on every Rep_n.

    sum_i {x_ii, y_pq} = (m({{x, y}}))_pq, so that holds iff m({{e_i, e_j}}) = 0
    on every basis pair.  An inner bracket passes: m(D_j(t)) = [e_j, m(t)], and
    m(flip(D_i(flip r))) = Pe_iQ - Pe_iQ = 0 for each summand P(x)Q of r.
    """
    n = db.algebra.dim
    return not any(c for i in range(n) for j in range(n) for c in db.multiplied_basis(i, j))
