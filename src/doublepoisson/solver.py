"""Classification engine for double and modified brackets.

The linear axioms are solved in two stages on the unknown coefficient tensor
C[i][j][a][b].  The outer Leibniz rule in the second argument makes every
slot {{e_i, -}} a double derivation, an element of Der(A, A(x)A).  So the
derivation system on n^3 unknowns is solved once, for a basis D_1..D_p, and
the remaining axioms are imposed on the n * p coordinates x[i][d] of
C[i] = sum_d x[i][d] D_d: skew symmetry for double brackets, or the
first-argument Leibniz rule plus H0-skew for modified ones.  The solutions
are then written in the basis that the exact nullspace of the one-shot
system on all n^4 unknowns has (``linalg.canonical_basis``), so the basis
does not depend on how the system was solved.  The residual quadratic
Jacobi constraints are extracted in the nullspace parameters t0, t1, ...

Every Leibniz system (the derivation stage, ``hh1``, and the first-argument
rule of modified brackets) is imposed on the pairs (k, l) with e_k in a
generating set (``algebra.generating_set``) and e_l any basis element, plus
delta(1) = 0.  Write L(x, y) = delta(xy) - x.delta(y) - delta(x).y; then
L(xy, z) = L(x, yz) + x.L(y, z) - L(x, y).z, so the x with L(x, -) = 0 form
a subspace closed under products.  It holds 1 iff delta(1) = 0, since
L(1, z) = -delta(1).z, and then it holds the subalgebra the generators
generate, which is A.  So these rows have the same nullspace as the rows
of all n^2 pairs, and so give the same nullspace basis (mat4: 9,536 rows
for its 4 generators instead of 36,352).

Each axiom is written once, in ``axioms``: one generator per axiom, two folds.
The checkers fold a bracket's terms into residuals; this module folds generic
slots (``_generic_slot``, ``_slot_forms``) into rows and quadratic forms.

The Jacobi residual of the general element sum_k t_k B_k is a quadratic form
in t, so the constraints are computed by polarization: bilinear arithmetic on
the basis brackets' exact scalars (ints on integral input).  The finished
constraints stay sparse quadratic forms (``poly.QuadraticForm``), with no
exponent vectors.  For double brackets only the triples of algebra
generators are scanned (``algebra.generating_set``): the triple bracket of
a bracket that satisfies skew symmetry and Leibniz is a derivation in each
argument, so these span the same constraint space as all basis triples.
For modified brackets the H0 Jacobi residual is a derivation in its third
argument, so that argument runs over the generators.  The constraints
are the reduced echelon basis of that span over the monomials t_k t_l: their
count is the rank of the span, each has leading coefficient 1, and they are
listed by leading monomial t_k t_l in ascending (k, l) order, which is
descending graded lex.

The parameter order is the elimination order of the nullspace engine (free
columns ascending), which is deterministic but not canonical; golden tests
reparametrize to the classical parameters via documented coefficient slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm

from .algebra import FDAlgebra, commutator_subspace, generating_set
from .axioms import (
    JACOBI_LEGS,
    derivation_terms,
    first_leg_pairs,
    flipped,
    h0_jacobiator_parts,
    h0_skew_terms,
    inner_derivation_terms,
    jacobiator_parts,
    multiplied_terms,
    nested_pairs,
    skew_terms,
    unit_terms,
)
from .brackets import CoefficientBracket, DoubleBracket, DoubleDerivation
from .inner import inner_bracket, wedge_basis
from .linalg import (
    SparseEliminator,
    canonical_basis,
    nullspace_of_rows,
    primitive_row,
    rank_of_rows,
    row_spans_equal,
)
from .modified import ModifiedBracket
from .poly import PolyRing, QuadraticForm
from .tensors import Tensor2


@dataclass(frozen=True)
class LinearVariety:
    """General solution of the linear axioms plus residual quadratic constraints.

    Every nullspace point satisfies the linear axioms; a point yields a bracket
    satisfying the full axiom set iff it also kills every quadratic constraint.
    """

    algebra: FDAlgebra
    parameter_names: tuple[str, ...]
    nullspace_basis: tuple[CoefficientBracket, ...]
    quadratic_constraints: tuple[QuadraticForm, ...]
    modified: bool = False

    @property
    def dim(self) -> int:
        return len(self.nullspace_basis)

    def ring(self) -> PolyRing:
        return PolyRing(self.parameter_names)

    def general_element(self) -> CoefficientBracket:
        """sum_k t_k * (basis bracket k), with MultiPoly coefficients."""
        ring = self.ring()
        return self._combination(ring.var(name) for name in self.parameter_names)

    def point(self, values) -> CoefficientBracket:
        """Rational specialization of the general element."""
        return self._combination(Fraction(v) for v in values)

    def _combination(self, coeffs) -> CoefficientBracket:
        total = (ModifiedBracket if self.modified else DoubleBracket).zero(self.algebra)
        for c, basis in zip(coeffs, self.nullspace_basis):
            total = total + basis.scale(c)
        return total


def _integer_products(algebra: FDAlgebra):
    """The product table times the common denominator of its entries; the table itself when all are ints.

    The row folds then run on ints, and a uniform factor changes no span.
    """
    values = [v for row in algebra.products for terms in row for _, v in terms]
    if all(type(v) is int for v in values):
        return algebra.products
    den = lcm(*(v.denominator for v in values))
    return [[[(k, int(v * den)) for k, v in terms] for terms in row] for row in algebra.products]


def _generic_slot(n: int, base: int) -> list:
    """A slot whose payload at (a, b) is the column base + a * n + b: base (i * n + j) * n^2
    for {{e_i, e_j}} of the general bracket, m * n^2 for delta(e_m) of the general map."""
    return [(a, b, base + a * n + b) for a in range(n) for b in range(n)]


def _fold_rows(terms) -> dict:
    """The solver fold: position -> sparse row {column: summed coefficient}."""
    rows: dict = {}
    for pos, v, col in terms:
        row = rows.get(pos)
        if row is None:
            row = rows[pos] = {}
        row[col] = row.get(col, 0) + v
    return rows


def _rows(groups):
    """The nonzero rows of each group of terms, in ascending position order per group."""
    for terms in groups:
        rows = _fold_rows(terms)
        for pos in sorted(rows):
            row = {col: v for col, v in rows[pos].items() if v}
            if row:
                yield row


def _leibniz_rows(prods, unit, images, generators):
    """The Leibniz rows of the generic ``images`` on generators x basis, then delta(1) = 0.

    ``axioms.derivation_terms`` in (k, l, c, d) order for k in ``generators``,
    then ``axioms.unit_terms`` in (c, d) order.  When the generators generate
    the algebra these have the nullspace of the rows of every pair (k, l):
    see the module docstring.
    """
    n = len(prods)
    pairs = (derivation_terms(prods, images, k, l) for k in generators for l in range(n))
    return _rows(chain(pairs, [unit_terms(unit, images)]))


def _derivation_rows(algebra: FDAlgebra, generators):
    """The Leibniz rows of Der(A, A(x)A) over the columns (m * n + a) * n + b of delta(e_m).

    The product table is scaled to integers, which scales every pair's row alike.
    """
    n = algebra.dim
    images = [_generic_slot(n, m * n * n) for m in range(n)]
    return _leibniz_rows(_integer_products(algebra), algebra.unit, images, generators)


def _first_leibniz_rows(algebra: FDAlgebra, generators):
    """The first-argument Leibniz rows over the flat C columns, slot i = 0, 1, ... in turn.

    x -> {{x, e_i}}° is a double derivation: images flipped({{e_m, e_i}}).
    """
    n = algebra.dim
    prods = _integer_products(algebra)
    for i in range(n):
        images = [flipped(_generic_slot(n, (m * n + i) * n * n)) for m in range(n)]
        yield from _leibniz_rows(prods, algebra.unit, images, generators)


def _h0_skew_rows(algebra: FDAlgebra):
    """The A/[A,A] coordinates of ``axioms.h0_skew_terms``, i <= j, as rows in (i, j, coordinate) order."""
    n = algebra.dim
    sub = commutator_subspace(algebra)
    flat_basis = [sub.project_flat(algebra.basis_element(c).coords) for c in range(n)]

    def projected(i, j):
        slots = (_generic_slot(n, (i * n + j) * n * n), _generic_slot(n, (j * n + i) * n * n))
        for c, v, col in h0_skew_terms(algebra.products, *slots):
            for comp, w in enumerate(flat_basis[c]):
                if w:
                    yield comp, v * w, col

    return _rows(projected(i, j) for i in range(n) for j in range(i, n))


def _rows_to_variety(algebra: FDAlgebra, rows, modified: bool) -> LinearVariety:
    """The variety with one basis bracket per sparse row over the flat C columns."""
    cls = ModifiedBracket if modified else DoubleBracket
    basis = tuple(cls.from_flat(algebra, row) for row in rows)
    names = tuple(f"t{k}" for k in range(len(basis)))
    return LinearVariety(algebra, names, basis, (), modified)


def _derivation_basis(algebra: FDAlgebra, generators) -> list[dict[int, int | Fraction]]:
    """Basis of Der(A, A(x)A) as sparse rows over the columns of ``_derivation_rows``."""
    return nullspace_of_rows(_derivation_rows(algebra, generators), algebra.dim**3)


def _substitute(rows, columns, p: int):
    """Rows over the flat C columns as rows over x[i][d] (column i * p + d).

    C[i][j][a][b] = sum_d x[i][d] D_d[j][a][b], where columns[c] lists the
    (d, w) with D_d equal to w at derivation column c = (j * n + a) * n + b.
    Rows that vanish on every such C are dropped.
    """
    n3 = len(columns)
    for row in rows:
        out: dict[int, Fraction | int] = {}
        for idx, v in row.items():
            i, c = divmod(idx, n3)
            for d, w in columns[c]:
                col = i * p + d
                out[col] = out.get(col, 0) + v * w
        out = {col: v for col, v in out.items() if v}
        if out:
            yield out


def _solve_over_derivations(algebra: FDAlgebra, generators, rows, modified: bool) -> LinearVariety:
    """The brackets whose slots {{e_i, -}} are double derivations and that satisfy `rows`.

    `rows` are constraints over the flat C columns, and `generators` generate
    the algebra (``_derivation_rows``).  The derivation basis is used as
    ``linalg`` returns it, in exact scalars; the canonical basis of the
    answer depends only on its span.
    """
    n = algebra.dim
    n3 = n**3
    derivations = _derivation_basis(algebra, generators)
    p = len(derivations)
    columns: list[list[tuple[int, int | Fraction]]] = [[] for _ in range(n3)]
    for d, vec in enumerate(derivations):
        for c, w in vec.items():
            columns[c].append((d, w))
    brackets = []
    for x in nullspace_of_rows(_substitute(rows, columns, p), n * p):
        flat: dict[int, int | Fraction] = {}
        for col, coeff in x.items():
            i, d = divmod(col, p)
            for c, w in derivations[d].items():
                idx = i * n3 + c
                flat[idx] = flat.get(idx, 0) + coeff * w
        brackets.append(flat)
    return _rows_to_variety(algebra, canonical_basis(brackets, n**4), modified)


def solve_linear(algebra: FDAlgebra, generators=None) -> LinearVariety:
    """Nullspace of skew symmetry plus the second-argument Leibniz rule on C[i][j][a][b].

    ``generators`` generate the algebra; by default ``algebra.generating_set``.
    """
    n = algebra.dim

    def groups():
        for i in range(n):
            for j in range(i, n):
                terms = skew_terms(_generic_slot(n, (i * n + j) * n * n), _generic_slot(n, (j * n + i) * n * n))
                # {{e_i, e_i}} + {{e_i, e_i}}° is symmetric: its rows at (a, b) and (b, a) agree
                yield terms if i < j else (t for t in terms if t[0][0] <= t[0][1])

    if generators is None:
        generators = generating_set(algebra)
    return _solve_over_derivations(algebra, generators, _rows(groups()), modified=False)


def solve_modified_linear(algebra: FDAlgebra) -> LinearVariety:
    """Nullspace of both Leibniz rules plus the (linear) H0-skew condition."""
    generators = generating_set(algebra)
    rows = chain(_first_leibniz_rows(algebra, generators), _h0_skew_rows(algebra))
    return _solve_over_derivations(algebra, generators, rows, modified=True)


# -- quadratic constraints by polarization -------------------------------------
#
# The general element sum_k t_k B_k has a linear form in t in every coefficient
# slot, so each Jacobi residual entry is a quadratic form in t, computed from
# the basis brackets by bilinear arithmetic.  A linear form is a tuple of
# (k, c) pairs with c the exact scalar of basis bracket k, an int wherever the
# basis is integral.  A quadratic form is a map from monomial key to exact
# scalar, where t_k t_l (k <= l) has key k * p + l; the smallest key of a form
# is its graded-lex leading monomial.


def _slot_forms(variety: LinearVariety):
    """slots[i][j] = [(a, b, form)] over the nonzero C[i][j][a][b] of the general element.

    Each form carries the basis brackets' coefficients as they are.
    """
    n = variety.algebra.dim
    terms = [basis.terms for basis in variety.nullspace_basis]
    slots = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            forms: dict[tuple[int, int], list] = {}
            for k, t in enumerate(terms):
                for a, b, v in t[i][j]:
                    forms.setdefault((a, b), []).append((k, v))
            slots[i][j] = [(a, b, tuple(forms[a, b])) for a, b in sorted(forms)]
    return slots


def _monomial_keys(p: int) -> list[list[int]]:
    """keys[k][l]: the key of the monomial t_k t_l."""
    return [[min(k, l) * p + max(k, l) for l in range(p)] for k in range(p)]


def _quadratic_sum(products, keys, index) -> dict[int, dict[int, int | Fraction]]:
    """index[position] -> quadratic form, summing f * g over the (position, f, g) products."""
    out: dict[int, dict[int, int | Fraction]] = {}
    for pos, f, g in products:
        pos = index[pos]
        acc = out.get(pos)
        if acc is None:
            acc = out[pos] = {}
        for k, u in f:
            row = keys[k]
            for l, v in g:
                key = row[l]
                acc[key] = acc.get(key, 0) + u * v
    return out


def _combine(terms):
    """The nonzero entries of sum(sign * perm(entries)) over the terms, in position order.

    Each term is (sign, perm, entries) with ``entries`` a position -> form map
    and ``perm`` a list sending each position to its place in the sum.
    """
    total: dict[int, dict[int, int | Fraction]] = {}
    for sign, perm, entries in terms:
        for pos, form in entries.items():
            pos = perm[pos]
            acc = total.get(pos)
            if acc is None:
                acc = total[pos] = {}
            for key, v in form.items():
                acc[key] = acc.get(key, 0) + sign * v
    for pos in sorted(total):
        form = {key: v for key, v in total[pos].items() if v}
        if form:
            yield form


def _with_constraints(variety: LinearVariety, forms) -> LinearVariety:
    """The variety with the reduced echelon basis of span(forms) as its constraints.

    The forms are eliminated on the monomial keys, pivots at the smallest
    key, which is the leading monomial.  The monic reduced pivot rows are
    listed by ascending key, so each has leading coefficient 1, the
    constraints depend only on the span of the forms, and their count is its
    rank.  Each row becomes a ``QuadraticForm`` as it is.
    """
    names = variety.parameter_names
    p = variety.dim
    # one representative per primitive form (``linalg.primitive_row``) reaches the elimination
    elim = SparseEliminator(p * p)
    for form in dict.fromkeys(frozenset(primitive_row(form).items()) for form in forms):
        elim.add_row(dict(form))
    rows = elim.reduced_pivot_rows()
    constraints = tuple(QuadraticForm(names, rows[lead]) for lead in sorted(rows))
    return LinearVariety(variety.algebra, names, variety.nullspace_basis, constraints, variety.modified)


def _jacobi_forms(variety: LinearVariety, generators):
    """The nonzero entries of the jacobiators of the general element on generators^3.

    The jacobiator (``axioms.jacobiator_parts``) sums three first-leg
    products F(i,j,k) = {{e_i, {{e_j, e_k}}}}_L with their legs permuted,
    each computed by polarization from ``axioms.first_leg_pairs``.
    J(j, k, i) = tau132 J(i, j, k) for any coefficient tensor, so one triple
    per cyclic class is scanned, the least of its rotations.
    """
    n = variety.algebra.dim
    slots = _slot_forms(variety)
    keys = _monomial_keys(variety.dim)
    # entry (c, d, b) sits at index (c * n + d) * n + b
    cells = list(product(range(n), repeat=3))
    index = {p: k for k, p in enumerate(cells)}
    perms = {legs: [index[p[legs[0]], p[legs[1]], p[legs[2]]] for p in cells] for legs in JACOBI_LEGS}
    for i, j, k in product(generators, repeat=3):
        if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
            continue
        parts = list(jacobiator_parts(i, j, k))
        forms = {
            t: _quadratic_sum(first_leg_pairs(slots[t[0]], slots[t[1]][t[2]]), keys, index) for t, _ in parts
        }
        yield from _combine((1, perms[legs], forms[t]) for t, legs in parts)


def jacobi_constraints(variety: LinearVariety, generators=None) -> LinearVariety:
    """Quadratic constraints from the double Jacobi identity on the general element.

    Precondition: the basis brackets satisfy skew symmetry and the Leibniz
    rule, as the ``solve_linear`` basis does.  Then the triple bracket
    {{a, b, c}} of every bracket in their span is a derivation in each
    argument and vanishes when an argument is 1 (Van den Bergh, Double
    Poisson algebras, 2008, section 2.3).  So the jacobiators on triples of
    algebra generators span the same constraint space as those on all basis
    triples, and only those are scanned: ``generators``, by default
    ``algebra.generating_set``.  The constraints are the reduced echelon
    basis of that span.
    """
    if variety.dim == 0:
        return variety
    if generators is None:
        generators = generating_set(variety.algebra)
    return _with_constraints(variety, _jacobi_forms(variety, generators))


def h0_jacobi_constraints(variety: LinearVariety, generators=None) -> LinearVariety:
    """Quadratic constraints from the modified Jacobi identity (H0 bracket).

    With M(a, b) = m({{e_a, e_b}}) as linear forms, the residual
    {e_i,{e_j,e_k}} - {e_j,{e_i,e_k}} - {{e_i,e_j},e_k} is
    F(i,j,k) - F(j,i,k) - H(i,j,k) for F(i,j,k) = sum_b M(j,k)_b M(i,b) and
    H(i,j,k) = sum_a M(i,j)_a M(a,k) (``axioms.h0_jacobiator_parts``); each
    F is computed once.

    Precondition: the basis brackets satisfy the Leibniz rule in the second
    argument, as the ``solve_modified_linear`` basis does.  Then {a, -} =
    m({{a, -}}) is a derivation of A for every a, so the residual is
    [D_a, D_b](c) - D_{a,b}(c) with D_x = {x, -}: a derivation in c, which
    vanishes at c = 1.  So the triples whose third entry runs over algebra
    generators span the same constraint space as all basis triples, and only
    those are scanned: ``generators``, by default ``algebra.generating_set``.
    The constraints are the reduced echelon basis of that span.
    """
    if variety.dim == 0:
        return variety
    alg = variety.algebra
    n = alg.dim
    if generators is None:
        generators = generating_set(alg)
    slots = _slot_forms(variety)
    keys = _monomial_keys(variety.dim)
    # the structure constants scaled to integers: again a uniform factor
    mul = _integer_products(alg)
    # table[a][b] = [(c, form)]: coordinate c of m({{e_a, e_b}})
    table = [[_multiplied_forms(mul, slots[a][b]) for b in range(n)] for a in range(n)]
    same = list(range(n))
    nested: dict = {}

    def part(t, left):
        if (t, left) not in nested:
            nested[t, left] = _quadratic_sum(nested_pairs(table, *t, left), keys, same)
        return nested[t, left]

    def residual_entries():
        for i, j, k in product(range(n), range(n), generators):
            yield from _combine(
                (sign, same, part(t, left)) for sign, t, left in h0_jacobiator_parts(i, j, k)
            )

    return _with_constraints(variety, residual_entries())


def _multiplied_forms(mul, slot) -> list:
    """The nonzero (c, form) of m({{e_a, e_b}}) for a slot of linear forms (``axioms.multiplied_terms``)."""
    coords: dict[int, dict[int, int | Fraction]] = {}
    for c, m, f in multiplied_terms(mul, slot):
        acc = coords.setdefault(c, {})
        for k, u in f:
            acc[k] = acc.get(k, 0) + m * u
    forms = ((c, tuple((k, u) for k, u in coords[c].items() if u)) for c in sorted(coords))
    return [(c, form) for c, form in forms if form]


def solve_modified(algebra: FDAlgebra) -> LinearVariety:
    """Full modified-bracket classification: linear part + quadratic constraints."""
    return h0_jacobi_constraints(solve_modified_linear(algebra))


def solve(algebra: FDAlgebra) -> LinearVariety:
    """Full double-bracket classification: linear part + quadratic constraints.

    One generating set serves both stages.
    """
    generators = generating_set(algebra)
    return jacobi_constraints(solve_linear(algebra, generators=generators), generators=generators)


# -- innerness probes ------------------------------------------------------------


def _inner_derivation_rows(algebra: FDAlgebra):
    """The inner generators a -> a.m - m.a, m = e_p(x)e_q, as sparse rows in (p, q) order.

    ``axioms.inner_derivation_terms`` is folded on the generic m whose
    payload at (p, q) is the generator p * n + q; columns are the derivation
    coordinates (i * n + a) * n + b of ``_derivation_rows``.
    """
    n = algebra.dim
    generic = _generic_slot(n, 0)
    rows: list[dict] = [{} for _ in range(n * n)]
    for i in range(n):
        for (a, b), v, g in inner_derivation_terms(algebra.products, generic, i):
            row, idx = rows[g], (i * n + a) * n + b
            row[idx] = row.get(idx, 0) + v
    return [{idx: v for idx, v in row.items() if v} for row in rows]


def double_derivation_space(algebra: FDAlgebra):
    """(basis of Der(A, A(x)A), inner generators a -> a.m - m.a over basis m).

    The derivation space is the nullspace of the outer-structure Leibniz
    system on maps A -> A(x)A; both lists come back as DoubleDerivation
    values (the inner generators are not linearly independent in general),
    their images read off the sparse rows.
    """
    n = algebra.dim

    def derivation(row) -> DoubleDerivation:
        images = [{} for _ in range(n)]
        for idx, v in row.items():
            i, ab = divmod(idx, n * n)
            images[i][divmod(ab, n)] = v
        return DoubleDerivation(algebra, tuple(Tensor2(algebra, terms) for terms in images))

    der_basis = [derivation(vec) for vec in _derivation_basis(algebra, generating_set(algebra))]
    inner_gens = [derivation(row) for row in _inner_derivation_rows(algebra)]
    return der_basis, inner_gens


def outer_double_derivation_dim(algebra: FDAlgebra) -> tuple[int, int, int]:
    """(dim Der(A, A(x)A), dim Inn(A, A(x)A), dim of the quotient).

    The difference of the first two is the HH^1(A, A(x)A) dimension probe.
    """
    n = algebra.dim
    dim_der = n**3 - rank_of_rows(_derivation_rows(algebra, generating_set(algebra)), n**3)
    dim_inner = rank_of_rows(_inner_derivation_rows(algebra), n**3)
    return dim_der, dim_inner, dim_der - dim_inner


def inner_bracket_span(algebra: FDAlgebra) -> list[DoubleBracket]:
    """Inner brackets of the wedge basis (their span is the inner-bracket space)."""
    return [inner_bracket(w) for w in wedge_basis(algebra)]


def inner_bracket_span_equality(algebra: FDAlgebra) -> bool:
    """True iff the solve_linear nullspace equals the span of inner brackets.

    Both spans are ranked as sparse rows over the flat C columns, read off
    the brackets' terms.
    """
    nullspace = [db.flat_terms() for db in solve_linear(algebra).nullspace_basis]
    inner = [db.flat_terms() for db in inner_bracket_span(algebra)]
    return row_spans_equal(nullspace, inner, algebra.dim**4)
