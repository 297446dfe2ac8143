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

The Jacobi residual of the general element sum_k t_k B_k is a quadratic form
in t, so the constraints are computed by polarization: integer bilinear
arithmetic on the basis brackets B_k, with MultiPoly values built only for the
finished constraints.  For double brackets only the triples of algebra
generators are scanned (``algebra.generating_set``): the triple bracket of a
bracket that satisfies skew symmetry and Leibniz is a derivation in each
argument, so these span the same constraint space as all basis triples;
modified brackets scan every basis triple.  The constraints are the reduced
echelon basis of that span over the monomials t_k t_l: their count is the
rank of the span, each has leading coefficient 1, and they are listed by
leading monomial t_k t_l in ascending (k, l) order, which is descending
graded lex.

The parameter order is the elimination order of the nullspace engine (free
columns ascending), which is deterministic but not canonical; golden tests
reparametrize to the classical parameters via documented coefficient slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra import FDAlgebra, commutator_subspace, generating_set
from .brackets import CoefficientBracket, DoubleBracket
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
from .poly import MultiPoly, PolyRing


@dataclass(frozen=True)
class LinearVariety:
    """General solution of the linear axioms plus residual quadratic constraints.

    Every nullspace point satisfies the linear axioms; a point yields a bracket
    satisfying the full axiom set iff it also kills every quadratic constraint.
    """

    algebra: FDAlgebra
    parameter_names: tuple[str, ...]
    nullspace_basis: tuple[CoefficientBracket, ...]
    quadratic_constraints: tuple[MultiPoly, ...]
    modified: bool = False

    @property
    def dim(self) -> int:
        return len(self.nullspace_basis)

    def ring(self) -> PolyRing:
        return PolyRing(self.parameter_names)

    def general_element(self) -> CoefficientBracket:
        """sum_k t_k * (basis bracket k), with MultiPoly coefficients."""
        ring = self.ring()
        cls = ModifiedBracket if self.modified else DoubleBracket
        total = cls.zero(self.algebra)
        for name, basis in zip(self.parameter_names, self.nullspace_basis):
            total = total + basis.scale(ring.var(name))
        return total

    def point(self, values) -> CoefficientBracket:
        """Rational specialization of the general element."""
        cls = ModifiedBracket if self.modified else DoubleBracket
        total = cls.zero(self.algebra)
        for v, basis in zip(values, self.nullspace_basis):
            total = total + basis.scale(Fraction(v))
        return total


def _flat_index(n: int, i: int, j: int, a: int, b: int) -> int:
    return ((i * n + j) * n + a) * n + b


def _skew_rows(algebra: FDAlgebra):
    """C[i][j][a][b] + C[j][i][b][a] = 0 for every index tuple."""
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    left = _flat_index(n, i, j, a, b)
                    right = _flat_index(n, j, i, b, a)
                    if left > right:
                        continue
                    if left == right:
                        yield {left: 2}
                    else:
                        yield {left: 1, right: 1}


def _integer_products(algebra: FDAlgebra):
    """The product table times the common denominator of its entries."""
    den = _common_denominator(v for row in algebra.products for terms in row for _, v in terms)
    return [[[(k, int(v * den)) for k, v in terms] for terms in row] for row in algebra.products]


def _derivation_rows(algebra: FDAlgebra, shift: int = 0, strides: tuple[int, int, int] | None = None):
    """delta(e_k e_l) = delta(e_k).e_l + e_k.delta(e_l) at each leg pair (c, d), outer actions.

    The coefficient of e_a(x)e_b in delta(e_m) is the unknown at column
    shift + m * sm + a * sa + b * sb for (sm, sa, sb) = strides, by default
    (n^2, n, 1).  Rows come in (k, l, c, d) order, read from the product table
    scaled to integers, which scales every row by the same factor.
    """
    n = algebra.dim
    sm, sa, sb = strides or (n * n, n, 1)
    prods = _integer_products(algebra)
    # left[k][c] = [(a, v)]: v e_c is a term of e_k e_a; right[l][d] = [(b, v)]: of e_b e_l
    left = [[[] for _ in range(n)] for _ in range(n)]
    right = [[[] for _ in range(n)] for _ in range(n)]
    for x, row in enumerate(prods):
        for y, terms in enumerate(row):
            for z, v in terms:
                left[x][z].append((y, v))
                right[y][z].append((x, v))
    for k in range(n):
        for l in range(n):
            kl = prods[k][l]
            for c in range(n):
                kc = left[k][c]
                for d in range(n):
                    ld = right[l][d]
                    if not (kl or kc or ld):
                        continue
                    row: dict[int, int] = {}
                    for m, v in kl:
                        idx = shift + m * sm + c * sa + d * sb
                        row[idx] = row.get(idx, 0) + v
                    for a, v in kc:
                        idx = shift + l * sm + a * sa + d * sb
                        row[idx] = row.get(idx, 0) - v
                    for b, v in ld:
                        idx = shift + k * sm + c * sa + b * sb
                        row[idx] = row.get(idx, 0) - v
                    row = {idx: v for idx, v in row.items() if v}
                    if row:
                        yield row


def _first_leibniz_rows(algebra: FDAlgebra):
    """{{e_k e_l, e_i}} = (1(x)e_k){{e_l,e_i}} + {{e_k,e_i}}(e_l(x)1), componentwise.

    x -> {{x, e_i}} obeys the Leibniz rule for the inner actions; with its
    tensor legs swapped it is a double derivation, so slot i gets the
    derivation rows on the columns C[m][i][b][a].
    """
    n = algebra.dim
    for i in range(n):
        yield from _derivation_rows(algebra, i * n * n, (n**3, 1, n))


def _h0_skew_rows(algebra: FDAlgebra):
    """Complement components of m({{e_i,e_j}}) + m({{e_j,e_i}}) must vanish."""
    n = algebra.dim
    mul = algebra.mul
    sub = commutator_subspace(algebra)
    # flat-projection of each basis product e_a e_b, as a row over A_flat coords
    flat_products = {}
    for a in range(n):
        for b in range(n):
            flat_products[(a, b)] = sub.project_flat(mul[a][b])
    for i in range(n):
        for j in range(i, n):
            for comp in range(sub.flat_dim):
                row: dict[int, Fraction] = {}
                for a in range(n):
                    for b in range(n):
                        coeff = flat_products[(a, b)][comp]
                        if coeff == 0:
                            continue
                        for idx in (
                            _flat_index(n, i, j, a, b),
                            _flat_index(n, j, i, a, b),
                        ):
                            s = row.get(idx, Fraction(0)) + coeff
                            if s == 0:
                                row.pop(idx, None)
                            else:
                                row[idx] = s
                if row:
                    yield row


def _rows_to_variety(algebra: FDAlgebra, rows, modified: bool) -> LinearVariety:
    """The variety with one basis bracket per sparse row over the flat C columns."""
    cls = ModifiedBracket if modified else DoubleBracket
    basis = tuple(cls.from_flat(algebra, row) for row in rows)
    names = tuple(f"t{k}" for k in range(len(basis)))
    return LinearVariety(algebra, names, basis, (), modified)


def _derivation_basis(algebra: FDAlgebra) -> list[dict[int, Fraction]]:
    """Basis of Der(A, A(x)A) as sparse rows over the columns of _derivation_rows."""
    return nullspace_of_rows(_derivation_rows(algebra), algebra.dim**3)


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


def _solve_over_derivations(algebra: FDAlgebra, rows, modified: bool) -> LinearVariety:
    """The brackets whose slots {{e_i, -}} are double derivations and that satisfy `rows`.

    `rows` are constraints over the flat C columns.  Each derivation basis
    vector is scaled to integers; the span, and so the canonical basis of
    the answer, does not depend on the scaling.
    """
    n = algebra.dim
    n3 = n**3
    scaled = []
    for vec in _derivation_basis(algebra):
        den = _common_denominator(vec.values())
        scaled.append({c: int(v * den) for c, v in vec.items()})
    p = len(scaled)
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n3)]
    for d, vec in enumerate(scaled):
        for c, w in vec.items():
            columns[c].append((d, w))
    brackets = []
    for x in nullspace_of_rows(_substitute(rows, columns, p), n * p):
        flat: dict[int, Fraction] = {}
        for col, coeff in x.items():
            i, d = divmod(col, p)
            for c, w in scaled[d].items():
                idx = i * n3 + c
                flat[idx] = flat.get(idx, 0) + coeff * w
        brackets.append(flat)
    return _rows_to_variety(algebra, canonical_basis(brackets, n**4), modified)


def solve_linear(algebra: FDAlgebra) -> LinearVariety:
    """Nullspace of skew symmetry plus the second-argument Leibniz rule on C[i][j][a][b]."""
    return _solve_over_derivations(algebra, _skew_rows(algebra), modified=False)


def solve_modified_linear(algebra: FDAlgebra) -> LinearVariety:
    """Nullspace of both Leibniz rules plus the (linear) H0-skew condition."""

    def rows():
        yield from _first_leibniz_rows(algebra)
        yield from _h0_skew_rows(algebra)

    return _solve_over_derivations(algebra, rows(), modified=True)


# -- quadratic constraints by polarization -------------------------------------
#
# The general element sum_k t_k B_k has a linear form in t in every coefficient
# slot, so each Jacobi residual entry is a quadratic form in t, computed from
# the basis brackets by bilinear arithmetic.  A linear form is a tuple of
# (k, c) pairs with integer c: every basis bracket is scaled by one common
# denominator, a uniform factor that does not change the span of the forms.  A
# quadratic form is a map from monomial key to integer, where t_k t_l (k <= l)
# has key k * p + l; the smallest key of a form is its graded-lex leading
# monomial.


def _common_denominator(values) -> int:
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return den


def _slot_forms(variety: LinearVariety):
    """slots[i][j] = [(a, b, form)] over the nonzero C[i][j][a][b] of the general element."""
    n = variety.algebra.dim
    terms = [basis.terms for basis in variety.nullspace_basis]
    den = _common_denominator(v for t in terms for row in t for slot in row for _, _, v in slot)
    slots = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            forms: dict[tuple[int, int], list] = {}
            for k, t in enumerate(terms):
                for a, b, v in t[i][j]:
                    forms.setdefault((a, b), []).append((k, int(v * den)))
            slots[i][j] = [(a, b, tuple(forms[a, b])) for a, b in sorted(forms)]
    return slots


def _monomial_keys(p: int) -> list[list[int]]:
    """keys[k][l]: the key of the monomial t_k t_l."""
    return [[min(k, l) * p + max(k, l) for l in range(p)] for k in range(p)]


def _quadratic_sum(products, keys) -> dict[int, dict[int, int]]:
    """position -> quadratic form, summing f * g over the (position, f, g) products."""
    out: dict[int, dict[int, int]] = {}
    for pos, f, g in products:
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
    total: dict[int, dict[int, int]] = {}
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

    The integer forms are eliminated on the monomial keys, pivots at the
    smallest key, which is the leading monomial.  The reduced pivot rows are
    listed by ascending key, each scaled to leading coefficient 1.  So the
    constraints depend only on the span of the forms, and their count is its
    rank.
    """
    ring = variety.ring()
    p = variety.dim

    def monomial(key: int) -> tuple[int, ...]:
        exps = [0] * p
        for k in divmod(key, p):
            exps[k] += 1
        return tuple(exps)

    # one representative per primitive integer form reaches the elimination
    elim = SparseEliminator(p * p)
    for form in dict.fromkeys(frozenset(primitive_row(form).items()) for form in forms):
        elim.add_row(dict(form))
    rows = elim.reduced_pivot_rows()
    constraints = []
    for lead in sorted(rows):
        row = rows[lead]
        pivot = row[lead]
        constraints.append(MultiPoly(ring, {monomial(key): v / pivot for key, v in row.items()}))
    return LinearVariety(
        variety.algebra,
        variety.parameter_names,
        variety.nullspace_basis,
        tuple(constraints),
        variety.modified,
    )


def _jacobi_forms(variety: LinearVariety, generators):
    """The nonzero entries of the jacobiators of the general element on generators^3.

    The jacobiator J(i, j, k) is F(i,j,k) + tau123 F(j,k,i) + tau132 F(k,i,j)
    with first-leg products F(i,j,k) = {{e_i, {{e_j, e_k}}}}_L, computed by
    polarization.  J(j, k, i) = tau132 J(i, j, k) for any coefficient tensor,
    so one triple per cyclic class is scanned, the least of its rotations.
    """
    n = variety.algebra.dim
    slots = _slot_forms(variety)
    keys = _monomial_keys(variety.dim)

    def first_leg(i: int, j: int, k: int):
        # entry (c, d, b) of F sits at position (c * n + d) * n + b
        return _quadratic_sum(
            (
                ((c * n + d) * n + b, f, g)
                for a, b, f in slots[j][k]
                for c, d, g in slots[i][a]
            ),
            keys,
        )

    # tau123 moves entry (x, y, z) to (z, x, y); tau132 moves it to (y, z, x)
    same = list(range(n**3))
    tau123 = [(z * n + x) * n + y for x in range(n) for y in range(n) for z in range(n)]
    tau132 = [(y * n + z) * n + x for x in range(n) for y in range(n) for z in range(n)]
    for i, j, k in product(generators, repeat=3):
        if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
            continue
        legs = {t: first_leg(*t) for t in ((i, j, k), (j, k, i), (k, i, j))}
        yield from _combine(
            (
                (1, same, legs[i, j, k]),
                (1, tau123, legs[j, k, i]),
                (1, tau132, legs[k, i, j]),
            )
        )


def jacobi_constraints(variety: LinearVariety) -> LinearVariety:
    """Quadratic constraints from the double Jacobi identity on the general element.

    Precondition: the basis brackets satisfy skew symmetry and the Leibniz
    rule, as the ``solve_linear`` basis does.  Then the triple bracket
    {{a, b, c}} of every bracket in their span is a derivation in each
    argument and vanishes when an argument is 1 (Van den Bergh, Double
    Poisson algebras, 2008, section 2.3).  So the jacobiators on triples of
    the generators from ``algebra.generating_set`` span the same constraint
    space as those on all basis triples, and only those are scanned.  The
    constraints are the reduced echelon basis of that span.
    """
    if variety.dim == 0:
        return variety
    return _with_constraints(variety, _jacobi_forms(variety, generating_set(variety.algebra)))


def h0_jacobi_constraints(variety: LinearVariety) -> LinearVariety:
    """Quadratic constraints from the modified Jacobi identity (H0 bracket).

    With M(a, b) = m({{e_a, e_b}}) as linear forms, the residual
    {e_i,{e_j,e_k}} - {e_j,{e_i,e_k}} - {{e_i,e_j},e_k} is
    F(i,j,k) - F(j,i,k) - H(i,j,k) for F(i,j,k) = sum_b M(j,k)_b M(i,b) and
    H(i,j,k) = sum_a M(i,j)_a M(a,k); each F is computed once.  No
    derivation property is known for this residual, so every basis triple
    is scanned.  The constraints are the reduced echelon basis of the span
    of the nonzero coordinates.
    """
    if variety.dim == 0:
        return variety
    alg = variety.algebra
    n = alg.dim
    slots = _slot_forms(variety)
    keys = _monomial_keys(variety.dim)
    # the structure constants scaled to integers: again a uniform factor
    mul = _integer_products(alg)
    # multiplied[a][b] = [(c, form)]: coordinate c of m({{e_a, e_b}})
    multiplied = [[[] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            coords: dict[int, dict[int, int]] = {}
            for x, y, f in slots[a][b]:
                for c, m in mul[x][y]:
                    acc = coords.setdefault(c, {})
                    for k, u in f:
                        acc[k] = acc.get(k, 0) + m * u
            for c in sorted(coords):
                form = tuple((k, u) for k, u in coords[c].items() if u)
                if form:
                    multiplied[a][b].append((c, form))
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    nested = {
        (i, j, k): _quadratic_sum(
            ((c, f, g) for b, f in multiplied[j][k] for c, g in multiplied[i][b]), keys
        )
        for i, j, k in triples
    }
    same = list(range(n))

    def residual_entries():
        for i, j, k in triples:
            left_nested = _quadratic_sum(
                ((c, f, g) for a, f in multiplied[i][j] for c, g in multiplied[a][k]), keys
            )
            yield from _combine(
                (
                    (1, same, nested[i, j, k]),
                    (-1, same, nested[j, i, k]),
                    (-1, same, left_nested),
                )
            )

    return _with_constraints(variety, residual_entries())


def solve_modified(algebra: FDAlgebra) -> LinearVariety:
    """Full modified-bracket classification: linear part + quadratic constraints."""
    return h0_jacobi_constraints(solve_modified_linear(algebra))


def solve(algebra: FDAlgebra) -> LinearVariety:
    """Full double-bracket classification: linear part + quadratic constraints."""
    return jacobi_constraints(solve_linear(algebra))


# -- innerness probes ------------------------------------------------------------


def _inner_derivation_rows(algebra: FDAlgebra):
    """The inner generators a -> a.m - m.a, m = e_p(x)e_q, as sparse rows in (p, q) order.

    Columns are the derivation coordinates (i * n + a) * n + b of
    _derivation_rows: the image of e_i is e_i e_p (x) e_q - e_p (x) e_q e_i.
    """
    n = algebra.dim
    prods = algebra.products
    for p in range(n):
        for q in range(n):
            row: dict[int, Fraction] = {}
            for i in range(n):
                for x, v in prods[i][p]:
                    idx = (i * n + x) * n + q
                    row[idx] = row.get(idx, 0) + v
                for y, v in prods[q][i]:
                    idx = (i * n + p) * n + y
                    row[idx] = row.get(idx, 0) - v
            yield {idx: v for idx, v in row.items() if v}


def double_derivation_space(algebra: FDAlgebra):
    """(basis of Der(A, A(x)A), inner generators a -> a.m - m.a over basis m).

    The derivation space is the nullspace of the outer-structure Leibniz
    system on maps A -> A(x)A; both lists come back as DoubleDerivation
    values (the inner generators are not linearly independent in general).
    """
    from .brackets import DoubleDerivation

    n = algebra.dim
    zero = Fraction(0)

    def derivation(coords) -> DoubleDerivation:
        grids = [
            [[coords.get((i * n + a) * n + b, zero) for b in range(n)] for a in range(n)]
            for i in range(n)
        ]
        return DoubleDerivation.from_grids(algebra, grids)

    der_basis = [derivation(vec) for vec in _derivation_basis(algebra)]
    inner_gens = [derivation(row) for row in _inner_derivation_rows(algebra)]
    return der_basis, inner_gens


def outer_double_derivation_dim(algebra: FDAlgebra) -> tuple[int, int, int]:
    """(dim Der(A, A(x)A), dim Inn(A, A(x)A), dim of the quotient).

    The difference of the first two is the HH^1(A, A(x)A) dimension probe.
    """
    n = algebra.dim
    dim_der = n**3 - rank_of_rows(_derivation_rows(algebra), n**3)
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
