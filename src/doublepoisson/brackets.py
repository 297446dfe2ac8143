"""Double brackets as coefficient tensors, and the three axioms.

A bracket is the tensor C[i][j][a][b] with {{e_i, e_j}} = sum C[i][j][a][b]
e_a (x) e_b; coefficients may be exact rationals or polynomials in declared
formal parameters.  For parametrized brackets an axiom "holds" when every
residual coefficient is the identically-zero polynomial, unless a RelationSet
of parameter constraints is supplied to quotient by.

The stored form is sparse: ``terms[i][j]`` holds the nonzero (a, b,
C[i][j][a][b]) in (a, b) order.  Every constructor builds it directly, and
``coeffs`` and ``flat_coeffs()`` are dense views derived on demand.

Each axiom is written once, in ``axioms``: one generator per axiom.  The
linear checkers fold it over the bracket's ``terms`` and the product table
``products``, so a residual, a sparse tensor {position: coefficient}, sums
nonzero coefficients only; a witness wraps it in a Tensor2 or Tensor3.  The
Jacobi axioms have one fold, the quadratic scan here (``_jacobi_scan`` and
``_h0_jacobi_scan``), which the solver runs on the span of its nullspace
basis and the checkers on their own bracket.

A rational coefficient follows the scalar rule of ``poly.exact_scalar``: an
int when its denominator is 1, a Fraction otherwise, never a float.  Parsed
brackets and preset algebras hold ints wherever they are integral, and the
folds start from the int 0, so a residual is built from ints unless a
coefficient has a denominator.
"""

from __future__ import annotations

from itertools import groupby, product

from .algebra import AlgebraError, AlgElement, FDAlgebra
from .axioms import (
    JACOBI_LEGS,
    derivation_terms,
    first_leg_pairs,
    flipped,
    h0_jacobiator_parts,
    inner_derivation_terms,
    jacobiator_parts,
    multiplied_terms,
    nested_pairs,
    skew_terms,
)
from .poly import MultiPoly, RelationSet, Scalar
from .tensors import _ZERO, Tensor2, Tensor3, tensor_from_terms


def _residual(terms) -> dict:
    """The checker fold of a linear rule: coefficient * payload summed at each position."""
    out: dict = {}
    for pos, c, v in terms:
        prev = out.get(pos)
        out[pos] = c * v if prev is None else prev + c * v
    return out


def _pair_residual(pairs) -> dict:
    """The checker fold of a bilinear rule: x * y summed at each position."""
    out: dict = {}
    for pos, x, y in pairs:
        prev = out.get(pos)
        out[pos] = x * y if prev is None else prev + x * y
    return out


def _residual_zero(value, rels: RelationSet | None) -> bool:
    if isinstance(value, MultiPoly) and rels is not None:
        return rels.normal_form(value).is_zero()
    return not value


def _terms_zero_mod(terms: dict, rels: RelationSet | None) -> bool:
    return all(_residual_zero(v, rels) for v in terms.values())


def _witnesses(axiom: str, indices, residual, to_tensor, rels) -> list:
    """[((axiom, *idx), tensor)] for each idx whose sparse residual is not zero."""
    out = []
    for idx in indices:
        terms = residual(*idx)
        if not _terms_zero_mod(terms, rels):
            out.append(((axiom, *idx), to_tensor(terms)))
    return out


# -- the Jacobi scan --------------------------------------------------------------
#
# The quadratic fold of both Jacobi axioms, shared by the checkers and the
# solver.  Over brackets B_0..B_{p-1} with term tables ``tables``, the element
# sum_k t_k B_k has a linear form in t in every coefficient slot, so each
# Jacobi residual entry is a quadratic form in t, computed from the brackets
# by bilinear arithmetic.  A linear form is a tuple of (k, c) pairs with c
# the coefficient of B_k as it is, an int wherever B_k is integral.  A
# quadratic form is a map from monomial key to exact scalar, where t_k t_l
# (k <= l) has key k * p + l; the smallest key of a form is its graded-lex
# leading monomial.  A checker scans its own bracket alone: p = 1, every
# linear form is ((0, C),) and every quadratic form is {0: residual entry}.


def _slot_forms(tables) -> list:
    """slots[i][j] = [(a, b, form)] over the nonzero C[i][j][a][b] of sum_k t_k B_k, B_k with terms tables[k]."""
    n = len(tables[0])
    slots = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            forms: dict[tuple[int, int], list] = {}
            for k, t in enumerate(tables):
                for a, b, v in t[i][j]:
                    forms.setdefault((a, b), []).append((k, v))
            slots[i][j] = [(a, b, tuple(forms[a, b])) for a, b in sorted(forms)]
    return slots


def _monomial_keys(p: int) -> list[list[int]]:
    """keys[k][l]: the key of the monomial t_k t_l."""
    return [[min(k, l) * p + max(k, l) for l in range(p)] for k in range(p)]


def _forms(parts, keys):
    """The nonzero (position, quadratic form) of sum(sign * f * g), positions ascending, keys ascending.

    ``parts`` are (sign, land, products) with (position, f, g) products of
    linear forms: sign * f * g adds to the form at land[position].  Every
    product goes into one map, keyed land[position] * p^2 + monomial key, so
    one sort of its keys lists the forms by position and each form by key.
    """
    p2 = len(keys) ** 2
    total: dict = {}
    get = total.get
    for sign, land, products in parts:
        for pos, f, g in products:
            base = land[pos] * p2
            for k, u in f:
                row = keys[k]
                if sign < 0:
                    u = -u
                for l, v in g:
                    key = base + row[l]
                    total[key] = get(key, 0) + u * v
    form: dict = {}
    last = -1
    for key in sorted(total):
        v = total[key]
        if v:
            pos, key = divmod(key, p2)
            if pos != last:
                if form:
                    yield last, form
                form, last = {}, pos
            form[key] = v
    if form:
        yield last, form


def _multiplied_forms(prods, slot) -> list:
    """The nonzero (c, form) of m({{e_a, e_b}}) for a slot of linear forms (``axioms.multiplied_terms``)."""
    coords: dict[int, dict] = {}
    for c, m, f in multiplied_terms(prods, slot):
        acc = coords.setdefault(c, {})
        for k, u in f:
            acc[k] = acc.get(k, 0) + m * u
    forms = ((c, tuple((k, u) for k, u in coords[c].items() if u)) for c in sorted(coords))
    return [(c, form) for c, form in forms if form]


def _jacobi_scan(tables, generators):
    """(triple, cell, form) over the nonzero entries of the jacobiators on generators^3, one triple per cyclic class.

    The jacobiator (``axioms.jacobiator_parts``) sums three first-leg
    products F(i,j,k) = {{e_i, {{e_j, e_k}}}}_L with their legs permuted,
    each computed by polarization from ``axioms.first_leg_pairs``.  Every
    product lands, through the map from its cell to the index of the cell
    its legs send it to, in the triple's total (``_forms``); cell (c, d, b)
    has index (c * n + d) * n + b, and the entries come out in index order.
    J(j, k, i) = tau132 J(i, j, k) for any coefficient tensor, so one triple
    per cyclic class is scanned, the least of its rotations, in product order.
    """
    slots = _slot_forms(tables)
    keys = _monomial_keys(len(tables))
    n = len(slots)
    cells = list(product(range(n), repeat=3))
    index = {p: k for k, p in enumerate(cells)}
    lands = {
        legs: index if legs == (0, 1, 2) else {p: index[p[legs[0]], p[legs[1]], p[legs[2]]] for p in cells}
        for legs in JACOBI_LEGS
    }
    for t in product(generators, repeat=3):
        i, j, k = t
        if t > (j, k, i) or t > (k, i, j):
            continue
        parts = jacobiator_parts(i, j, k)
        parts = ((1, lands[legs], first_leg_pairs(slots[a], slots[b][c])) for (a, b, c), legs in parts)
        for pos, form in _forms(parts, keys):
            yield t, cells[pos], form


def _h0_jacobi_scan(tables, prods, generators):
    """(triple, coordinate, form) over the nonzero coordinates of the H0 Jacobi residuals on (i, j, k), k in generators.

    With M(a, b) = m({{e_a, e_b}}) over the product table ``prods``, each
    residual sums the signed products of ``axioms.nested_pairs`` at their
    coordinates (``_forms``), and its coordinates come out in order.
    """
    slots = _slot_forms(tables)
    keys = _monomial_keys(len(tables))
    n = len(slots)
    # table[a][b] = [(c, form)]: coordinate c of M(a, b)
    table = [[_multiplied_forms(prods, slots[a][b]) for b in range(n)] for a in range(n)]
    same = range(n)
    for t in product(range(n), range(n), generators):
        parts = ((sign, same, nested_pairs(table, *u, left)) for sign, u, left in h0_jacobiator_parts(*t))
        for c, form in _forms(parts, keys):
            yield t, c, form


class AxiomReport:
    __slots__ = ("skew_ok", "leibniz_ok", "jacobi_ok", "residuals")

    def __init__(self, skew_ok: bool, leibniz_ok: bool, jacobi_ok: bool, residuals: tuple = ()):
        self.skew_ok = skew_ok
        self.leibniz_ok = leibniz_ok
        self.jacobi_ok = jacobi_ok
        self.residuals = residuals

    @property
    def all_ok(self) -> bool:
        return self.skew_ok and self.leibniz_ok and self.jacobi_ok


class CoefficientBracket:
    """Shared storage/evaluation for double and modified brackets.

    ``terms[i][j]`` is the tuple of nonzero (a, b, C[i][j][a][b]) of
    {{e_i, e_j}}, in (a, b) order; the constructor takes it as given.
    ``from_slots``, ``from_entries`` and ``from_flat`` build it from
    unordered or summed data.
    """

    __slots__ = ("algebra", "terms", "params")

    def __init__(self, algebra: FDAlgebra, terms, params: tuple[str, ...] = ()):
        n = algebra.dim
        if len(terms) != n or any(len(row) != n for row in terms):
            raise AlgebraError("coefficient tensor has wrong shape")
        self.algebra = algebra
        self.terms = tuple(tuple(tuple(slot) for slot in row) for row in terms)
        self.params = tuple(params)

    @classmethod
    def zero(cls, algebra: FDAlgebra):
        n = algebra.dim
        return cls(algebra, [[()] * n for _ in range(n)])

    @classmethod
    def from_slots(cls, algebra: FDAlgebra, slots, params: tuple[str, ...] = ()):
        """The bracket with C[i][j][a][b] = slots[i][j][(a, b)]; zero values are dropped."""
        terms = [
            [
                [(a, b, v) for (a, b), v in sorted(slot.items()) if v]
                for slot in row
            ]
            for row in slots
        ]
        return cls(algebra, terms, params)

    @classmethod
    def from_entries(cls, algebra: FDAlgebra, entries, params: tuple[str, ...] = ()):
        """Build from (i, j, a, b, coeff) tuples; repeated positions are summed."""
        n = algebra.dim
        slots = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, a, b, c in entries:
            if not all(0 <= k < n for k in (i, j, a, b)):
                raise AlgebraError(f"bracket entry {(i, j, a, b)} not in 0..{n - 1}")
            slot = slots[i][j]
            slot[(a, b)] = slot.get((a, b), 0) + c
        return cls.from_slots(algebra, slots, params)

    @classmethod
    def from_flat(cls, algebra: FDAlgebra, entries: dict):
        """The bracket whose C[i][j][a][b] is entries[((i * n + j) * n + a) * n + b], else 0.

        ``entries`` holds nonzero values only, so its sorted keys are the terms.
        """
        n = algebra.dim
        terms = [[[] for _ in range(n)] for _ in range(n)]
        for idx in sorted(entries):
            ij, ab = divmod(idx, n * n)
            terms[ij // n][ij % n].append((ab // n, ab % n, entries[idx]))
        return cls(algebra, terms)

    def entries(self):
        """The nonzero (i, j, a, b, C[i][j][a][b]), in (i, j, a, b) order."""
        for i, row in enumerate(self.terms):
            for j, slot in enumerate(row):
                for a, b, v in slot:
                    yield (i, j, a, b, v)

    def flat_terms(self) -> dict:
        """The nonzero C[i][j][a][b] keyed by ((i * n + j) * n + a) * n + b (see from_flat)."""
        n = self.algebra.dim
        return {((i * n + j) * n + a) * n + b: v for i, j, a, b, v in self.entries()}

    # -- dense views (tests and small reports) ------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The dense tensor C[i][j][a][b], zeros filled in, built on each call."""
        n = self.algebra.dim
        return tuple(tuple(self.eval_basis(i, j).grid for j in range(n)) for i in range(n))

    def flat_coeffs(self) -> list:
        """Coefficient tensor flattened in (i, j, a, b) lexicographic order."""
        flat = [_ZERO] * self.algebra.dim**4
        for idx, v in self.flat_terms().items():
            flat[idx] = v
        return flat

    # -- evaluation -----------------------------------------------------------

    def eval_basis(self, i: int, j: int) -> Tensor2:
        return Tensor2(self.algebra, {(a, b): v for a, b, v in self.terms[i][j]})

    def eval(self, x: AlgElement, y: AlgElement) -> Tensor2:
        if x.algebra != self.algebra or y.algebra != self.algebra:
            raise AlgebraError("elements from a different algebra")
        out: dict = {}
        for i, xi in enumerate(x.coords):
            if not xi:
                continue
            for j, yj in enumerate(y.coords):
                if not yj:
                    continue
                c = xi * yj
                for a, b, v in self.terms[i][j]:
                    out[(a, b)] = out.get((a, b), 0) + c * v
        return tensor_from_terms(self.algebra, out)

    def multiplied_basis(self, i: int, j: int) -> tuple:
        """Coordinates of m({{e_i, e_j}}) in A, the checker fold of ``axioms.multiplied_terms``."""
        r = _residual(multiplied_terms(self.algebra.products, self.terms[i][j]))
        return tuple(r.get(k, 0) for k in range(self.algebra.dim))

    # -- linear structure (used to form general elements) ----------------------

    def __add__(self, other):
        if self.algebra != other.algebra:
            raise AlgebraError("brackets over different algebras")
        params = tuple(dict.fromkeys(self.params + other.params))
        return type(self).from_entries(self.algebra, [*self.entries(), *other.entries()], params)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: Scalar):
        entries = [(i, j, a, b, c * v) for i, j, a, b, v in self.entries()]
        return type(self).from_entries(self.algebra, entries, self.params)

    def is_zero(self) -> bool:
        return not any(slot for row in self.terms for slot in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientBracket):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    # -- Leibniz rules (shared) ------------------------------------------------
    #
    # Each rule is the checker fold of ``axioms.derivation_terms`` per basis
    # triple: a sparse residual {(a, b): coefficient}.

    def _first_rule_images(self, i: int) -> list:
        """images[m] = {{e_m, e_i}}°: x -> {{x, e_i}}° is a double derivation."""
        return [flipped(self.terms[m][i]) for m in range(self.algebra.dim)]

    def _tensor2(self, terms: dict) -> Tensor2:
        return tensor_from_terms(self.algebra, terms)

    def check_second_leibniz(self, rels: RelationSet | None = None):
        """All-basis-triples check of the outer-structure Leibniz rule."""
        prods, terms = self.algebra.products, self.terms

        def residual(i, k, l):
            return _residual(derivation_terms(prods, terms[i], k, l))

        triples = product(range(self.algebra.dim), repeat=3)
        return _witnesses("second", triples, residual, self._tensor2, rels)

    def check_first_leibniz(self, rels: RelationSet | None = None):
        """All-basis-triples check of the first-argument rule, tagged ("first", k, l, i)."""
        prods = self.algebra.products
        images = [self._first_rule_images(i) for i in range(self.algebra.dim)]

        def residual(k, l, i):
            return _residual(derivation_terms(prods, images[i], k, l))

        triples = product(range(self.algebra.dim), repeat=3)
        return _witnesses("first", triples, residual, lambda terms: self._tensor2(terms).flip(), rels)


class DoubleBracket(CoefficientBracket):
    """A candidate double (Poisson) bracket; axioms are checked, not assumed."""

    # -- skew symmetry ---------------------------------------------------------

    def check_skew(self, rels: RelationSet | None = None):
        n, terms = self.algebra.dim, self.terms
        pairs = ((i, j) for i in range(n) for j in range(i, n))

        def residual(i, j):
            return _residual(skew_terms(terms[i][j], terms[j][i]))

        return _witnesses("skew", pairs, residual, self._tensor2, rels)

    # -- Leibniz ----------------------------------------------------------------

    def check_leibniz(self, rels: RelationSet | None = None):
        """Both Leibniz rules on all basis triples, second-argument witnesses first.

        The first-argument rule follows from skew + the second-argument rule, so
        it is not part of the constraint system; checking it exactly guards
        against convention drift.
        """
        return self.check_second_leibniz(rels) + self.check_first_leibniz(rels)

    # -- double Jacobi ------------------------------------------------------------

    def check_jacobi(self, rels: RelationSet | None = None, collect: bool = True):
        """Jacobiator witnesses over basis triples, in (i, j, k) order.

        The bracket's own scan (``_jacobi_scan``) gives the jacobiator J of
        the least rotation (i, j, k) of each cyclic class.  J(j, k, i) =
        tau132 J(i, j, k) and J(k, i, j) = tau123 J(i, j, k) for any
        coefficient tensor, so those are the witnesses of the other two
        rotations.  The least rotation of the first nonzero class is the
        first witness of all, the one ``collect=False`` returns.
        """
        n = self.algebra.dim
        out = []
        for (i, j, k), entries in groupby(_jacobi_scan([self.terms], range(n)), lambda e: e[0]):
            terms = {cell: form[0] for _, cell, form in entries}
            if _terms_zero_mod(terms, rels):
                continue
            jac = Tensor3(self.algebra, terms)
            out.append((("jacobi", i, j, k), jac))
            if not collect:
                return out
            if not i == j == k:
                out += [(("jacobi", j, k, i), jac.tau132()), (("jacobi", k, i, j), jac.tau123())]
        out.sort(key=lambda w: w[0])
        return out

    def check_all(self, rels: RelationSet | None = None) -> AxiomReport:
        skew = self.check_skew(rels)
        leib = self.check_leibniz(rels)
        jac = self.check_jacobi(rels)
        return AxiomReport(
            skew_ok=not skew,
            leibniz_ok=not leib,
            jacobi_ok=not jac,
            residuals=tuple(skew + leib + jac),
        )


# -- double derivations (double vector fields) ---------------------------------


class DoubleDerivation:
    """A linear map A -> A(x)A, candidate member of Der(A, A(x)A) (outer structure)."""

    __slots__ = ("algebra", "images")

    def __init__(self, algebra: FDAlgebra, images: tuple[Tensor2, ...]):
        if len(images) != algebra.dim:
            raise AlgebraError("need one image per basis element")
        self.algebra = algebra
        self.images = images

    def __eq__(self, other) -> bool:
        if not isinstance(other, DoubleDerivation):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images

    @staticmethod
    def inner(m: Tensor2) -> DoubleDerivation:
        """The inner double derivation a -> a.m - m.a (outer actions)."""
        alg = m.algebra
        tensor = [(p, q, w) for (p, q), w in m.terms.items()]
        images = (_residual(inner_derivation_terms(alg.products, tensor, i)) for i in range(alg.dim))
        return DoubleDerivation(alg, tuple(tensor_from_terms(alg, r) for r in images))

    def flat_coeffs(self) -> list:
        """Images flattened in (basis index, leg a, leg b) order."""
        return [v for img in self.images for row in img.grid for v in row]

    def leibniz_residuals(self):
        """delta(e_i e_j) - delta(e_i).e_j - e_i.delta(e_j) over all pairs."""
        alg = self.algebra
        images = [[(a, b, v) for (a, b), v in img.terms.items()] for img in self.images]
        bad = []
        for i, j in product(range(alg.dim), repeat=2):
            r = tensor_from_terms(alg, _residual(derivation_terms(alg.products, images, i, j)))
            if not r.is_zero():
                bad.append(((i, j), r))
        return bad

    def is_derivation(self) -> bool:
        return not self.leibniz_residuals()


def bracket_from_bivector(delta1: DoubleDerivation, delta2: DoubleDerivation) -> DoubleBracket:
    """Bracket of the bivector delta1 (x) delta2, antisymmetrized over leg swap.

    {{a1, a2}}~ = delta2(a2)' delta1(a1)'' (x) delta1(a1)' delta2(a2)'' and
    {{-,-}} = {{-,-}}~ - flip o {{-,-}}~ o (argument swap).  The result always
    satisfies skew and the outer Leibniz rule when the inputs are derivations.
    """
    if delta1.algebra != delta2.algebra:
        raise AlgebraError("derivations over different algebras")
    if not delta1.is_derivation() or not delta2.is_derivation():
        raise AlgebraError("bracket_from_bivector requires genuine double derivations")
    alg = delta1.algebra
    n = alg.dim
    prods = alg.products

    def tilde(i: int, j: int) -> dict:
        out: dict = {}
        for a, b, v in delta1.images[i].entries():  # delta1(a1) = v * e_a (x) e_b
            for c, d, w in delta2.images[j].entries():  # delta2(a2) = w * e_c (x) e_d
                coeff = v * w
                # first leg: delta2' delta1'' = e_c e_b; second leg: delta1' delta2'' = e_a e_d
                for p, x in prods[c][b]:
                    cp = coeff * x
                    for q, y in prods[a][d]:
                        out[(p, q)] = out.get((p, q), 0) + cp * y
        return out

    entries = []
    for i in range(n):
        for j in range(n):
            entries.extend((i, j, a, b, v) for (a, b), v in tilde(i, j).items())
            entries.extend((i, j, b, a, -v) for (a, b), v in tilde(j, i).items())
    return DoubleBracket.from_entries(alg, entries)
