"""Jacobi residuals that only the tests read, kept apart from the scan they check.

``double_jacobiator`` and ``jacobiator_element`` give the jacobiator of a
double bracket as a Tensor3, on basis indices or on algebra elements (the
first legs then come from ``eval``).  Each sums the three first-leg
products of ``axioms.jacobiator_parts`` on their own, with their legs
permuted, which is the checker fold that ``brackets._jacobi_scan`` replaced.
``lie_jacobi_residuals`` scans the Lie Jacobi identity of an induced bracket
on A_flat.  ``weak_jacobi_residuals`` is the weak Jacobi condition of a
wedge r as the triple leg commutator [[[J(r),x]_1,y]_2,z]_3, folded from
``leg_commutator_terms``: the path that the inner bracket's own Jacobi check
replaced, kept as the oracle of the identity between the two.
"""

from itertools import product

from doublepoisson.axioms import first_leg_pairs, jacobiator_parts, nested_pairs
from doublepoisson.brackets import _pair_residual, _residual
from doublepoisson.inner import aybe_obstruction
from doublepoisson.tensors import Tensor3, _nonzero_terms, tensor3_from_terms


def _jacobiator(algebra, first_leg, i, j, k):
    """sum over ``jacobiator_parts(i, j, k)`` of first_leg(*triple) with its legs permuted."""
    out = {}
    for t, legs in jacobiator_parts(i, j, k):
        for p, v in first_leg(*t).items():
            key = (p[legs[0]], p[legs[1]], p[legs[2]])
            out[key] = out[key] + v if key in out else v
    return tensor3_from_terms(algebra, out)


def double_jacobiator(db, i, j, k):
    """{{e_i,{{e_j,e_k}}}}_L + tau123 {{e_j,{{e_k,e_i}}}}_L + tau132 {{e_k,{{e_i,e_j}}}}_L."""

    def first_leg(a, b, c):
        return _pair_residual(first_leg_pairs(db.terms[a], db.terms[b][c]))

    return _jacobiator(db.algebra, first_leg, i, j, k)


def jacobiator_element(db, x, y, z):
    """Trilinear extension of the jacobiator: the first legs of (x, y, z) come from ``eval``."""
    args = (x, y, z)
    basis = [db.algebra.basis_element(a) for a in range(db.algebra.dim)]

    def first_leg(u, v, w):
        row = [list(db.eval(args[u], e).entries()) for e in basis]
        return _pair_residual(first_leg_pairs(row, db.eval(args[v], args[w]).entries()))

    return _jacobiator(db.algebra, first_leg, 0, 1, 2)


def lie_jacobi_residuals(table):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] over the basis triples of a FlatBracketTable, by ``axioms.nested_pairs``."""
    d = len(table.basis_indices)
    nonzero = [
        [[(c, v) for c, v in enumerate(vec) if v] for vec in row] for row in table.table
    ]
    bad = []
    for i, j, k in product(range(d), repeat=3):
        r = [0] * d
        for t in ((i, j, k), (j, k, i), (k, i, j)):
            for c, f, g in nested_pairs(nonzero, *t):
                r[c] = r[c] + f * g
        if any(r):
            bad.append(((i, j, k), r))
    return bad


def leg_commutator_terms(prods, terms, x, leg):
    """[t, e_x]_leg at each position, for t = sum payload e_a(x)e_b(x)e_c over the ((a, b, c), payload) ``terms``.

    [a(x)b(x)c, x]_1 = a(x)xb(x)c - ax(x)b(x)c, [-, x]_2 = a(x)b(x)xc - a(x)bx(x)c
    and [-, x]_3 = xa(x)b(x)c - a(x)b(x)cx: e_x multiplies the leg after
    ``leg`` (cyclically) from the left and the leg ``leg`` itself from the
    right, with a minus sign.
    """
    plus, minus = leg % 3, leg - 1
    for pos, p in terms:
        for m, v in prods[x][pos[plus]]:
            yield pos[:plus] + (m,) + pos[plus + 1 :], v, p
        for m, v in prods[pos[minus]][x]:
            yield pos[:minus] + (m,) + pos[minus + 1 :], -v, p


def weak_jacobi_residuals(r):
    """(flag, residuals) for [[[J(r),x]_1,y]_2,z]_3 = 0 over all basis triples, in (x, y, z) order."""
    alg = r.algebra
    n = alg.dim
    prods = alg.products

    def commutator(terms, x, leg):
        return _nonzero_terms(_residual(leg_commutator_terms(prods, terms.items(), x, leg)))

    j = aybe_obstruction(r).terms
    residuals = []
    for x in range(n):
        jx = commutator(j, x, 1)
        if not jx:
            continue
        for y in range(n):
            jxy = commutator(jx, y, 2)
            if not jxy:
                continue
            for z in range(n):
                jxyz = commutator(jxy, z, 3)
                if jxyz:
                    residuals.append(((x, y, z), Tensor3(alg, jxyz)))
    return not residuals, residuals
