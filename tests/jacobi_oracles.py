"""Jacobi residuals that only the tests read, built from the library's own kernels.

``double_jacobiator`` and ``jacobiator_element`` give the jacobiator of a
double bracket as a Tensor3, on basis indices or on algebra elements (the
first legs then come from ``eval``); ``lie_jacobi_residuals`` scans the Lie
Jacobi identity of an induced bracket on A_flat.
"""

from itertools import product

from doublepoisson.axioms import first_leg_pairs, nested_pairs
from doublepoisson.brackets import _pair_residual
from doublepoisson.poly import scalar_is_zero
from doublepoisson.tensors import tensor3_from_terms


def double_jacobiator(db, i, j, k):
    """{{e_i,{{e_j,e_k}}}}_L + tau123 {{e_j,{{e_k,e_i}}}}_L + tau132 {{e_k,{{e_i,e_j}}}}_L."""
    return tensor3_from_terms(db.algebra, db._jacobiator_terms(i, j, k))


def jacobiator_element(db, x, y, z):
    """Trilinear extension of the jacobiator: the first legs of (x, y, z) come from ``eval``."""
    args = (x, y, z)
    basis = [db.algebra.basis_element(a) for a in range(db.algebra.dim)]

    def first_leg(u, v, w):
        row = [list(db.eval(args[u], e).entries()) for e in basis]
        return _pair_residual(first_leg_pairs(row, db.eval(args[v], args[w]).entries()))

    return tensor3_from_terms(db.algebra, db._jacobiator_terms(0, 1, 2, first_leg))


def lie_jacobi_residuals(table):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] over the basis triples of a FlatBracketTable, by ``axioms.nested_pairs``."""
    d = len(table.basis_indices)
    nonzero = [
        [[(c, v) for c, v in enumerate(vec) if not scalar_is_zero(v)] for vec in row] for row in table.table
    ]
    bad = []
    for i, j, k in product(range(d), repeat=3):
        r = [0] * d
        for t in ((i, j, k), (j, k, i), (k, i, j)):
            for c, f, g in nested_pairs(nonzero, *t):
                r[c] = r[c] + f * g
        if any(not scalar_is_zero(v) for v in r):
            bad.append(((i, j, k), r))
    return bad
