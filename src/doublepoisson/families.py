"""The classified bracket families on the upper-triangular algebra a2.

These constructors encode the closed forms of the two classifications on a2
(the three-parameter family of double brackets, constrained by g^2 + a*b = 0
for the Jacobi identity, and the seven-parameter family of modified brackets).
They are used as golden references: the solver must reproduce their spans.

Everything is written against the stored basis (e0, e1, e2) with unit e1 + e2;
the unit in a tensor leg therefore expands as e1 + e2.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FDAlgebra, make_a2
from .brackets import DoubleBracket
from .modified import ModifiedBracket
from .poly import PolyRing, Scalar

#: Coefficient slots that read off the family parameters from a raw tensor
#: (documented reparametrization used by the golden tests and the CLI report):
#: alpha = C[0][1][0][0], beta = C[0][1][2][1], gamma = C[0][1][0][2].
A2_DOUBLE_PARAM_SLOTS = {"alpha": (0, 1, 0, 0), "beta": (0, 1, 2, 1), "gamma": (0, 1, 0, 2)}

#: Same idea for the modified family:
#: alpha=C[0][0][0][0], beta=C[0][0][2][0], gamma=C[0][0][0][2], delta=C[0][1][0][0],
#: iota=C[1][0][0][0], kappa=C[0][1][0][2], eta=C[1][1][0][0].
A2_MODIFIED_PARAM_SLOTS = {
    "alpha": (0, 0, 0, 0),
    "beta": (0, 0, 2, 0),
    "gamma": (0, 0, 0, 2),
    "delta": (0, 1, 0, 0),
    "iota": (1, 0, 0, 0),
    "kappa": (0, 1, 0, 2),
    "eta": (1, 1, 0, 0),
}


def _a2_blocks_to_entries(blocks) -> list:
    """The (i, j, a, b, c) entries of the full 3x3x3x3 tensor from the (e0,e1)x(e0,e1) blocks.

    On a2 every remaining block is forced by {{x,1}} = {{1,x}} = 0 with
    1 = e1 + e2:  C[i][2] = -C[i][1], C[2][j] = -C[1][j], C[2][2] = C[1][1].
    """
    entries = [(i, j, a, b, c) for (i, j), pairs in blocks.items() for a, b, c in pairs]
    entries += [(i, 2, a, b, -c) for i, j, a, b, c in entries if j == 1]
    entries += [(2, j, a, b, -c) for i, j, a, b, c in entries if i == 1]
    return entries


def a2_double_family(alpha: Scalar, beta: Scalar, gamma: Scalar, algebra: FDAlgebra | None = None, params=()) -> DoubleBracket:
    """The general double bracket on a2:

        {{e0,e1}} = alpha e0(x)e0 + beta (1(x)e1 - e1(x)e1)
                    + gamma (e0(x)1 - e0(x)e1 - e1(x)e0),
        {{e0,e0}} = beta (1(x)e0 - e0(x)1),
        {{e1,e1}} = gamma (e1(x)1 - 1(x)e1),

    a double *Poisson* bracket exactly when gamma^2 + alpha*beta = 0.
    """
    alg = algebra or make_a2()
    E0, E1, E2 = 0, 1, 2
    blocks = {
        (0, 1): [
            (E0, E0, alpha),
            # beta(1(x)e1 - e1(x)e1) = beta e2(x)e1
            (E2, E1, beta),
            # gamma(e0(x)1 - e0(x)e1 - e1(x)e0) = gamma(e0(x)e2 - e1(x)e0)
            (E0, E2, gamma),
            (E1, E0, -gamma),
        ],
        (0, 0): [
            # beta(1(x)e0 - e0(x)1)
            (E1, E0, beta),
            (E2, E0, beta),
            (E0, E1, -beta),
            (E0, E2, -beta),
        ],
        (1, 1): [
            # gamma(e1(x)1 - 1(x)e1) = gamma(e1(x)e2 - e2(x)e1)
            (E1, E2, gamma),
            (E2, E1, -gamma),
        ],
        # skew determines {{e1,e0}} = -{{e0,e1}}°
        (1, 0): [
            (E0, E0, -alpha),
            (E1, E2, -beta),
            (E2, E0, -gamma),
            (E0, E1, gamma),
        ],
    }
    return DoubleBracket.from_entries(alg, _a2_blocks_to_entries(blocks), params)


def a2_double_family_symbolic() -> tuple[DoubleBracket, PolyRing]:
    """The family with formal parameters (a, b, g) standing for alpha, beta, gamma."""
    ring = PolyRing(("a", "b", "g"))
    db = a2_double_family(ring.var("a"), ring.var("b"), ring.var("g"), params=ring.names)
    return db, ring


def a2_alpha_bracket(alpha: Scalar = Fraction(1), params=()) -> DoubleBracket:
    """The distinguished bracket {{e0,e1}} = alpha e0(x)e0 (beta = gamma = 0)."""
    return a2_double_family(alpha, Fraction(0) * alpha, Fraction(0) * alpha, params=params)


def a2_alpha_bracket_symbolic(param: str = "A") -> tuple[DoubleBracket, PolyRing]:
    ring = PolyRing((param,))
    return a2_alpha_bracket(ring.var(param), params=ring.names), ring


def a2_modified_family(
    alpha: Scalar,
    beta: Scalar,
    gamma: Scalar,
    delta: Scalar,
    iota: Scalar,
    kappa: Scalar,
    eta: Scalar,
    algebra: FDAlgebra | None = None,
    params=(),
) -> ModifiedBracket:
    """The seven-parameter family of modified double brackets on a2:

        {{e0,e0}} = alpha e0(x)e0 + beta 1(x)e0 + gamma e0(x)1
                    - (beta+gamma)(e0(x)e1 + e1(x)e0),
        {{e0,e1}} = delta e0(x)e0 + kappa e0(x)1 + beta 1(x)e1
                    - kappa(e0(x)e1 + e1(x)e0) - beta e1(x)e1,
        {{e1,e0}} = iota e0(x)e0 + gamma(e1(x)1 - e1(x)e1),
        {{e1,e1}} = eta e0(x)e0 + kappa(e1(x)1 - e1(x)e1).
    """
    alg = algebra or make_a2()
    E0, E1, E2 = 0, 1, 2
    bg = beta + gamma
    blocks = {
        (0, 0): [
            (E0, E0, alpha),
            (E1, E0, beta),  # beta 1(x)e0
            (E2, E0, beta),
            (E0, E1, gamma),  # gamma e0(x)1
            (E0, E2, gamma),
            (E0, E1, -bg),
            (E1, E0, -bg),
        ],
        (0, 1): [
            (E0, E0, delta),
            (E0, E1, kappa),  # kappa e0(x)1
            (E0, E2, kappa),
            (E1, E1, beta),  # beta 1(x)e1
            (E2, E1, beta),
            (E0, E1, -kappa),
            (E1, E0, -kappa),
            (E1, E1, -beta),
        ],
        (1, 0): [
            (E0, E0, iota),
            (E1, E1, gamma),  # gamma e1(x)1
            (E1, E2, gamma),
            (E1, E1, -gamma),
        ],
        (1, 1): [
            (E0, E0, eta),
            (E1, E1, kappa),
            (E1, E2, kappa),
            (E1, E1, -kappa),
        ],
    }
    return ModifiedBracket.from_entries(alg, _a2_blocks_to_entries(blocks), params)


def a2_modified_family_symbolic() -> tuple[ModifiedBracket, PolyRing]:
    names = ("al", "be", "ga", "de", "io", "ka", "et")
    ring = PolyRing(names)
    mb = a2_modified_family(*(ring.var(n) for n in names), params=names)
    return mb, ring
