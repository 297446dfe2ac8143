"""The axioms of double and modified double Poisson brackets, each written once.

One generator per axiom.  A slot {{e_i, e_j}} is a sequence of
(a, b, payload) with {{e_i, e_j}} = sum payload e_a (x) e_b, and
``prods[x][y]`` lists the (z, v) with e_x e_y = sum v e_z.  A linear rule
yields (position, coefficient, payload) terms, its residual being the sum of
coefficient * payload at each position; a quadratic rule yields (position,
payload, payload) pairs whose products are summed.  A linear rule has two
folds: the checkers pass a bracket's ``terms`` (payload: the coefficient)
and ``algebra.products`` and sum the residual; the solver passes generic
slots (payload: the column of an unknown) and collects row[column] +=
coefficient at each position.  The Jacobi rules have one fold, the scan in
``brackets``: its payloads are linear forms in the parameters of a span of
brackets, and a checker scans the span of its own bracket.

The generators only multiply what they are given by the structure
constants, by 1 and by -1, so they keep the scalar rule of the engine
(``poly.exact_scalar``): an exact scalar is an int when its denominator is
1, a Fraction otherwise, and never a float.  On integral input every
coefficient and payload they yield is an int.

Only this module knows the signs and leg conventions, of the axioms and of
the inner brackets built from a wedge r.  The actions on A(x)A are the outer
ones: x.(a(x)b) = xa(x)b, (a(x)b).x = a(x)bx; the inner action is the outer
one conjugated by the flip.  The inner bracket is the composite
{{e_i, e_j}}_r = D_j(flip(D_i(flip r))) of inner derivations
D_i(m) = e_i.m - m.e_i; the AYBE obstruction J(r) is summed over pairs of
r's entries; the leg commutators of A(x)A(x)A are
[a(x)b(x)c, x]_1 = a(x)xb(x)c - ax(x)b(x)c, [-, x]_2 = a(x)b(x)xc - a(x)bx(x)c
and [-, x]_3 = xa(x)b(x)c - a(x)b(x)cx.
"""

from __future__ import annotations


def flipped(slot) -> list:
    """The slot of the flipped tensor, (a(x)b)° = b(x)a."""
    return [(b, a, p) for a, b, p in slot]


def skew_terms(slot_ij, slot_ji):
    """Skew symmetry: {{e_i, e_j}} + {{e_j, e_i}}° at each position (a, b)."""
    for a, b, p in slot_ij:
        yield (a, b), 1, p
    for a, b, p in slot_ji:
        yield (b, a), 1, p


def derivation_terms(prods, images, k: int, l: int):
    """delta(e_k e_l) - e_k.delta(e_l) - delta(e_k).e_l at each position (c, d).

    ``images[m]`` is the slot of delta(e_m).  With images[m] = {{e_i, e_m}}
    this is the outer Leibniz rule {{e_i, e_k e_l}} = (e_k(x)1){{e_i, e_l}} +
    {{e_i, e_k}}(1(x)e_l).  With images[m] = flipped({{e_m, e_i}}) it is the
    first-argument rule {{e_k e_l, e_i}} = (1(x)e_k){{e_l, e_i}} +
    {{e_k, e_i}}(e_l(x)1) at the flipped position (d, c).
    """
    for m, v in prods[k][l]:
        for a, b, p in images[m]:
            yield (a, b), v, p
    for a, b, p in images[l]:
        for m, v in prods[k][a]:
            yield (m, b), -v, p
    for a, b, p in images[k]:
        for m, v in prods[b][l]:
            yield (a, m), -v, p


def unit_terms(unit, images):
    """delta(1) = sum_m unit[m] delta(e_m) at each position (a, b), ``unit`` the coordinates of 1.

    With the ``derivation_terms`` of (k, l) for k in a generating set and
    every l, delta(1) = 0 gives the Leibniz rule on all pairs.
    """
    for m, u in enumerate(unit):
        if u:
            for a, b, p in images[m]:
                yield (a, b), u, p


def inner_derivation_terms(prods, tensor, i: int):
    """e_i.m - m.e_i at each position (a, b), for m = sum payload e_p(x)e_q over the ``tensor`` slot."""
    for p, q, w in tensor:
        for a, v in prods[i][p]:
            yield (a, q), v, w
        for b, v in prods[q][i]:
            yield (p, b), -v, w


def aybe_pairs(prods, entries):
    """J(r) = r13 r12 + r23 r13 - r12 r23 as (position, x, y) pairs, r = sum x e_a(x)e_b over ``entries``.

    The legwise products put the unit on each r's missing leg, so by the unit
    law every ordered pair of entries (a, b, x), (c, d, y) contributes
    x y [(e_a e_c)(x)e_d(x)e_b + e_c(x)e_a(x)(e_b e_d) - e_a(x)(e_b e_c)(x)e_d].
    """
    for a, b, x in entries:
        pa, pb = prods[a], prods[b]
        for c, d, y in entries:
            for m, v in pa[c]:
                yield (m, d, b), x, v * y
            for m, v in pb[d]:
                yield (c, a, m), x, v * y
            for m, v in pb[c]:
                yield (a, m, d), x, -v * y


def leg_commutator_terms(prods, terms, x: int, leg: int):
    """[t, e_x]_leg at each position, for t = sum payload e_a(x)e_b(x)e_c over the ((a, b, c), payload) ``terms``.

    e_x multiplies the leg after ``leg`` (cyclically) from the left and the
    leg ``leg`` itself from the right, with a minus sign.
    """
    plus, minus = leg % 3, leg - 1
    for pos, p in terms:
        for m, v in prods[x][pos[plus]]:
            yield pos[:plus] + (m,) + pos[plus + 1 :], v, p
        for m, v in prods[pos[minus]][x]:
            yield pos[:minus] + (m,) + pos[minus + 1 :], -v, p


def multiplied_terms(prods, slot):
    """m({{e_i, e_j}}) = sum payload e_x e_y at each coordinate c of A."""
    for x, y, p in slot:
        for c, v in prods[x][y]:
            yield c, v, p


def h0_skew_terms(prods, slot_ij, slot_ji):
    """H0-skew: m({{e_i, e_j}}) + m({{e_j, e_i}}), which must lie in [A, A]."""
    yield from multiplied_terms(prods, slot_ij)
    yield from multiplied_terms(prods, slot_ji)


def first_leg_pairs(row_i, slot_jk):
    """{{e_i, {{e_j, e_k}}}}_L = sum C[j][k][a][b] {{e_i, e_a}} (x) e_b as (position, x, y) pairs.

    x is at (a, b) in {{e_j, e_k}}, y at (c, d) in row_i[a] = {{e_i, e_a}},
    and x * y lands at (c, d, b).
    """
    for a, b, x in slot_jk:
        for c, d, y in row_i[a]:
            yield (c, d, b), x, y


#: Leg orders of the jacobiator summands: entry p lands at (p[o[0]], p[o[1]], p[o[2]]),
#: since tau123(a(x)b(x)c) = c(x)a(x)b and tau132 = tau123^2.
JACOBI_LEGS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def jacobiator_parts(i: int, j: int, k: int):
    """J(i,j,k) = F(i,j,k) + tau123 F(j,k,i) + tau132 F(k,i,j) as (triple, legs), F by first_leg_pairs."""
    return zip(((i, j, k), (j, k, i), (k, i, j)), JACOBI_LEGS)


def nested_pairs(table, x: int, y: int, z: int, left: bool = False):
    """{e_x, {e_y, e_z}} = sum_b M(y,z)_b M(x,b), or with ``left`` {{e_x, e_y}, e_z} = sum_a M(x,y)_a M(a,z).

    ``table[a][b]`` lists the (c, payload) of M(a, b) = m({{e_a, e_b}}); the
    pairs are (c, f, g), with f * g landing at coordinate c.
    """
    if left:
        for a, f in table[x][y]:
            for c, g in table[a][z]:
                yield c, f, g
    else:
        for b, f in table[y][z]:
            for c, g in table[x][b]:
                yield c, f, g


def h0_jacobiator_parts(i: int, j: int, k: int):
    """{e_i,{e_j,e_k}} - {e_j,{e_i,e_k}} - {{e_i,e_j},e_k} as (sign, triple, left) for nested_pairs."""
    return ((1, (i, j, k), False), (-1, (j, i, k), False), (-1, (i, j, k), True))
