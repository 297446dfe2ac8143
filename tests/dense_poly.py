"""The dense-vector polynomial arithmetic that MultiPoly used before monomials became words.

A DensePoly maps exponent vectors, one entry per ring variable, to nonzero
exact scalars, and each operation below is the old MultiPoly code on that
map.  ``DensePoly.of`` and ``DensePoly.to_poly`` convert between the two
forms and keep the order of the term map, so a MultiPoly result can be
compared with the old one term by term and in key order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from doublepoisson.poly import MultiPoly, PolyRing, _render, exact_scalar


def to_vector(word: tuple[int, ...], nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for i in word:
        exps[i] += 1
    return tuple(exps)


def to_word(exps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i, k in enumerate(exps) for _ in range(k))


def dense_grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class DensePoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @staticmethod
    def of(p: MultiPoly) -> DensePoly:
        return DensePoly(p.ring, {to_vector(w, p.ring.nvars): c for w, c in p.terms.items()})

    def to_poly(self) -> MultiPoly:
        return MultiPoly(self.ring, {to_word(e): c for e, c in self.terms.items()})

    @staticmethod
    def const(ring: PolyRing, c) -> DensePoly:
        return DensePoly(ring, {(0,) * ring.nvars: exact_scalar(c)})

    def __add__(self, other: DensePoly) -> DensePoly:
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return DensePoly(self.ring, terms)

    def __neg__(self) -> DensePoly:
        return DensePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: DensePoly) -> DensePoly:
        return self + (-other)

    def __mul__(self, other: DensePoly) -> DensePoly:
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in acc:
                    s = acc[e] + c1 * c2
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
                else:
                    acc[e] = c1 * c2
        return DensePoly(self.ring, acc)

    def __pow__(self, n: int) -> DensePoly:
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return DensePoly.const(self.ring, 1) if result is None else result
            base = base * base

    def partial(self, name: str) -> DensePoly:
        i = self.ring.index(name)
        acc: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            de = list(e)
            de[i] -= 1
            acc[tuple(de)] = c * e[i]
        return DensePoly(self.ring, acc)

    def eval_rational(self, values) -> Fraction:
        total = Fraction(0)
        point = [Fraction(values[name]) for name in self.ring.names]
        for e, c in self.terms.items():
            term = c
            for v, k in zip(point, e):
                if k:
                    term *= v**k
            total += term
        return total

    def eval_float(self, values) -> float:
        point = [float(values[name]) for name in self.ring.names]
        total = 0.0
        for e, c in self.terms.items():
            term = float(c)
            for v, k in zip(point, e):
                if k:
                    term *= v**k
            total += term
        return total

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, k in zip(self.ring.names, exps):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def __str__(self) -> str:
        terms = self.terms
        return _render((terms[e], self._monomial_str(e)) for e in sorted(terms, key=dense_grlex_key, reverse=True))


def dense_morphism(images: list[DensePoly], target: PolyRing):
    """The ring morphism sending variable i to ``images[i]``, each power raised once per morphism."""
    powers: dict = {}

    def image(p: DensePoly) -> DensePoly:
        out = DensePoly(target, {})
        for e, c in sorted(p.terms.items()):
            term = DensePoly.const(target, c)
            for i, k in enumerate(e):
                if k:
                    power = powers.get((i, k))
                    if power is None:
                        power = powers[(i, k)] = images[i] ** k
                    term = term * power
            out = out + term
        return out

    return image


def dense_normal_form(rules: list[tuple[tuple[int, ...], DensePoly]], p: DensePoly) -> DensePoly:
    """RelationSet.normal_form over (head exponent vector, replacement) rules."""
    work = dict(p.terms)
    out: dict = {}
    while work:
        e, c = work.popitem()
        if not c:
            continue
        for lead, repl in rules:
            if all(a >= b for a, b in zip(e, lead)):
                quotient = [a - b for a, b in zip(e, lead)]
                for m, r in repl.terms.items():
                    key = tuple(map(add, quotient, m))
                    work[key] = work.get(key, 0) + c * r
                break
        else:
            out[e] = out.get(e, 0) + c
    return DensePoly(p.ring, out)
