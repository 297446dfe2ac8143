import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson.poly import (
    MultiPoly,
    PolyRing,
    RelationSet,
    _degree,
    _weight,
    grlex_key,
    lex_key,
    parse_rational,
)
from doublepoisson.repspace import get_chart

from dense_poly import DensePoly, dense_grlex_key, dense_morphism, dense_normal_form, to_vector, to_word


@pytest.fixture
def cs_ring():
    return PolyRing(("c", "s", "lam", "mu"))


@pytest.fixture
def circle(cs_ring):
    return RelationSet.single(cs_ring, "c^2", "1 - s^2")


def test_rational_round_trip():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-3") == Fraction(-3)


def test_parse_rational_reads_a_sign_ascii_digits_and_one_separator():
    assert [parse_rational(t) for t in ("+7", "-3/6", "2.50", " 0 ")] == [7, Fraction(-1, 2), Fraction(5, 2), 0]
    for text in ("1e4000000", "1E3", "1_000", "\u0663", "\u00b2", "0x10", ".5", "1.", "1/", "1/2/3", "1.5/2", "inf", "nan", ""):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_rational_arith_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) * 1 == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 1) / Fraction(0, 1)


def test_field_axioms_random():
    rng = random.Random(0)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_parse_and_str(cs_ring):
    p = cs_ring.parse("2*c^2*s - 3/2*lam + 1")
    assert str(p) == "2*c^2*s - 3/2*lam + 1"
    assert cs_ring.parse(str(p)) == p
    assert cs_ring.parse("(c + s)*(c - s)") == cs_ring.parse("c^2 - s^2")
    assert cs_ring.parse("-c") == -cs_ring.var("c")


def test_parse_rejects_garbage(cs_ring):
    with pytest.raises(ValueError):
        cs_ring.parse("c +")
    with pytest.raises(ValueError):
        cs_ring.parse("q + 1")  # unknown variable
    with pytest.raises(ValueError):
        cs_ring.parse("c ** 2")
    for text in ("c^\u0663", "c^\u00b2", "\u0663*c"):  # non-ASCII digits, as in parse_rational
        with pytest.raises(ValueError):
            cs_ring.parse(text)


@pytest.mark.parametrize(
    "text",
    ["(a+b+1)^80", "(a+b+1)^200", "(a+1)^2000", "3^10000000", "(2*a+1)^9000", "(a+b+1)^30*(a+b+1)^30",
     "3^5000*3^5000*3", "(1/3+a)^9999", "(524288*a+1)^499", "(a+b)^128", "(a+1)^499", "a^32769"],
)
def test_parse_refuses_an_oversized_power_or_product_at_once(text):
    # each was expanded in full before: "(a+b+1)^80" took 0.74 s, "3^10000000" 4.1 s; the last four
    # exceed only the bound on terms times (degree + bits), and "(524288*a+1)^499" took 0.47 s
    ring = PolyRing(("a", "b"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="could expand to"):
        ring.parse(text)
    assert time.perf_counter() - start < 0.1


def test_parse_builds_powers_and_products_up_to_the_limit():
    # each is at its bound: one more in the exponent is refused
    ring = PolyRing(("a", "b"))
    assert len(ring.parse("(a+1)^127").terms) == 128
    assert len(ring.parse("(a+b+1)^26").terms) == 378
    assert ring.parse("(a+b+1)^4*(a+b+1)^4") == ring.parse("(a+b+1)^8")
    assert ring.parse("3^5000") == ring.const(3**5000)
    assert ring.parse("a^32768") == ring.monomial({"a": 32768})
    assert ring.parse("(-1)^1000001") == ring.const(-1)
    for text in ("(a+1)^128", "(a+b+1)^27", "3^5001", "a^32769"):
        with pytest.raises(ValueError, match="could expand to"):
            ring.parse(text)


def test_the_slowest_accepted_power_parses_at_once():
    # the slowest of the powers at their bound, over 17 bases in 1-4 variables with int and rational coefficients
    ring = PolyRing(("a", "b"))
    start = time.perf_counter()
    assert len(ring.parse("(a+b)^127").terms) == 128
    assert time.perf_counter() - start < 0.1


def test_weight_is_the_log_height_of_numerators_over_the_common_denominator():
    ring = PolyRing(("a", "b"))
    # "1/2*a + 1/3" is (3a + 2)/6: ceil(log2 5) + ceil(log2 6) = 3 + 3
    cases = {"0": 0, "a": 0, "-a*b": 0, "3": 2, "1/3": 2, "a + 1": 1, "1/2*a + 1/3": 6, "4*a - 4": 3}
    assert {text: _weight(ring.parse(text)) for text in cases} == cases


@seed(2601)
@settings(max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.fractions(max_denominator=12)), max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.fractions(max_denominator=12)), max_size=4),
    st.integers(0, 6),
)
def test_parse_bounds_hold_on_random_polynomials(f_terms, g_terms, e):
    # the bounds the parser checks are upper bounds of what it then builds
    ring = PolyRing(("a", "b"))
    f, g = (ring.zero() + sum((ring.monomial({"a": i, "b": j}, c) for i, j, c in ts), ring.zero())
            for ts in (f_terms, g_terms))
    k = len(f.terms)
    power = f**e
    assert len(power.terms) <= (comb(e + k - 1, k - 1) if k > 1 else 1)
    assert _weight(power) <= e * _weight(f)
    assert len((f * g).terms) <= len(f.terms) * len(g.terms)
    assert _weight(f * g) <= _weight(f) + _weight(g)
    assert _degree(power) <= e * _degree(f) and _degree(f * g) <= _degree(f) + _degree(g)
    for p in (f, power):
        bound = 2 ** _weight(p)
        assert all(abs(c.numerator) <= bound and c.denominator <= bound for c in p.terms.values())


def test_ring_mismatch_errors(cs_ring):
    other = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        cs_ring.var("c") + other.var("x")


def test_a_polynomial_is_true_iff_it_has_a_term(cs_ring):
    c, s = cs_ring.var("c"), cs_ring.var("s")
    for p in (c - c, cs_ring.const(0), (c + s) * (c - s) - c * c + s * s):
        assert not p and p.is_zero() and p == 0
    for p in (c, cs_ring.const(Fraction(-1, 2)), c * s - s * c + 1):
        assert p and not p.is_zero() and p != 0


def test_grlex_order():
    # degree first, then lexicographic with the earlier variable larger: x0^2 > x0*x1 > x1^2, x1^3 > x0^2
    assert grlex_key((0, 0)) > grlex_key((0, 1))
    assert grlex_key((0, 1)) > grlex_key((1, 1))
    assert grlex_key((1, 1, 1)) > grlex_key((0, 0))


def test_word_keys_give_the_orders_of_exponent_vectors():
    # every monomial in 4 variables up to degree 4
    vectors = [e for e in product(range(5), repeat=4) if sum(e) <= 4]
    words = [to_word(e) for e in vectors]
    assert sorted(words, key=lex_key) == [to_word(e) for e in sorted(vectors)]
    assert sorted(words, key=grlex_key) == [to_word(e) for e in sorted(vectors, key=dense_grlex_key)]


def test_normal_form_examples(cs_ring, circle):
    c, s = cs_ring.var("c"), cs_ring.var("s")
    assert circle.normal_form(c * c) == cs_ring.parse("1 - s^2")
    # c^4 -> (1 - s^2)^2, expanded by hand
    assert circle.normal_form(c ** 4) == cs_ring.parse("1 - 2*s^2 + s^4")
    lm = cs_ring.parse("lam*mu")
    assert circle.normal_form(lm) == lm


def test_normal_form_idempotent_and_multiplicative(cs_ring, circle):
    rng = random.Random(1)

    def rand_poly():
        p = cs_ring.zero()
        for _ in range(rng.randint(1, 5)):
            exps = {
                nm: rng.randint(0, 3) for nm in cs_ring.names if rng.random() < 0.6
            }
            p = p + cs_ring.monomial(exps, Fraction(rng.randint(-4, 4)))
        return p

    for _ in range(80):
        p, q = rand_poly(), rand_poly()
        nf = circle.normal_form
        assert nf(nf(p)) == nf(p)
        assert nf(p * q) == nf(nf(p) * nf(q))


def test_relation_set_rejects_nondecreasing():
    ring = PolyRing(("c", "s"))
    with pytest.raises(ValueError):
        # head c is smaller than the degree-2 replacement
        RelationSet.single(ring, "c", "c^2 + s")
    with pytest.raises(ValueError, match="does not decrease"):
        # built directly, without ``of``: every RelationSet checks its rules
        RelationSet(ring, (((0,), ring.parse("c^2 + s")),))


def _old_normal_form(rels: RelationSet, p: DensePoly) -> DensePoly:
    """normal_form as it was, on exponent vectors: rewrite the first divisible term, rebuild, repeat."""
    rules = [(to_vector(lead, rels.ring.nvars), DensePoly.of(repl)) for lead, repl in rels.rules]
    while True:
        hit = None
        for e in p.terms:
            for lead, repl in rules:
                if all(a >= b for a, b in zip(e, lead)):
                    hit = (e, lead, repl)
                    break
            if hit:
                break
        if hit is None:
            return p
        e, lead, repl = hit
        quotient = tuple(a - b for a, b in zip(e, lead))
        rest = DensePoly(rels.ring, {m: q for m, q in p.terms.items() if m != e})
        p = rest + DensePoly(rels.ring, {quotient: p.terms[e]}) * repl


@pytest.mark.parametrize("chart", ("rep2-a2", "rep3-a2"))
def test_normal_form_matches_the_rebuilding_loop(chart):
    rels = get_chart(chart).relations
    ring = rels.ring
    rng = random.Random(20261019)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 4) if rng.random() < 0.4 else 0 for _ in ring.names)
            terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        p = DensePoly(ring, terms)
        assert rels.normal_form(p.to_poly()) == _old_normal_form(rels, p).to_poly()


def test_partial_derivative(cs_ring):
    p = cs_ring.parse("c^2*s + 3*lam")
    assert p.partial("c") == cs_ring.parse("2*c*s")
    assert p.partial("s") == cs_ring.parse("c^2")
    assert p.partial("mu").is_zero()


def test_substitute_and_eval(cs_ring):
    target = PolyRing(("u",))
    u = target.var("u")
    p = cs_ring.parse("c^2 + s")
    image = p.substitute({"c": u, "s": u * u, "lam": target.zero(), "mu": target.zero()}, target)
    assert image == target.parse("2*u^2")
    assert p.eval_rational({"c": Fraction(2), "s": Fraction(1), "lam": 0, "mu": 0}) == 5
    assert abs(p.eval_float({"c": 2.0, "s": 1.0, "lam": 0.0, "mu": 0.0}) - 5.0) < 1e-12


# -- oracle: the kernel before it skipped its throwaway work ---------------------
#
# Each old operation built a Fraction(0) default per term and filtered zeros
# again in the constructor, on exponent vectors (``dense_poly.DensePoly``).
# The power oracle multiplies into the constant 1 and squares the base only
# while a higher bit remains, since a square past the last bit is never used.
# The new kernel must give the same term maps in the same key order.


def _old_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        s = terms.get(e, Fraction(0)) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return DensePoly(p.ring, terms)


def _old_neg(p):
    return DensePoly(p.ring, {e: -c for e, c in p.terms.items()})


def _old_sub(p, q):
    return _old_add(p, _old_neg(q))


def _old_mul(p, q):
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = acc.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                acc.pop(e, None)
            else:
                acc[e] = s
    return DensePoly(p.ring, acc)


def _old_pow(p, n):
    result = DensePoly.const(p.ring, 1)
    base = p
    while n:
        if n & 1:
            result = _old_mul(result, base)
        n >>= 1
        if n:
            base = _old_mul(base, base)
    return result


def _old_substitute(p, mapping, target):
    """The ring morphism of a MultiPoly, folded term by term on exponent vectors, each power raised afresh."""
    images = [mapping[name] for name in p.ring.names]
    images = [DensePoly.of(img) if isinstance(img, MultiPoly) else DensePoly.const(target, img) for img in images]
    powers = [dict() for _ in images]
    result = DensePoly(target, {})
    for e, c in sorted(DensePoly.of(p).terms.items()):
        term = DensePoly.const(target, c)
        for i, k in enumerate(e):
            if k:
                if k not in powers[i]:
                    powers[i][k] = _old_pow(images[i], k)
                term = _old_mul(term, powers[i][k])
        result = _old_add(result, term)
    return result


_KERNEL_RING = PolyRing(("x", "y", "z"))
# a small exponent box, so that sums and products meet the same keys often
_exponents = st.tuples(*[st.integers(0, 2)] * 3)
_coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
_kernel_polys = st.lists(st.tuples(_exponents, _coefficients), max_size=6).map(
    lambda terms: DensePoly(_KERNEL_RING, dict(terms)).to_poly()
)


def _same(got, want):
    """Equal term maps (MultiPoly ``got``, DensePoly ``want``) in the same key order, and no stored zero."""
    assert got.ring == want.ring
    assert list(DensePoly.of(got).terms.items()) == list(want.terms.items())
    assert all(c != 0 for c in got.terms.values())


@seed(20261024)
@settings(max_examples=100, deadline=None, database=None)
@given(p=_kernel_polys, q=_kernel_polys, c=_coefficients)
def test_kernel_matches_the_old_arithmetic(p, q, c):
    P, Q = DensePoly.of(p), DensePoly.of(q)
    # q - p against p cancels p's terms in p + (q - p); p - p and p + (-p) vanish
    for A, B in ((P, Q), (P, _old_neg(P)), (P, P), (P, _old_sub(Q, P)), (Q, P)):
        a, b = A.to_poly(), B.to_poly()
        _same(a + b, _old_add(A, B))
        _same(a - b, _old_sub(A, B))
        _same(a * b, _old_mul(A, B))
    _same(-p, _old_neg(P))
    scalar = DensePoly.const(_KERNEL_RING, c)
    _same(p + c, _old_add(P, scalar))
    _same(p - c, _old_sub(P, scalar))
    _same(p * c, _old_mul(P, scalar))
    assert (p + _old_neg(P).to_poly()).is_zero() and (p - p).is_zero()
    product = _KERNEL_RING.one()
    for k in range(6):
        _same(p**k, _old_pow(P, k))
        assert (p**k).terms == product.terms
        product = product * p
    # one morphism maps several polynomials through the same power and monomial caches
    mapping = {"x": q, "y": c, "z": p + q}
    image = _KERNEL_RING.morphism(mapping, _KERNEL_RING)
    for r in (p, q, p * q, p):
        want = _old_substitute(r, mapping, _KERNEL_RING)
        _same(image(r), want)
        _same(r.substitute(mapping, _KERNEL_RING), want)


# -- oracle: the exponent vectors that words replaced -----------------------------
#
# ``dense_poly.DensePoly`` is the arithmetic on exponent vectors that MultiPoly
# ran before each monomial became its word.  On random polynomials over 1-80
# variables every operation must give the same term map in the same key order,
# the same text and the same values, floats bit for bit.


def _random_dense(rng: random.Random, ring: PolyRing, terms: int, degree: int) -> DensePoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(ring.nvars)] += 1
        out[tuple(exps)] = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return DensePoly(ring, out)


def _same_floats(got: list[float], want: list[float]) -> None:
    assert [x.hex() for x in got] == [x.hex() for x in want]


@seed(20261027)
@settings(max_examples=60, deadline=None, database=None)
@given(nvars=st.integers(1, 80), state=st.integers(0, 2**32 - 1))
def test_words_match_dense_exponent_vectors(nvars, state):
    rng = random.Random(state)
    ring = PolyRing(f"x{i}" for i in range(nvars))
    P, Q = _random_dense(rng, ring, 6, 4), _random_dense(rng, ring, 6, 4)
    p, q = P.to_poly(), Q.to_poly()
    assert DensePoly.of(p).terms == P.terms and list(DensePoly.of(p).terms) == list(P.terms)
    for got, want in ((p + q, P + Q), (p - q, P - Q), (-p, -P), (p * q, P * Q), (q * p, Q * P)):
        _same(got, want)
    for k in range(4):
        _same(p**k, P**k)
    for name in rng.sample(ring.names, min(nvars, 5)):
        _same(p.partial(name), P.partial(name))
    assert str(p) == str(P) and str(p * q) == str(P * Q)
    exact = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for name in ring.names}
    assert p.eval_rational(exact) == P.eval_rational(exact)
    points = [{name: rng.uniform(-2.0, 2.0) for name in ring.names} for _ in range(3)]
    for r, R in ((p, P), (p * q, P * Q)):
        _same_floats([r.eval_float(pt) for pt in points], [R.eval_float(pt) for pt in points])
        _same_floats(r.eval_floats([[pt[name] for name in ring.names] for pt in points]), [R.eval_float(pt) for pt in points])
    # rules x_i^k -> a replacement of lower degree, on distinct variables
    rules = []
    for i in rng.sample(range(nvars), min(nvars, 2)):
        k = rng.randint(2, 3)
        repl = _random_dense(rng, ring, 3, k - 1)
        rules.append((tuple(k if j == i else 0 for j in range(nvars)), repl))
    rels = RelationSet(ring, tuple((to_word(lead), repl.to_poly()) for lead, repl in rules))
    for r, R in ((p, P), (p * q, P * Q)):
        _same(rels.normal_form(r), dense_normal_form(rules, R))
    # a morphism into a small ring, some variables sent to constants
    target = PolyRing(f"y{i}" for i in range(rng.randint(1, 4)))
    images, mapping = [], {}
    for name in ring.names:
        if rng.random() < 0.3:
            images.append(_random_dense(rng, target, 3, 2))
            mapping[name] = images[-1].to_poly()
        else:
            mapping[name] = rng.randint(-2, 2)
            images.append(DensePoly.const(target, mapping[name]))
    image, dense_image = ring.morphism(mapping, target), dense_morphism(images, target)
    for r, R in ((p, P), (q, Q), (p * q, P * Q)):
        _same(image(r), dense_image(R))


def test_morphism_rejects_missing_foreign_and_misplaced_images(cs_ring):
    target = PolyRing(("u",))
    with pytest.raises(ValueError, match="no image"):
        cs_ring.morphism({"c": 1}, target)
    with pytest.raises(ValueError, match="lives in"):
        cs_ring.morphism({"c": cs_ring.var("c"), "s": 0, "lam": 0, "mu": 0}, target)
    image = cs_ring.morphism({"c": 1, "s": 0, "lam": 0, "mu": 0}, target)
    with pytest.raises(ValueError, match="source ring"):
        image(target.var("u"))
