import random
from fractions import Fraction

import pytest

from doublepoisson.poly import (
    PolyRing,
    RelationSet,
    format_rational,
    grlex_key,
    parse_rational,
)


@pytest.fixture
def cs_ring():
    return PolyRing(("c", "s", "lam", "mu"))


@pytest.fixture
def circle(cs_ring):
    return RelationSet.single(cs_ring, "c^2", "1 - s^2")


def test_rational_round_trip():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-3") == Fraction(-3)
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(7)) == "7"


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


def test_ring_mismatch_errors(cs_ring):
    other = PolyRing(("x", "y"))
    with pytest.raises(ValueError):
        cs_ring.var("c") + other.var("x")


def test_grlex_order():
    # degree first, then lexicographic with the earlier variable larger
    assert grlex_key((2, 0)) > grlex_key((1, 1))
    assert grlex_key((1, 1)) > grlex_key((0, 2))
    assert grlex_key((0, 3)) > grlex_key((2, 0))


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
