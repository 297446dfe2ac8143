"""Exact multivariate polynomials over Q with graded-lex rewriting.

A polynomial is a sparse map from monomials to nonzero exact rational
coefficients; a monomial is its word, the ascending tuple of its variable
indices with repeats (x0^2*x3 is (0, 0, 3)).  Every exact scalar of the
engine follows one rule (``exact_scalar``): it is an int when its denominator
is 1, a :class:`fractions.Fraction` otherwise, and never a float.  The ring's
constructors (``const``, ``var``, ``monomial``, ``parse``) apply it, and
arithmetic keeps what its operands hold, so int coefficients stay ints under
+ and *.  Rings are just an ordered tuple of variable names, fixed at
construction so that the graded lexicographic order (and hence every normal
form) is deterministic.

Rewrite systems (:class:`RelationSet`) are deliberately restricted to rules
whose replacement is strictly smaller than the leading monomial in graded-lex;
no completion is attempted, so only rule sets that are confluent by
construction (single-variable powers such as c^2 -> 1 - s^2) belong here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Iterable, Mapping, Union

Scalar = Union[int, Fraction, "MultiPoly"]


def exact_scalar(c) -> int | Fraction:
    """The exact rational ``c``: an int when its denominator is 1, a Fraction otherwise.

    ``c`` is an int, a Fraction, or anything ``Fraction`` reads exactly (a
    "p/q" string, a float, a Decimal); the result is never a float.  Folds
    that start from the int 0 then run on ints wherever their inputs are
    integral, and meet a Fraction only where a denominator exists.
    """
    if type(c) is int:
        return c
    q = c if type(c) is Fraction else Fraction(c)
    return q.numerator if q.denominator == 1 else q


#: An optional sign, ASCII digits, then at most one "/digits" or ".digits".
_RATIONAL = re.compile(r"[+-]?[0-9]+([/.][0-9]+)?")


def parse_rational(text: str) -> int | Fraction:
    """Parse "p", "p/q" or "p.q" into an exact scalar (``exact_scalar``).

    Anything else raises ValueError, before any arithmetic: exponent
    notation, whose expansion takes time and memory without bound
    ("1e4000000"), digit separators and non-ASCII digits.  An integer
    literal is read by ``int``.
    """
    text = text.strip()
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational number: {text!r}")
    return int(text) if match.group(1) is None else exact_scalar(text)


def lex_key(word: tuple[int, ...]) -> tuple:
    """Sort key of a word realizing lexicographic order of exponent vectors."""
    return tuple(-i for i in word)


def grlex_key(word: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lexicographic order (first variable largest)."""
    return (len(word), lex_key(word))


def _runs(word: tuple[int, ...]):
    """(variable index, exponent) of each variable in the word, ascending."""
    runs: dict[int, int] = {}
    for i in word:
        runs[i] = runs.get(i, 0) + 1
    return runs.items()


class PolyRing:
    """An ordered list of variable names; the home of MultiPoly values."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        self._index = {n: i for i, n in enumerate(self.names)}

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"PolyRing{self.names}"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown variable {name!r} in ring {self.names}")
        return self._index[name]

    def zero(self) -> MultiPoly:
        return MultiPoly(self, {})

    def one(self) -> MultiPoly:
        return self.const(1)

    def const(self, c) -> MultiPoly:
        c = exact_scalar(c)
        if c == 0:
            return self.zero()
        return MultiPoly(self, {(): c})

    def var(self, name: str) -> MultiPoly:
        return MultiPoly(self, {(self.index(name),): 1})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> MultiPoly:
        word = tuple(sorted(i for name, e in exps.items() for i in (self.index(name),) * e))
        c = exact_scalar(coeff)
        if c == 0:
            return self.zero()
        return MultiPoly(self, {word: c})

    def parse(self, text: str) -> MultiPoly:
        return _parse_poly(self, text)

    def morphism(self, mapping: Mapping[str, Scalar], target: PolyRing) -> Callable[[MultiPoly], MultiPoly]:
        """The ring morphism into ``target`` that sends each variable to its image.

        Every variable of this ring must be mapped (to a MultiPoly over
        ``target`` or to a Fraction/int constant).  The returned function maps
        one polynomial of this ring; each power of a variable's image is built
        once, on first use, and kept for as long as the function lives.  The
        image of p is folded term by term, in lexicographic order of the
        exponent vectors (``lex_key``), as c times the power of each variable.
        """
        images: list[MultiPoly] = []
        for name in self.names:
            if name not in mapping:
                raise ValueError(f"substitute: no image given for variable {name!r}")
            img = mapping[name]
            if not isinstance(img, MultiPoly):
                img = target.const(img)
            elif img.ring != target:
                raise ValueError(f"image of {name!r} lives in {img.ring}, not {target}")
            images.append(img)
        powers: dict[tuple[int, int], MultiPoly] = {}

        def image(p: MultiPoly) -> MultiPoly:
            if p.ring is not self and p.ring != self:
                raise ValueError(f"ring mismatch: {p.ring} is not the source ring {self}")
            out = target.zero()
            for word, c in sorted(p.terms.items(), key=lambda t: lex_key(t[0])):
                term = target.const(c)
                for i, k in _runs(word):
                    if (i, k) not in powers:
                        powers[i, k] = images[i] ** k
                    term = term * powers[i, k]
                out = out + term
            return out

        return image


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    A coefficient is an int when its denominator is 1 and a Fraction
    otherwise, never a float (``exact_scalar``); the ring's constructors
    apply that rule, and + and * keep it.

    Immutable by convention: no operation modifies an operand (``p ** 1`` is
    ``p`` itself), and the term map never stores zero coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], int | Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _clean(cls, ring: PolyRing, terms: dict[tuple[int, ...], int | Fraction]) -> MultiPoly:
        """Wrap a term map that holds no zero coefficient, without filtering it again."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_monomial(self) -> tuple[int, ...]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def coefficient(self, exps: tuple[int, ...]) -> int | Fraction:
        return self.terms.get(exps, 0)

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        return self.ring.const(other)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
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
        return MultiPoly._clean(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._clean(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MultiPoly:
        other = self._coerce(other)
        acc: dict[tuple[int, ...], int | Fraction] = {}
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(sorted(e1 + e2))
                if e in acc:
                    s = acc[e] + c1 * c2
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
                else:
                    acc[e] = c1 * c2
        return MultiPoly._clean(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        """Square and multiply; the base is squared only while a higher bit remains."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return self.ring.one() if result is None else result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------------

    def partial(self, name: str) -> MultiPoly:
        """Formal partial derivative with respect to one ring variable."""
        i = self.ring.index(name)
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for word, c in self.terms.items():
            k = word.count(i)
            if k:
                j = word.index(i)
                acc[word[:j] + word[j + 1 :]] = c * k
        return MultiPoly._clean(self.ring, acc)

    def substitute(self, mapping: Mapping[str, Scalar], target: PolyRing) -> MultiPoly:
        """Ring morphism: replace every variable by its image in ``target`` (see ``PolyRing.morphism``)."""
        return self.ring.morphism(mapping, target)(self)

    def eval_rational(self, values: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation at a rational point (all variables required)."""
        point = [Fraction(values[name]) for name in self.ring.names]
        return sum((c * prod(point[i] ** k for i, k in _runs(w)) for w, c in self.terms.items()), Fraction(0))

    def eval_float(self, values: Mapping[str, float]) -> float:
        return self.eval_floats([[float(values[name]) for name in self.ring.names]])[0]

    def eval_floats(self, points: list[list[float]]) -> list[float]:
        """``eval_float`` at each point, a float list in ring variable order; coefficients converted once."""
        terms = [(float(c), _runs(word)) for word, c in self.terms.items()]
        values = []
        for point in points:
            total = 0.0
            for term, runs in terms:
                for i, k in runs:
                    term *= point[i] ** k
                total += term
            values.append(total)
        return values

    # -- rendering -----------------------------------------------------------

    def _monomial_str(self, word: tuple[int, ...]) -> str:
        names = self.ring.names
        return "*".join(names[i] if k == 1 else f"{names[i]}^{k}" for i, k in _runs(word))

    def __str__(self) -> str:
        # descending grlex: in one degree, ascending words are descending exponent vectors
        terms = self.terms
        return _render((terms[w], self._monomial_str(w)) for w in sorted(terms, key=lambda w: (-len(w), w)))

    __repr__ = __str__


def _render(terms: Iterable[tuple[int | Fraction, str]]) -> str:
    """The polynomial text of its (coefficient, monomial text) terms, in the order given; "0" for none."""
    out = ""
    for c, mono in terms:
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


class QuadraticForm:
    """A quadratic form sum c * t_k t_l in named parameters, held sparse.

    ``terms`` maps the key k * p + l of the monomial t_k t_l (k <= l, p the
    number of parameters) to its nonzero exact scalar; divmod(key, p) is the
    word (k, l).  Ascending key is descending graded lex, so the text is
    ``str`` of the equal MultiPoly with no sort.  ``to_poly`` gives that
    MultiPoly.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple[str, ...], terms: dict[int, int | Fraction]):
        self.names = names
        self.terms = terms

    def _monomial_str(self, key: int) -> str:
        k, l = divmod(key, len(self.names))
        return f"{self.names[k]}^2" if k == l else f"{self.names[k]}*{self.names[l]}"

    def __str__(self) -> str:
        return _render((self.terms[key], self._monomial_str(key)) for key in sorted(self.terms))

    __repr__ = __str__

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadraticForm):
            return self.names == other.names and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.names, tuple(sorted(self.terms.items()))))

    def to_poly(self) -> MultiPoly:
        """The form as a MultiPoly over PolyRing(names)."""
        p = len(self.names)
        return MultiPoly._clean(PolyRing(self.names), {divmod(key, p): c for key, c in self.terms.items()})


def distinct_up_to_scalar(polys: Iterable[MultiPoly]) -> list[MultiPoly]:
    """The nonzero ``polys`` scaled to leading coefficient 1, scalar multiples dropped.

    The first occurrence of each class is kept, in input order; membership is a
    hash lookup on the normalized term map, so the cost is linear in the input.
    """
    seen: set = set()
    kept: list[MultiPoly] = []
    for p in polys:
        if p.is_zero():
            continue
        lead = Fraction(p.terms[p.leading_monomial()])  # an int quotient would be a float
        terms = {e: c / lead for e, c in p.terms.items()}
        key = (p.ring, frozenset(terms.items()))
        if key not in seen:
            seen.add(key)
            kept.append(MultiPoly(p.ring, terms))
    return kept


class RelationSet:
    """A confluent-by-construction rewrite system for polynomial normal forms.

    Each rule maps a leading monomial (a word) to a replacement
    polynomial whose monomials are all strictly smaller in graded-lex, which
    construction checks; since graded-lex is a well-order compatible with
    products, rewriting terminates for every RelationSet.  Confluence is the
    caller's responsibility and holds for the rule shapes used here
    (disjoint single-variable leading powers).
    """

    __slots__ = ("ring", "rules")

    def __init__(self, ring: PolyRing, rules: tuple[tuple[tuple[int, ...], MultiPoly], ...]):
        for lead, repl in rules:
            for e in repl.terms:
                if grlex_key(e) >= grlex_key(lead):
                    raise ValueError(f"replacement monomial {e} does not decrease the head {lead}")
        self.ring = ring
        self.rules = rules

    @staticmethod
    def of(ring: PolyRing, rules: Iterable[tuple[MultiPoly, MultiPoly]]) -> RelationSet:
        """Build from (leading monomial as a 1-term poly, replacement) pairs."""
        packed = []
        for lead_poly, repl in rules:
            if lead_poly.ring != ring or repl.ring != ring:
                raise ValueError("relation rule in a different ring")
            if len(lead_poly.terms) != 1 or next(iter(lead_poly.terms.values())) != 1:
                raise ValueError("rule head must be a single monic monomial")
            packed.append((next(iter(lead_poly.terms)), repl))
        return RelationSet(ring, tuple(packed))

    @staticmethod
    def single(ring: PolyRing, head: str, replacement: str) -> RelationSet:
        """Convenience: one rule given as strings, e.g. ("c^2", "1 - s^2")."""
        return RelationSet.of(ring, [(ring.parse(head), ring.parse(replacement))])

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        """The normal form of ``p``, in one worklist pass.

        A term whose word holds a rule head's word (as a multiset) is replaced
        by the quotient times each replacement term; any other term is kept.
        Pending terms with the same monomial are summed, and a pending term
        that sums to zero is dropped.
        """
        if p.ring != self.ring:
            raise ValueError(f"ring mismatch: poly in {p.ring}, relations in {self.ring}")
        work = dict(p.terms)
        out: dict[tuple[int, ...], int | Fraction] = {}
        while work:
            e, c = work.popitem()
            if not c:
                continue
            for lead, repl in self.rules:
                quotient = _divide(e, lead)
                if quotient is not None:
                    for m, r in repl.terms.items():
                        key = tuple(sorted(quotient + m))
                        work[key] = work.get(key, 0) + c * r
                    break
            else:
                out[e] = out.get(e, 0) + c
        return MultiPoly(self.ring, out)


def _divide(word: tuple[int, ...], head: tuple[int, ...]) -> tuple[int, ...] | None:
    """word / head as a word, or None if head does not divide word."""
    rest = list(word)
    for i in head:
        if i not in rest:
            return None
        rest.remove(i)
    return tuple(rest)


# -- parser ------------------------------------------------------------------
#
# Grammar:  expr   := ['+'|'-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := atom ('^' INT)?
#           atom   := RATIONAL | NAME | '(' expr ')'
#
# A power or a product is bounded before it is built: its result may have at
# most _MAX_TERMS terms and a weight (``_weight``) of at most _MAX_BITS, so no
# coefficient's numerator or denominator exceeds 2**_MAX_BITS, and at most
# _MAX_SIZE in terms times (degree + weight), word letters plus coefficient
# bits.  Past any limit the parser raises ValueError at once.

_MAX_TERMS = 500
_MAX_BITS = 10_000
_MAX_SIZE = 2**15


def _weight(p: MultiPoly) -> int:
    """ceil(log2 |P|) + ceil(log2 D), where p = P/D, D the least common denominator of p's coefficients.

    |P| is the sum of the absolute values of P's integer coefficients, so each
    numerator and denominator of p is at most 2**weight.  Since |PQ| <= |P||Q|,
    weight(f * g) <= weight(f) + weight(g) and weight(f ** e) <= e * weight(f);
    a constant c to the power e has at most e times c's bit length in bits.
    """
    den = lcm(*(c.denominator for c in p.terms.values()))
    norm = sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values())
    return max(norm - 1, 0).bit_length() + (den - 1).bit_length()


def _degree(p: MultiPoly) -> int:
    return max(map(len, p.terms), default=0)


def _check_size(what: str, terms: int, degree: int, bits: int) -> None:
    if terms > _MAX_TERMS:
        raise ValueError(f"{what} could expand to more than {_MAX_TERMS} terms")
    if bits > _MAX_BITS:
        raise ValueError(f"{what} could expand to coefficients of {bits} bits, more than {_MAX_BITS}")
    if terms * (degree + bits) > _MAX_SIZE:
        raise ValueError(f"{what} could expand to more than {_MAX_SIZE} in terms times (degree + bits)")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ValueError(f"bad rational at {text[i:]!r}")
                j = k
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial {text!r}")
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, tokens: list[str]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def parse_expr(self) -> MultiPoly:
        result = None
        while result is None or self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            term = self.parse_term() * sign
            result = term if result is None else result + term
        return result

    def parse_term(self) -> MultiPoly:
        result = self.parse_factor()
        while self.peek() == "*":
            self.take()
            factor = self.parse_factor()
            # a product f*g has at most |f|*|g| terms
            terms = len(result.terms) * len(factor.terms)
            _check_size("a product", terms, _degree(result) + _degree(factor), _weight(result) + _weight(factor))
            result = result * factor
        return result

    def parse_factor(self) -> MultiPoly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not (exp_tok.isascii() and exp_tok.isdigit()):
                raise ValueError(f"exponent must be a nonnegative integer in ASCII digits, got {exp_tok!r}")
            e = int(exp_tok)
            # a k-term base to the power e has at most C(e+k-1, k-1) terms, which is over
            # the limit once e >= _MAX_TERMS and k >= 2
            k = len(base.terms)
            terms = 1 if k < 2 else e + 1 if e >= _MAX_TERMS else comb(e + k - 1, k - 1)
            _check_size(f"the power ^{exp_tok}", terms, e * _degree(base), e * _weight(base))
            base = base ** e
        return base

    def parse_atom(self) -> MultiPoly:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok[0].isdigit():
            return self.ring.const(parse_rational(tok))
        if tok[0].isalpha() or tok[0] == "_":
            return self.ring.var(tok)
        raise ValueError(f"unexpected token {tok!r}")


def _parse_poly(ring: PolyRing, text: str) -> MultiPoly:
    parser = _Parser(ring, _tokenize(text))
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input {parser.tokens[parser.pos:]!r}")
    return result

