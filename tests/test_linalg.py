import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson.linalg import (
    SparseEliminator,
    canonical_basis,
    in_span,
    invert_matrix,
    nullspace_of_rows,
    primitive_row,
    rank_of_rows,
    subspaces_equal,
)


def _sparse(rows):
    return [{c: Fraction(x) for c, x in enumerate(row) if x} for row in rows]


def _apply(rows, vec):
    """The mat-vec product of dense rows with a sparse kernel vector."""
    return [sum((Fraction(x) * vec.get(c, 0) for c, x in enumerate(row)), Fraction(0)) for row in rows]


def test_nullspace_identity_empty():
    assert nullspace_of_rows(_sparse([[1, 0], [0, 1]]), 2) == []


def test_nullspace_zero_matrix():
    basis = nullspace_of_rows(_sparse([[0, 0], [0, 0]]), 2)
    assert len(basis) == 2
    assert rank_of_rows(basis, 2) == 2


def test_nullspace_rank_one():
    # rank 1 by hand: second row is twice the first
    rows = [[1, 2, 3], [2, 4, 6]]
    assert rank_of_rows(_sparse(rows), 3) == 1
    basis = nullspace_of_rows(_sparse(rows), 3)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in _apply(rows, v))


def test_nullspace_properties_random():
    rng = random.Random(2)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(nrows)]
        basis = nullspace_of_rows(_sparse(rows), cols)
        assert rank_of_rows(_sparse(rows), cols) + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in _apply(rows, v))
        assert rank_of_rows(basis, cols) == len(basis)


def test_nullspace_of_sparse_rows():
    basis = nullspace_of_rows([{0: 1, 2: -1}, {1: 2}], 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[2] and 1 not in v and v[0] != 0


def test_subspace_predicates():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert subspaces_equal(a, b)
    assert in_span(b, [Fraction(3), Fraction(5)])
    assert not subspaces_equal(a[:1], b)
    assert not in_span([a[0]], [Fraction(0), Fraction(1)])
    # equal ranks, different lines; empty and zero spans
    assert not subspaces_equal(a[:1], b[:1])
    assert not subspaces_equal([[Fraction(1), Fraction(2), Fraction(0)]], [[Fraction(2), Fraction(4), Fraction(1)]])
    assert subspaces_equal([[Fraction(1), Fraction(2)]], [[Fraction(-3), Fraction(-6)], [Fraction(0), Fraction(0)]])
    assert subspaces_equal([], [[Fraction(0), Fraction(0)]])
    assert not subspaces_equal([], b)


def test_invert_matrix():
    g = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    gi = invert_matrix(g)
    prod = [
        [sum(g[i][k] * gi[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


# -- oracle: the dense Gauss-Jordan inverse ------------------------------------


def _dense_invert_matrix(rows):
    """Gauss-Jordan on the dense [M | I] with row swaps; ValueError when singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def test_invert_matrix_matches_the_dense_gauss_jordan():
    rng = random.Random(20261019)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            m[0][0] = Fraction(0)  # the dense pass must swap rows
        if trial % 5 == 0 and n > 1:
            # row 1 a combination of the others: singular
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[1] = [a * x + b * y for x, y in zip(m[0], m[-1])]
        try:
            expected = _dense_invert_matrix(m)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="not invertible"):
                invert_matrix(m)
            continue
        inverse = invert_matrix(m)
        assert inverse == expected
        assert all(type(x) is Fraction for row in inverse for x in row)
    assert 40 <= singular <= 200


def test_add_row_returns_whether_the_rank_grew():
    rng = random.Random(20261023)
    grew = kept = 0
    for _ in range(200):
        ncols = rng.randint(1, 8)
        elim = SparseEliminator(ncols)
        for _ in range(rng.randint(1, 12)):
            cols = rng.sample(range(ncols), rng.randint(0, min(ncols, 4)))
            rank = elim.rank
            added = elim.add_row({c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in cols})
            assert added is (elim.rank > rank)
            grew, kept = grew + added, kept + (not added)
    assert grew and kept


def test_deterministic_nullspace_order():
    rows = [{0: 1, 1: 1, 2: 1}]
    b1 = nullspace_of_rows(rows, 3)
    b2 = nullspace_of_rows([dict(r) for r in rows], 3)
    assert b1 == b2
    # free columns are taken in ascending order
    assert b1[0][1] == 1 and b1[1][2] == 1


# -- oracle: the Gauss-Jordan pass that scans every row for every pivot ---------


def _naive_reduced_pivot_rows(pivot_rows):
    """The reduced rows by rational row operations, each then scaled to 1 at its lead."""
    rows = {c: {k: Fraction(v) for k, v in r.items()} for c, r in pivot_rows.items()}
    for lead in sorted(rows, reverse=True):
        row = rows[lead]
        for other_lead, other in rows.items():
            if other_lead >= lead or lead not in other:
                continue
            factor = other[lead] / row[lead]
            for c, v in row.items():
                s = other.get(c, Fraction(0)) - factor * v
                if s == 0:
                    other.pop(c, None)
                else:
                    other[c] = s
    return {lead: {c: v / row[lead] for c, v in row.items()} for lead, row in rows.items()}


def _dense(vectors, ncols):
    return [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in vectors]


def _naive_nullspace(reduced, ncols):
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for lead, row in reduced.items():
            coeff = row.get(free)
            if coeff:
                vec[lead] = -coeff / row[lead]
        basis.append(vec)
    return basis


def test_column_indexed_back_substitution_matches_naive_pass():
    rng = random.Random(20261017)
    for _ in range(300):
        ncols = rng.randint(1, 14)
        elim = SparseEliminator(ncols)
        for _ in range(rng.randint(1, 16)):
            cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))
            elim.add_row({c: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for c in cols})
        reduced = elim.reduced_pivot_rows()
        assert reduced == _naive_reduced_pivot_rows(elim.pivot_rows)
        sparse = elim.nullspace()
        assert all(list(vec) == sorted(vec) and all(vec.values()) for vec in sparse)
        assert _dense(sparse, ncols) == _naive_nullspace(reduced, ncols)


def test_canonical_basis_recovers_the_nullspace_basis_from_any_spanning_set():
    rng = random.Random(20261018)
    for _ in range(300):
        ncols = rng.randint(1, 14)
        elim = SparseEliminator(ncols)
        for _ in range(rng.randint(0, 12)):
            cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 5)))
            elim.add_row({c: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for c in cols})
        basis = _dense(elim.nullspace(), ncols)
        k = len(basis)
        # a random invertible mix: unit lower times unit upper triangular
        lower = [[Fraction(rng.randint(-3, 3)) if c < r else Fraction(int(c == r)) for c in range(k)] for r in range(k)]
        upper = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if c > r else Fraction(int(c == r)) for c in range(k)] for r in range(k)]
        mix = [[sum(lower[r][m] * upper[m][c] for m in range(k)) for c in range(k)] for r in range(k)]
        mixed = [
            {col: x for col in range(ncols) if (x := sum(mix[r][s] * basis[s][col] for s in range(k)))}
            for r in range(k)
        ]
        mixed += [{}] * rng.randint(0, 1)  # a zero vector spans nothing
        rng.shuffle(mixed)
        rows = canonical_basis(mixed, ncols)
        assert all(list(row) == sorted(row) and all(row.values()) for row in rows)
        assert [[row.get(c, 0) for c in range(ncols)] for row in rows] == basis


# -- oracle: the elimination that normalized every row twice -----------------------


def _old_add_row(pivot_rows, row):
    """add_row as it was: every row cleared of denominators, primitive again at the pivot."""
    entries = {c: v for c, v in row.items() if v != 0}
    if not entries:
        return
    den = 1
    for v in entries.values():
        den = den * v.denominator // gcd(den, v.denominator)
    work = primitive_row({c: v.numerator * (den // v.denominator) for c, v in entries.items()})
    while work:
        lead = min(work)
        pivot = pivot_rows.get(lead)
        if pivot is None:
            pivot_rows[lead] = primitive_row(work)
            return
        a, b = pivot[lead], work[lead]
        combined = {c: a * v for c, v in work.items()}
        for c, v in pivot.items():
            s = combined.get(c, 0) - b * v
            if s == 0:
                combined.pop(c, None)
            else:
                combined[c] = s
        work = primitive_row(combined)


_row_values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.dictionaries(st.integers(0, n - 1), _row_values, max_size=5), max_size=12)
)))
def test_pivot_rows_match_the_twice_normalized_elimination(case):
    ncols, rows = case
    elim = SparseEliminator(ncols)
    old: dict = {}
    for row in rows:
        elim.add_row(row)
        _old_add_row(old, row)
        assert elim.pivot_rows == old
        assert all(type(v) is int for r in elim.pivot_rows.values() for v in r.values())


# -- the fraction-free Gauss-Jordan pass against the Fraction oracle -------------

_big_entries = st.builds(lambda sign, v: sign * v, st.sampled_from((-1, 1)), st.integers(2, 10**6))


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(2, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.dictionaries(st.integers(0, n - 1), _big_entries, min_size=2, max_size=6), min_size=1, max_size=10),
)))
def test_backsubstitution_with_large_leads_matches_naive_pass(case):
    """Entries of magnitude 2..10^6: pivot leads other than 1, so the gcd scaling and content division run."""
    ncols, rows = case
    elim = SparseEliminator(ncols)
    for row in rows:
        elim.add_row(row)
    reduced = elim.reduced_pivot_rows()
    assert reduced == _naive_reduced_pivot_rows(elim.pivot_rows)
    assert all(type(v) is Fraction for row in reduced.values() for v in row.values())
    assert _dense(elim.nullspace(), ncols) == _naive_nullspace(reduced, ncols)


@seed(20261022)
@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.dictionaries(st.integers(0, n - 1), st.integers(-10**6, 10**6), max_size=5), max_size=12)
)))
def test_int_and_fraction_rows_give_the_same_elimination(case):
    ncols, rows = case
    as_int, as_fraction = SparseEliminator(ncols), SparseEliminator(ncols)
    for row in rows:
        as_int.add_row(row)
        as_fraction.add_row({c: Fraction(v) for c, v in row.items()})
    assert as_int.pivot_rows == as_fraction.pivot_rows
    assert as_int.reduced_pivot_rows() == as_fraction.reduced_pivot_rows()
