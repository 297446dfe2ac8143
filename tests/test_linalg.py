import random
from fractions import Fraction

from doublepoisson.linalg import (
    QMatrix,
    SparseEliminator,
    canonical_basis,
    in_span,
    invert_matrix,
    nullspace_of_rows,
    rank_of_vectors,
    subspaces_equal,
)


def test_nullspace_identity_empty():
    assert QMatrix.identity(2).nullspace() == []


def test_nullspace_zero_matrix():
    basis = QMatrix.zero(2, 2).nullspace()
    assert len(basis) == 2
    assert rank_of_vectors(basis) == 2


def test_nullspace_rank_one():
    # rank 1 by hand: second row is twice the first
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1
    basis = m.nullspace()
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_nullspace_properties_random():
    rng = random.Random(2)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = QMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        basis = m.nullspace()
        assert m.rank() + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert rank_of_vectors(basis) == len(basis)


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


def test_deterministic_nullspace_order():
    rows = [{0: 1, 1: 1, 2: 1}]
    b1 = nullspace_of_rows(rows, 3)
    b2 = nullspace_of_rows([dict(r) for r in rows], 3)
    assert b1 == b2
    # free columns are taken in ascending order
    assert b1[0][1] == 1 and b1[1][2] == 1


# -- oracle: the Gauss-Jordan pass that scans every row for every pivot ---------


def _naive_reduced_pivot_rows(pivot_rows):
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
    return rows


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
