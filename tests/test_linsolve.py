"""The integer Gauss-Jordan inverse against elimination over Fraction."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from crnf.errors import SingularSystemError
from crnf.linsolve import invert

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    database=None)

# mostly zeros, like the weight systems, so that pivots must be searched
# for and singular matrices are drawn too
ints = st.sampled_from([0] * 6 + [1, -1, 2, -3, 4, 7, -12, 210])
rationals = st.one_of(ints, ints, st.builds(Fraction, st.integers(-9, 9),
                                           st.integers(1, 12)))


def matrices(entries):
    return st.integers(1, 14).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def check_against_oracle(M):
    n = len(M)
    try:
        want = oracle.gauss_jordan_inverse(M)
    except oracle.Singular as exc:
        with pytest.raises(SingularSystemError,
                           match=rf"^singular system at column {exc.args[0]}$"):
            invert(M)
        return False
    delta, rows = invert(M)
    assert delta > 0 and all(type(a) is int for row in rows for a in row)
    inv = [[Fraction(a, delta) for a in row] for row in rows]
    assert inv == want
    # delta is the least common denominator
    assert gcd(delta, *(a for row in rows for a in row)) == 1
    assert [[sum(M[i][t] * inv[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)]
                                   for i in range(n)]
    return True


@PROPERTY
@given(matrices(ints))
def test_integer_matrices(M):
    check_against_oracle(M)


@PROPERTY
@given(matrices(rationals))
def test_rational_matrices(M):
    check_against_oracle(M)


@PROPERTY
@given(matrices(st.integers(-9, 9)), st.data())
def test_dense_nonsingular(M, data):
    # dense draws are almost never singular; a unit lower-triangular factor
    # times a row permutation of an upper-triangular one never is
    n = len(M)
    U = [[M[i][j] if j > i else (M[i][i] or 1) if j == i else 0
          for j in range(n)] for i in range(n)]
    perm = data.draw(st.permutations(range(n)))
    L = [[Fraction(M[j][i], 7) if j < i else int(i == j) for j in range(n)]
         for i in range(n)]
    P = [U[p] for p in perm]
    LP = [[sum(L[i][t] * P[t][j] for t in range(n)) for j in range(n)]
          for i in range(n)]
    assert check_against_oracle(LP)


@pytest.mark.parametrize("M, col", [
    ([[0]], 0),
    ([[1, 2], [2, 4]], 1),
    ([[0, 1, 0], [0, 2, 1], [0, 0, 5]], 0),
    ([[1, 1, 1], [1, 1, 2], [2, 2, 3]], 1),
    ([[2, 0, 4, 1], [0, 3, 0, 1], [1, 0, 2, 5], [3, 3, 6, 7]], 2),
])
def test_singular_column(M, col):
    with pytest.raises(SingularSystemError,
                       match=rf"^singular system at column {col}$"):
        invert(M)
    with pytest.raises(oracle.Singular):
        oracle.gauss_jordan_inverse(M)


def test_least_common_denominator():
    assert invert([[2, 0], [0, 3]]) == (6, [[3, 0], [0, 2]])
    assert invert([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]]) == (1, [[2, 0], [0, -3]])
    assert invert([[0, 1], [1, 0]]) == (1, [[0, 1], [1, 0]])
