"""Exact linear algebra on integer rows: matrix inversion.

Tiny and dependency-free on purpose; the per-weight systems are small
(tens of unknowns) and must be solved exactly with exact singularity
detection, which rules out float-based libraries.  The elimination keeps
every row as Python ints, so no entry is ever a fraction to reduce.
"""

from math import gcd, lcm

from .errors import SingularSystemError


def invert(matrix):
    """(delta, rows) with rows / delta the inverse of a square matrix of
    ints or Fractions: rows are lists of ints, delta > 0 is their least
    common denominator.

    Fraction-free Gauss-Jordan elimination.  Each row stands for its
    equation up to a nonzero factor, so a row is eliminated against the
    pivot row as p * row - f * pivot_row (p the pivot, f the row's entry,
    both divided by their gcd) and then divided by the gcd of its entries;
    a row with no entry in the pivot column is left as it is.  The pivot
    is the first row at or below the diagonal with a nonzero entry, as in
    elimination over the rationals, so both stop at the same column.

    Raises SingularSystemError when the matrix is singular.
    """
    n = len(matrix)
    # row i of the matrix times scales[i] is an integer row
    scales = [lcm(*(a.denominator for a in row)) for row in matrix]
    A = [[a.numerator * (s // a.denominator) for a in row]
         + [int(i == j) for j in range(n)]
         for i, (row, s) in enumerate(zip(matrix, scales))]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            raise SingularSystemError(f"singular system at column {col}")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
        Ac = A[col]
        p = Ac[col]
        for r in range(n):
            f = A[r][col]
            if r != col and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(A[r], Ac)]
                g = gcd(*row)
                A[r] = [x // g for x in row] if g > 1 else row
    # for A x = b, row i now reads A[i][i] x_i = right part . (scales * b):
    # the inverse's row i is its right part times the scales over A[i][i]
    out = []
    for i, row in enumerate(A):
        d = row[i]
        num = [x * s for x, s in zip(row[n:], scales)]
        g = gcd(d, *num)
        if d < 0:
            g = -g
        out.append((d // g, [x // g for x in num]))
    delta = lcm(*(d for d, _ in out))
    return delta, [[x * (delta // d) for x in num] for d, num in out]
