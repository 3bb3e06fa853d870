"""Exact linear algebra over Fraction: matrix inversion.

Tiny and dependency-free on purpose; the per-weight systems are small
(tens of unknowns) and must be solved exactly with exact singularity
detection, which rules out float-based libraries.
"""

from fractions import Fraction

from .errors import SingularSystemError


def invert(matrix):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination.

    Raises SingularSystemError when the matrix is singular.
    """
    n = len(matrix)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if A[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularSystemError(f"singular system at column {col}")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        if pv != 1:
            A[col] = [a / pv for a in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                Ar, Ac = A[r], A[col]
                A[r] = [a - f * b for a, b in zip(Ar, Ac)]
    return [row[n:] for row in A]
