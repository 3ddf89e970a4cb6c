"""Exact linear algebra over the rationals.

Rank and determinant are computed with fraction-free (Bareiss) Gaussian
elimination after clearing denominators, so conclusions never depend on a
floating tolerance.  Matrices are plain nested lists of ``Fraction`` or
``int`` entries; sizes here stay in the low hundreds.
"""

from fractions import Fraction
from math import lcm, prod

from .errors import PreconditionError


def _integer_rows(matrix):
    """Copy ``matrix`` scaling each row to integers (rank preserving).

    Returns the integer rows and the factor each row was multiplied by.
    """
    rows = []
    scales = []
    for row in matrix:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
            elif not isinstance(x, int):
                raise PreconditionError(
                    f"exact linear algebra needs int or Fraction entries, "
                    f"got {type(x).__name__} {x!r}")
        rows.append([int(x * den) if den > 1 else int(x) for x in row])
        scales.append(den)
    return rows, scales


def rank(matrix):
    """Exact rank via fraction-free elimination with row pivoting."""
    m, _ = _integer_rows(matrix)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        top = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def det(matrix):
    """Exact determinant of a square rational matrix (Bareiss)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    m, scales = _integer_rows(matrix)
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot = m[c][c]
        top = m[c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], prod(scales))
