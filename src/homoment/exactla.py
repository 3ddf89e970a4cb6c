"""Exact linear algebra: rank over GF(p) and determinant over Q.

Matrices are plain nested lists (or arrays) of ``int`` or ``Fraction``
entries; sizes here stay in the low hundreds.  Rank is Gaussian
elimination modulo a prime ``p`` below 2**31 on numpy ``int64`` rows, so
the product of two residues never overflows.  An integer matrix, such as
a secant Jacobian that ``geometry`` builds directly as residues mod p, is
reduced as it is.  A matrix with ``Fraction`` entries is first scaled row
by row to integers, which preserves rank.  For an integer matrix the rank
mod p is at most the rank over Q, so a rank computed here is a certified
lower bound; the two differ only when p divides every r x r minor, r
being the rank over Q.  The determinant stays exact over Q (fraction-free
Bareiss elimination), because callers need its value, not only whether
it vanishes.
"""

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .errors import PreconditionError

# Distinct primes below 2**31: one per random point of a generic-rank test.
PRIMES = (2147483647, 2147483629, 2147483587)


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
        rows.append([x * den if isinstance(x, int)
                     else x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return rows, scales


def rank(matrix, p=PRIMES[0]):
    """Rank over GF(p) of an integer ``matrix``, or of a rational one
    with its rows scaled to integers.

    A lower bound on the rank r over Q, equal to it unless p divides
    every r x r minor of the scaled matrix.  ``p`` must be a prime below
    2**31.
    """
    if not 2 <= p < 2**31:
        raise PreconditionError(
            f"rank needs a prime modulus below 2**31, got {p}")
    m = np.array(matrix)
    if m.dtype.kind in "iu":
        m = (m % p).astype(np.int64)
    else:
        rows, _ = _integer_rows(matrix)
        if not rows:
            return 0
        m = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        nonzero = np.flatnonzero(m[r:, c])
        if nonzero.size == 0:
            continue
        pivot_row = r + nonzero[0]
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        top = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        below = m[r + 1:, c:]
        below -= np.outer(below[:, 0], top)
        below %= p
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
