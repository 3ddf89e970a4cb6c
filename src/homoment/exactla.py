"""Exact linear algebra: rank over GF(p).

Matrices are sequences of rows, each a list of ints or a numpy ``int64``
array; sizes here stay in the low hundreds.  Rank takes integer entries,
such as a secant Jacobian that ``geometry`` builds directly as residues
mod p in ``int64`` rows, and runs Gaussian elimination over GF(p) on
numpy ``int64`` rows, along the shorter side, since rank(M) = rank(M^T):
a matrix with more rows than columns is transposed, and each row in turn
has its first nonzero entry past the pivots found so far swapped into
the next pivot column, which is then cleared from the rows below.  So a
rank-deficient wide matrix walks its rows, not every one of its columns,
and each update runs along the long, contiguous side.  The default
primes are the three largest below 2**26.  For an integer matrix the
rank mod p is at most the rank over Q, so a rank computed here is a
certified lower bound for any prime, however small; the two differ only
when p divides every r x r minor, r being the rank over Q.  Every minor
and determinant the estimators take is a float
(:func:`homoment._poly.det`); the exact determinant and rank over Q are
test oracles, kept with the tests.

Elimination delays reductions mod p, as in word-size finite-field
libraries (Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields", 2008).  At each pivot only the pivot column
and the pivot row are reduced; the trailing block is updated with no
reduction.  Each update subtracts a product of two residues, at most
(p - 1)**2, from an entry that was in [0, p) when last reduced, so the
block is reduced every ``(2**63 - p) // (p - 1)**2`` pivots, before any
entry could leave ``int64``.  That is 2048 pivots for the default
primes, more than the shorter side of any block ``geometry`` ranks (99
rows for a mixture at n = 8, k = 12, and 117 for a Dirac mixture at
k = 14; the whole Jacobian, ``moment_map_jacobian``, reaches 143), and
at least 2 for every prime below 2**31, the largest modulus accepted.
"""

import numpy as np

from .errors import PreconditionError

# Distinct primes below 2**26: one per random point of a generic-rank test.
PRIMES = (67108859, 67108837, 67108819)


def rank(matrix, p=PRIMES[0]):
    """Rank over GF(p) of an integer ``matrix``, a sequence of equal-length
    rows of ints or ``int64`` arrays; ``matrix`` is left unchanged.

    A lower bound on the rank r over Q, equal to it unless p divides
    every r x r minor.  ``p`` must be a prime below 2**31.  Elimination
    runs along the shorter side; it reduces the pivot row and column at
    each pivot and the trailing block only every
    ``(2**63 - p) // (p - 1)**2`` pivots (see the module docstring).
    Float and ``Fraction`` entries raise ``PreconditionError``: scale
    rational rows to integers first.
    """
    if not 2 <= p < 2**31:
        raise PreconditionError(
            f"rank needs a prime modulus below 2**31, got {p}")
    m = np.array(matrix)
    if m.size == 0:
        return 0
    if not (m.dtype.kind in "iu" or m.dtype == object
            and all(isinstance(x, int) for x in m.flat)):
        raise PreconditionError(
            f"rank needs integer entries, got {m.dtype}; scale rational "
            "rows to integers first")
    # the shorter side becomes the rows, which the pivot search walks
    if m.shape[0] > m.shape[1]:
        m = m.T
    m = np.ascontiguousarray(m % p, dtype=np.int64)
    nrows = len(m)
    period = (2**63 - p) // (p - 1) ** 2
    pending = 0
    r = 0
    for i in range(nrows):
        row = m[i, r:]
        row %= p
        nonzero = row.nonzero()[0]
        if nonzero.size == 0:
            continue
        pivot_col = r + nonzero[0]
        if pivot_col != r:
            m[i:, [r, pivot_col]] = m[i:, [pivot_col, r]]
        if pending == period:
            m[i + 1:, r + 1:] %= p
            pending = 0
        factors = m[i + 1:, r] % p * pow(int(m[i, r]), -1, p) % p
        m[i + 1:, r + 1:] -= factors[:, None] * m[i, r + 1:]
        pending += 1
        r += 1
    return r

