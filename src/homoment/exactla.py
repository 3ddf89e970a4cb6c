"""Exact linear algebra: rank over GF(p).

Matrices are sequences of rows, each a list of ints or a numpy ``int64``
array; sizes here stay in the low hundreds.  Rank takes integer entries,
such as a secant Jacobian that ``geometry`` builds directly as residues
mod p in ``int64`` rows, and runs Gaussian elimination over GF(p) on
numpy ``int64`` rows, along the shorter side, since rank(M) = rank(M^T):
a matrix with more rows than columns is transposed.  Each row in turn is
reduced mod p, and its first nonzero entry, wherever it sits, is the
pivot, cleared from the rows below along their whole contiguous row; no
column is swapped.  A reduced row is zero in every column already
pivoted, so its pivot falls in a new column and the pivots counted are
the rank.  So a rank-deficient wide matrix walks its rows, not every one
of its columns.  The default primes are the three largest below 2**26.
For an integer matrix the rank mod p is at most the rank over Q, so a
rank computed here is a certified lower bound for any prime, however
small; the two differ only when p divides every r x r minor, r being the
rank over Q.  Every minor and determinant the estimators take is a float:
the pencil minors are stacked ``numpy.linalg.det`` calls
(:func:`homoment.ranktest._float_minors`), and the quadrature polynomial's
are one more (:func:`homoment.ranktest.quadrature_nodes`).  The exact
determinant and rank over Q are test oracles, kept with the tests.

Elimination delays reductions mod p, as in word-size finite-field
libraries (Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields", 2008).  The entries are reduced once on entry,
unless they are ``int64`` residues already, as the blocks ``geometry``
builds are; one max over the entries read as unsigned, where a negative
entry is 2**63 or more, tells.  At each pivot only the pivot row and
the multipliers read from the rows below are reduced; the rows below
are updated with no reduction.  Each update subtracts a product of two
residues, at most (p - 1)**2, from an entry that was in [0, p) when last
reduced, so the rows below are reduced every
``(2**63 - p) // (p - 1)**2`` pivots, before any entry could leave
``int64``.  That is 2048 pivots for the default primes, more than the
shorter side of any block ``geometry`` ranks (117 rows for a mixture
or a Dirac mixture at n = 8, k = 14; the whole Jacobian,
``moment_map_jacobian``, reaches 161), and at least 2 for
every prime below 2**31, the largest modulus accepted.  A composite one,
where a pivot may have no inverse, is refused: Miller-Rabin to the bases
2, 7 and 61 is exact below 2**32 (Jaeschke, 1993), and cached per p.
"""

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, check_integers

# Distinct primes below 2**26: one per random point of a generic-rank test.
PRIMES = (67108859, 67108837, 67108819)


@lru_cache(maxsize=None)
def _is_prime(n):
    """Whether ``n`` is prime, by Miller-Rabin to the bases 2, 7 and 61."""
    if n < 3 or n % 2 == 0:
        return n == 2
    twos = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = 2**twos odd
    for base in (2, 7, 61):
        x = pow(base, (n - 1) >> twos, n)
        if base % n and x != 1 and all(
                pow(x, 2**i, n) != n - 1 for i in range(twos)):
            return False
    return True


def rank(matrix, p=PRIMES[0]):
    """Rank over GF(p) of an integer ``matrix``, a sequence of equal-length
    rows of ints or ``int64`` arrays; ``matrix`` is left unchanged.

    A lower bound on the rank r over Q, equal to it unless p divides
    every r x r minor.  ``p`` must be a prime below 2**31: a composite,
    larger or non-integer modulus is ``PreconditionError``.  Elimination
    walks the rows of the shorter side, pivots on each reduced row's
    first nonzero entry with no column swap, and reduces the rows below
    only every ``(2**63 - p) // (p - 1)**2`` pivots (see the module
    docstring).  Anything but a 2-D matrix (``[]`` is the empty one)
    raises ``DimensionMismatchError``; float and ``Fraction`` entries
    raise ``PreconditionError``: scale rational rows to integers first.
    """
    p, = check_integers(p=p)
    if not (2 <= p < 2**31 and _is_prime(p)):
        raise PreconditionError(
            f"rank needs a prime modulus below 2**31, got {p}")
    try:
        m = np.array(matrix)
    except ValueError:   # numpy refuses rows of unequal length
        raise DimensionMismatchError(
            "rank needs rows of equal length") from None
    if m.ndim != 2 and m.shape != (0,):
        raise DimensionMismatchError(
            f"rank needs a matrix of rows, got shape {m.shape}")
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
    # int64 residues are taken as they are (module docstring)
    if m.dtype != np.int64 or m.view(np.uint64).max() >= p:
        m = m % p
    m = np.ascontiguousarray(m, dtype=np.int64)
    period = (2**63 - p) // (p - 1) ** 2
    pending = 0
    r = 0
    for i, row in enumerate(m):
        row %= p
        nonzero = row.nonzero()[0]
        if nonzero.size == 0:
            continue
        if pending == period:
            m[i + 1:] %= p
            pending = 0
        col = nonzero[0]
        factors = m[i + 1:, col] % p * pow(int(row[col]), -1, p) % p
        m[i + 1:] -= factors[:, None] * row
        pending += 1
        r += 1
    return r
