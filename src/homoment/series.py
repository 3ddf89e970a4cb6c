"""Truncated multivariate power series over a generic scalar field.

A :class:`TruncatedSeries` holds the coefficients of a power series in
``nvars`` variables modulo total degree ``degree + 1``.  Coefficients are
stored in generating-function normalization: the raw moment (or cumulant)
attached to a multi-index ``a`` equals ``a! * coeff(a)`` where
``a! = a_1! * ... * a_n!``.  Storing ``m_a / a!`` makes multiplication the
plain truncated Cauchy product and keeps the exponential and logarithm
free of multinomial bookkeeping; use :meth:`TruncatedSeries.moment` and
:meth:`TruncatedSeries.from_moments` to convert at the boundary.

The one table of multi-indices (:func:`index_table`, cached per
``(n, d)``) holds them in graded lex order with the shifts a - e_j, the
pairs (b, c) grouped by b + c and each parent a - e_c (c the last
nonzero coordinate of a).  A series is an object array on it: a sum is
an array sum, a truncation a prefix and the Cauchy product a sum over
the pairs whose two coefficients are nonzero.  :mod:`homoment.geometry`,
:mod:`homoment.estimate` and :mod:`homoment.models` read the same table,
and build every monomial p^a as its parent's times p_c.

One size rule, :func:`_check_shape`, bounds every series and every
sample pass by what an exp or log on its table costs and what it holds.

Scalars may be :class:`fractions.Fraction`, ``float``, or any field-like
value supporting ``+``, ``-``, ``*`` and division by ``int``.  Integer
coefficients (Python's or numpy's) are promoted to ``Fraction`` so that
exact inputs stay exact.

All operations return new series; instances are treated as immutable
values and are safe to share across threads.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, check_integers

# the largest series a command builds: fit2 --order 5 on 8 columns
_MAX_COST = 5 * comb(2 * 8 + 5, 5)


@dataclass(frozen=True)
class IndexTable:
    """The multi-indices of order 0..d in graded lex order (the constant
    first) and the index maps of series on them."""

    indices: tuple               # the indices a, as tuples
    positions: MappingProxyType  # a -> its position
    order: np.ndarray            # |a|
    exponents: np.ndarray        # (N, n): the indices a
    down: np.ndarray             # (n, N): position of a - e_j, -1 if a_j = 0
    column: np.ndarray           # c, the last j with a_j > 0 (constant: n - 1)
    parent: np.ndarray           # position of a - e_c, -1 for the constant
    left: np.ndarray             # every pair (b, c), |b + c| <= d, grouped
    right: np.ndarray            # by a = b + c: the positions of b and of c
    starts: np.ndarray           # first pair of each group


@lru_cache(maxsize=None)
def index_table(n, d):
    """The :class:`IndexTable` of ``n`` variables to order ``d``, shared
    by every caller (its arrays are read-only).  It finds each shift and
    pair sum by the bytes of its exponent row, so no shape overflows it."""
    indices = [(0,) * n]
    for total in range(d):
        # the next order: this one's indices plus a unit, in decreasing
        # lex order
        indices += sorted({a[:j] + (a[j] + 1,) + a[j + 1:] for a in indices
                           if sum(a) == total for j in range(n)}, reverse=True)
    indices = tuple(indices)
    positions = {a: i for i, a in enumerate(indices)}
    exponents = np.array(indices, dtype=np.int64)
    keys = exponents.view(np.dtype((np.void, 8 * n))).ravel()
    sorter = np.argsort(keys)

    def find(rows):  # the position of each row of exponents, by its bytes
        rows = rows.view(keys.dtype).ravel()
        return sorter[np.searchsorted(keys, rows, sorter=sorter)]

    order = exponents.sum(axis=1)
    size = len(order)
    down = np.full((n, size), -1, dtype=np.intp)
    at, j = np.nonzero(exponents)
    down[j, at] = find(exponents[at] - (np.arange(n) == j[:, None]))
    column = n - 1 - np.argmax(exponents[:, ::-1] > 0, axis=1)
    parent = down[column, np.arange(size)]
    # the indices are graded, so the c with |b| + |c| <= d are a prefix
    fits = np.searchsorted(order, d - order, side="right")
    left = np.repeat(np.arange(size), fits)
    right = np.arange(left.size) - np.repeat(np.cumsum(fits) - fits, fits)
    target = find(exponents[left] + exponents[right])
    grouped = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[grouped], np.arange(size))
    table = IndexTable(indices, MappingProxyType(positions), order,
                       exponents, down, column, parent, left[grouped],
                       right[grouped], starts)
    for array in (order, exponents, down, column, parent, table.left,
                  table.right, starts):
        array.setflags(write=False)
    return table


def multi_indices(nvars, degree):
    """All exponent tuples with ``|a| <= degree`` in graded lex order."""
    return index_table(nvars, degree).indices


def index_factorial(a):
    """``a! = a_1! * ... * a_n!`` for a multi-index ``a``."""
    return prod(factorial(e) for e in a)


def _promote(c):
    # integers become Fractions so exact arithmetic survives division,
    # and a numpy integer cannot wrap in a product
    if type(c) is int or isinstance(c, np.integer):
        return Fraction(int(c))
    return c


def _check_shape(nvars, degree):
    """``(nvars, degree)`` as ints of at least 1 (:func:`check_integers`),
    under the one size rule of series and samples: an exp or log costs
    ``degree`` Cauchy products over C(2 nvars + degree, degree) index
    pairs, the table holds nvars * C(nvars + degree, degree) exponents,
    and a shape where either passes 5 * C(21, 5) = 101745 (8 variables
    to order 5) is ``DimensionMismatchError``.  One variable goes to
    order 57, two to 17, three to 10; order 1 takes 318 variables, order
    2 57 and order 3 26 (27 and 28 pass the cost, not the table)."""
    nvars, degree = check_integers(1, nvars=nvars, degree=degree)
    # C(2n + d, d) >= 2n + d refuses a huge shape before its binomials
    if (degree * (2 * nvars + degree) > _MAX_COST
            or max(degree * comb(2 * nvars + degree, degree),
                   nvars * comb(nvars + degree, degree)) > _MAX_COST):
        raise DimensionMismatchError(
            f"max(degree * C(2 nvars + degree, degree), nvars * C(nvars + "
            f"degree, degree)) must be at most {_MAX_COST}, got "
            f"nvars={nvars}, degree={degree}")
    return nvars, degree


def _position(a, nvars, degree):
    """The position of the multi-index ``a``; one that is not an index of
    ``nvars`` variables and order at most ``degree`` (the wrong length, a
    negative or non-integer entry) is a ``DimensionMismatchError``."""
    try:
        at = index_table(nvars, degree).positions.get(
            tuple(map(operator.index, a)))
    except TypeError:  # an entry that is not an integer
        at = None
    if at is None:
        raise DimensionMismatchError(
            f"bad multi-index {a} in {nvars} variables to order {degree}")
    return at


class TruncatedSeries:
    __slots__ = ("nvars", "degree", "_c")

    def __init__(self, nvars, degree, coeffs=None):
        nvars, degree = _check_shape(nvars, degree)
        values = np.zeros(len(multi_indices(nvars, degree)), dtype=object)
        for a, c in dict(coeffs or {}).items():
            values[_position(a, nvars, degree)] = _promote(c)
        self._set(nvars, degree, values)

    def _set(self, nvars, degree, values):
        # the coefficients in multi_indices order, every zero stored as
        # the int 0, which adds to any scalar exactly and in its own type
        values[values == 0] = 0
        self.nvars, self.degree, self._c = nvars, degree, values
        return self

    def _like(self, values, degree=None):
        # a series of this shape (or truncated at degree) on values
        return TruncatedSeries.__new__(TruncatedSeries)._set(
            self.nvars, degree or self.degree, values)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars, degree):
        return cls(nvars, degree)

    @classmethod
    def one(cls, nvars, degree):
        return cls(nvars, degree, {(0,) * nvars: Fraction(1)})

    @classmethod
    def from_moments(cls, nvars, degree, moments):
        """Build a moment series from raw moments.

        ``moments`` maps multi-indices to raw values ``m_a`` (stored as
        ``m_a / a!``).  The order-zero coefficient is 1.
        """
        series = cls.one(nvars, degree)
        indices = multi_indices(nvars, degree)
        for a, m in dict(moments).items():
            at = _position(a, nvars, degree)
            if at == 0:
                raise PreconditionError("the order-zero moment is 1")
            series._c[at] = _promote(m) / index_factorial(indices[at])
        return series._set(nvars, degree, series._c)

    # ------------------------------------------------------------------
    # accessors

    def coeff(self, a):
        """Stored generating-function coefficient ``m_a / a!``."""
        c = self._c[_position(a, self.nvars, self.degree)]
        return Fraction(0) if c == 0 else c

    def moment(self, a):
        """Raw moment/cumulant ``a! * coeff(a)``."""
        return self.coeff(a) * index_factorial(a)

    def items(self):
        """Nonzero ``(index, coefficient)`` pairs in graded lex order."""
        indices = multi_indices(self.nvars, self.degree)
        return [(indices[i], self._c[i]) for i in np.flatnonzero(self._c)]

    def constant(self):
        return self.coeff((0,) * self.nvars)

    def truncate(self, degree):
        """Forget all terms of total degree above ``degree``."""
        degree = _check_shape(self.nvars, degree)[1]
        if degree > self.degree:
            raise DimensionMismatchError(
                f"cannot extend truncation {self.degree} to {degree}")
        size = len(multi_indices(self.nvars, degree))
        return self._like(self._c[:size].copy(), degree)

    def graded(self, min_order, max_order=None):
        """Keep only terms with ``min_order <= |a| <= max_order``."""
        lo, hi = check_integers(min_order=min_order, max_order=self.degree
                                if max_order is None else max_order)
        order = index_table(self.nvars, self.degree).order
        return self._like(np.where((lo <= order) & (order <= hi),
                                   self._c, 0))

    # ------------------------------------------------------------------
    # ring operations

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise DimensionMismatchError(
                f"series shapes differ: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self._c + other._c)

    def __neg__(self):
        return self._like(-self._c)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def _scaled(self, op, scalar):
        # zero coefficients stay zero, whatever the scalar
        values = self._c.copy()
        nonzero = values != 0
        values[nonzero] = op(values[nonzero], scalar)
        return self._like(values)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._scaled(np.multiply, _promote(other))
        self._check_compatible(other)
        table = index_table(self.nvars, self.degree)
        x, y = self._c, other._c
        # the pairs whose two coefficients are nonzero, still grouped
        keep = (x != 0)[table.left] & (y != 0)[table.right]
        counts = np.add.reduceat(keep, table.starts, dtype=np.intp)
        filled = counts > 0
        values = np.zeros(len(x), dtype=object)
        values[filled] = np.add.reduceat(
            x[table.left[keep]] * y[table.right[keep]],
            (np.cumsum(counts) - counts)[filled])
        return self._like(values)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        if isinstance(scalar, TruncatedSeries):
            return NotImplemented
        return self._scaled(np.true_divide, scalar)

    # ------------------------------------------------------------------
    # comparison

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and bool(np.all(self._c == other._c)))

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.items())))

    def __repr__(self):
        items = self.items()
        head = ", ".join(f"{a}: {c}" for a, c in items[:6])
        more = "" if len(items) <= 6 else ", ..."
        return (f"TruncatedSeries(nvars={self.nvars}, degree={self.degree}, "
                f"{{{head}{more}}})")


def exp(series):
    """Truncated exponential of a series with zero constant term.

    Computed as the finite sum of powers ``sum_j S^j / j!`` which
    terminates because ``S`` has no constant term.  The result lives in
    moment space (constant coefficient 1).
    """
    if series.constant() != 0:
        raise PreconditionError("exp requires a zero constant term")
    result = TruncatedSeries.one(series.nvars, series.degree)
    term = result
    for j in range(1, series.degree + 1):
        term = (term * series) / j
        if not term.items():
            break
        result = result + term
    return result


def log(series):
    """Truncated logarithm of a series with constant term one.

    Computed as ``sum_j (-1)^(j+1) (S - 1)^j / j``.  The result lives in
    cumulant space (constant coefficient 0).
    """
    one = TruncatedSeries.one(series.nvars, series.degree)
    if series.constant() != one.constant():
        raise PreconditionError("log requires constant term one")
    shifted = series - one
    result = TruncatedSeries.zero(series.nvars, series.degree)
    power = one
    for j in range(1, series.degree + 1):
        power = power * shifted
        if not power.items():
            break
        term = power / j
        result = result + term if j % 2 == 1 else result - term
    return result
