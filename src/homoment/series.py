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
:mod:`homoment.models` and the one checked pass that takes every sample
moment (:func:`sample_moments`) read the same table, and build every
monomial p^a as its parent's times p_c.  The one exact centring of
moments (:func:`exact_shift`) is a Taylor shift over the maps a - e_j.

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

from .errors import (DimensionMismatchError, InputError, PreconditionError,
                     check_integers, exact_or_finite, finite_floats)

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


def _observations(arr):
    """``arr``; a value that is not finite is ``INPUT_PARSE``."""
    if not np.isfinite(arr).all():
        raise InputError("data contains non-finite values", code="INPUT_PARSE")
    return arr


# values per block of the moment pass, so that a block and its products
# stay in cache
_BLOCK = 16384


@lru_cache(maxsize=None)
def _moment_steps(n, degree):
    """The number of monomials in ``n`` variables of each order
    1..``degree``, and each higher order's steps ``(child, parent,
    column)``: monomial ``child`` of the order (by position in
    :func:`multi_indices` order) is monomial ``parent`` of the order
    below times centred ``column`` (the index table's ``parent`` and
    ``column``).  The parent drops one from the child's last nonzero
    exponent, so it never comes after the child: steps in decreasing
    child position may write each order over the one below."""
    table = index_table(n, degree)
    sizes = np.bincount(table.order)
    firsts = np.cumsum(sizes) - sizes
    steps = []
    for j in range(2, degree + 1):
        span = np.arange(firsts[j], firsts[j] + sizes[j])[::-1]
        steps.append(tuple(zip((span - firsts[j]).tolist(),
                               (table.parent[span] - firsts[j - 1]).tolist(),
                               table.column[span].tolist())))
    return tuple(sizes[1:].tolist()), tuple(steps)


def moment_sums(arr, degree, centre):
    """Sums over the rows of a ``count x n`` float array (a flat one is
    one column) of every monomial of orders 1..``degree`` in ``arr -
    centre``, in :func:`multi_indices` order without the constant;
    ``centre`` is one value or one per column.

    Rows are taken a block at a time (at most ``_BLOCK`` values of one
    order), centred into one buffer.  A second holds one order's
    monomials, each its parent's times one centred column, written over
    the order below (:func:`_moment_steps`): for one column, a running
    product.  No ``pow``, no table of powers, no sample-sized temporary.
    Each block's sums go into one preallocated array and onto running
    totals, as accurate as one pairwise pass (Higham, 1993)."""
    arr = arr.reshape(len(arr), -1)
    count, n = arr.shape
    sizes, steps = _moment_steps(n, degree)
    rows = max(min(count, _BLOCK // max(sizes, default=1)), 1)
    centre = np.reshape(np.asarray(centre, dtype=float), (-1, 1))
    sums, part = np.zeros(sum(sizes)), np.empty(sum(sizes))
    base, term = np.empty((n, rows)), np.empty((max(sizes, default=0), rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, rows):
            block = arr[start:start + rows]
            x, t = base[:, :len(block)], term[:, :len(block)]
            np.subtract(block.T, centre, out=x)
            np.add.reduce(x, axis=1, out=part[:n])
            # row views in lists, which index faster than the arrays; the
            # parents of order 2 are the centred columns themselves
            xs, terms, offset = list(x), list(t), n
            parents = xs
            for size, order in zip(sizes[1:], steps):
                for child, parent, column in order:
                    np.multiply(parents[parent], xs[column], out=terms[child])
                parents = terms
                np.add.reduce(t[:size], axis=1, out=part[offset:offset + size])
                offset += size
            sums += part
    return sums


def exact_shift(moments, nvars, degree, j):
    """Moments of orders 1..``degree`` in ``nvars`` variables (exact or
    float, :func:`multi_indices` order) moved to the mean of variable j,
    ``moments[j]``, exactly: a Taylor shift, ``degree`` passes of m_a +=
    -m_j m_(a - e_j) over the index table (pass i where a_j > i, highest
    position first), in ``Fraction``, so the new ``moments[j]`` is 0.
    ``nvars`` or ``degree`` not an integer of at least 1, or ``j`` not
    one of at least 0, is ``PreconditionError``; j >= nvars, or a length
    other than the table's less its constant, ``DIMENSION_MISMATCH``; an
    entry neither exact nor finite ``INPUT_PARSE``."""
    nvars, degree = check_integers(1, nvars=nvars, degree=degree)
    j, = check_integers(0, j=j)
    table = index_table(nvars, degree)
    if j >= nvars or len(moments) != len(table.order) - 1:
        raise DimensionMismatchError(
            f"exact_shift needs j < {nvars} and {len(table.order) - 1} "
            f"moments, got j = {j} and {len(moments)}")
    m = np.array([Fraction(1), *map(Fraction, exact_or_finite(
        moments, "moments"))], dtype=object)
    shift = -m[j + 1]
    for i in range(degree):
        at = np.flatnonzero(table.exponents[:, j] > i)
        m[at] += shift * m[table.down[j, at]]
    return m[1:].tolist()


def sample_moments(data, degree, centre=None, columns=1):
    """``data`` as a ``count x n`` float array (a flat array is one
    column), its centre and its averaged monomials of orders 1..``degree``
    about it (:func:`moment_sums`), under one rule.  ``degree`` not an
    integer or below 1 is ``PreconditionError``
    (:func:`~.errors.check_integers`); data that are complex, hold a None
    or that ``float`` cannot read ``INPUT_PARSE``, and so is a value that
    is not finite (scanned only when an order-1 sum or the centre is
    not); empty data ``INPUT_EMPTY``; ragged rows, a shape other than
    ``columns`` columns (None: any number) or past the one size rule
    (:func:`_check_shape`) ``DimensionMismatchError``, before the pass.
    An exact entry, mean or moment out of float range is ``INPUT_RANGE``,
    and so is a mean of a pure even power x_j^(2i) below the smallest
    normal float unless column j is constant (its digits are lost).

    The centre is the column means unless given.  About them, at
    ``degree`` 2 or more, a column is flagged unless m2 is finite and
    m1^2 < 2^-52 m2 (so no other column's m1 passes 2^-26 of its
    standard deviation).  A flagged column is re-centred at centre + m1
    and summed again; if its m1 is still not 0 its mean is no float, and
    its moments are shifted exactly to it (:func:`exact_shift`), the
    rounded shift added to its centre.  A constant column's centre + m1
    rounds to its value, where every moment is exactly 0."""
    degree, = check_integers(1, order=degree)
    shape = f"data must be a count x {columns or 'n'} array of observations"
    try:
        arr = np.asarray(data)
    except ValueError:  # rows of different lengths
        raise DimensionMismatchError(shape) from None
    unreal = InputError("data must be real numbers", code="INPUT_PARSE")
    # astype would read a None entry as NaN
    if arr.dtype.kind == "c" or (arr.dtype.kind == "O"
                                 and any(x is None for x in arr.flat)):
        raise unreal
    try:
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):  # an entry float() cannot read
        raise unreal from None
    except OverflowError:  # an exact entry beyond float range
        raise InputError("data too large: a value is not a finite float",
                         code="INPUT_RANGE") from None
    if arr.size == 0:
        raise InputError("need at least one observation", code="INPUT_EMPTY")
    n = arr.shape[1] if arr.ndim == 2 else 1
    if arr.ndim > 2 or columns not in (None, n):
        raise DimensionMismatchError(shape)
    _check_shape(n, degree)
    arr = arr.reshape(-1, n)
    means = centre is None
    with np.errstate(over="ignore", invalid="ignore"):
        if means:
            centre = arr.mean(axis=0)
        sums = moment_sums(arr, degree, centre)
    if not (np.isfinite(sums[:n]).all() and np.isfinite(centre).all()):
        _observations(arr)
    centre = finite_floats(centre, "a sample mean", "data")
    table = index_table(n, degree)
    even = [[table.positions[tuple(i * (t == j) for t in range(n))] - 1
             for i in range(2, degree + 1, 2)] for j in range(n)]
    flagged = []
    if means and degree > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            m1 = sums[:n] / len(arr)
            m2 = sums[[powers[0] for powers in even]] / len(arr)
            flagged = np.flatnonzero(~(np.isfinite(m2)
                                        & (m1 * m1 < 2.0**-52 * m2)))
            if flagged.size:
                centre[flagged] += m1[flagged]
                sums = moment_sums(arr, degree, centre)
    moments = finite_floats(sums / len(arr), "a sample moment", "data")
    for j, powers in enumerate(even):
        if (moments[powers] < np.finfo(float).tiny).any() and np.ptp(arr[:, j]):
            raise InputError("data too small: a sample moment underflows",
                             code="INPUT_RANGE")
        if j in flagged and moments[j]:  # its mean is not a float
            centre[j] += moments[j]
            moments = finite_floats(exact_shift(moments, n, degree, j),
                                    "a sample moment", "data")
    return arr, centre, moments
