"""Parameter recovery from moments and cumulants.

Two pipelines live here.  The closed-form two-component recovery
(:func:`fit_two_gaussians`) works in any dimension from cumulants up to
order four or five: the ratio of the pivot fourth to third cumulant
coefficients is strictly monotone in the smaller weight, which one
bisection finds to the last bit; the pivot mean follows from the third
cumulant, the other mean coordinates from the pivot slice of the third
cumulant tensor, and the shared covariance from the second cumulants.
The univariate pipeline
(:func:`fit_univariate`) recovers a k-component mixture from its first 2k
moments by first locating the shared variance as the smallest nonnegative
root of a Hankel determinant polynomial and then running the classical
quadrature-rule recovery of a discrete measure, on the
:func:`normal_form` of the moments, as every univariate entry point does.

That determinant is one member of the Hankel pencil
(:func:`hankel_pencil`), which also lives here: every maximal minor of
the Gaussian-deconvolved moment matrix as a polynomial in the variance.
The membership tests in :mod:`homoment.ranktest` read the same pencil.

On a sample, both pipelines start from its moments about its mean,
which one checked pass takes (:func:`_sample`, the one caller of the
blockwise :func:`moment_sums`, under :func:`sample_cumulants`,
:func:`raw_moments` and :func:`sample_normal_form`): one rule for the
shape, the non-finite values and the float range of every sample.

Moment vectors are plain sequences ``(m_1, ..., m_d)`` with the zeroth
moment equal to one left implicit.  Entries may be ``Fraction``, but
only :func:`normal_form` reads them exactly; every deconvolution (one
loop, :func:`_deconvolve`), minor, pencil, determinant and root is
floating point.  One helper, :func:`_floats`, converts and checks every
float read or returned here, so an entry beyond float range or not
finite is ``INPUT_RANGE`` at every entry point.  The exact
deconvolution and pencil over Q are test oracles.
"""

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import _poly, models
from . import series as ts
from .errors import (DimensionMismatchError, InconsistentMomentsError,
                     InputError, InsufficientOrderError, ModelMismatchError,
                     PreconditionError, RankDeficientMomentsError,
                     SingularSystemError, SymmetricMixtureError,
                     check_integers)


@dataclass(frozen=True)
class Estimate:
    """Recovered mixture parameters plus fit diagnostics."""

    params: models.HomoscedasticParams
    diagnostics: dict

    def as_dict(self):
        out = self.params.as_dict()
        out["diagnostics"] = self.diagnostics
        return out


def _cbrt(x):
    return math.copysign(abs(float(x)) ** (1.0 / 3.0), float(x))


# ----------------------------------------------------------------------
# sample moments and cumulants


def _observations(arr):
    """``arr``; a value that is not finite is ``INPUT_PARSE``."""
    if not np.isfinite(arr).all():
        raise InputError("data contains non-finite values", code="INPUT_PARSE")
    return arr


def _floats(values, what, source="moments"):
    """``values`` as a float array, the one conversion and check of floats:
    an entry beyond float range or not finite is ``INPUT_RANGE``."""
    try:
        floats = np.asarray(values, dtype=float)
        if np.isfinite(floats).all():
            return floats
    except OverflowError:
        pass
    raise InputError(f"{source} too large: {what} is not a finite float",
                     code="INPUT_RANGE")


# values per block of the moment pass, so that a block and its products
# stay in cache
_BLOCK = 16384


@functools.lru_cache(maxsize=None)
def _moment_steps(n, degree):
    """The number of monomials in ``n`` variables of each order
    1..``degree``, and each higher order's steps ``(child, parent,
    column)``: monomial ``child`` of the order (by position in
    :func:`~homoment.series.multi_indices` order) is monomial ``parent``
    of the order below times centred ``column`` (the index table's
    ``parent`` and ``column``).  The parent drops one from the child's
    last nonzero exponent, so it never comes after the child: steps in
    decreasing child position may write each order over the one below."""
    table = ts.index_table(n, degree)
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
    centre``, in :func:`~homoment.series.multi_indices` order without
    the constant; ``centre`` is one value or one per column.

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


def _sample(data, degree, centre=None, columns=1):
    """``data`` as a ``count x n`` float array (a flat array is one
    column), its centre (the column means unless given) and its averaged
    monomials of orders 1..``degree`` about it (:func:`moment_sums`),
    under one rule.  ``degree`` not an integer or below 1
    (:func:`check_integers`) is ``PreconditionError``, data that are
    complex, hold a None or that ``float`` cannot read ``INPUT_PARSE``,
    empty data ``INPUT_EMPTY``, and ragged rows, a shape other than
    ``columns`` columns (None: any number) or columns and ``degree``
    past the one size rule of series (:func:`~.series._check_shape`)
    ``DimensionMismatchError`` before the pass builds its table.
    A sum with a term that is not finite is not finite either, so the
    values are scanned (``INPUT_PARSE``) only when an order-1 sum or the
    centre is not; a mean or moment out of float range is
    ``INPUT_RANGE``, and so is a mean of a pure even power x_j^(2i) below
    the smallest normal float, unless column j is constant (scanned only
    then): such a moment has lost its digits."""
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
    if arr.size == 0:
        raise InputError("need at least one observation", code="INPUT_EMPTY")
    n = arr.shape[1] if arr.ndim == 2 else 1
    if arr.ndim > 2 or columns not in (None, n):
        raise DimensionMismatchError(shape)
    ts._check_shape(n, degree)
    arr = arr.reshape(-1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        if centre is None:
            centre = arr.mean(axis=0)
        sums = moment_sums(arr, degree, centre)
    if not (np.isfinite(sums[:n]).all() and np.isfinite(centre).all()):
        _observations(arr)
    centre = _floats(centre, "a sample mean", "data")
    moments = _floats(sums / len(arr), "a sample moment", "data")
    positions = ts.index_table(n, degree).positions
    for j in range(n):
        even = [positions[tuple(i * (t == j) for t in range(n))] - 1
                for i in range(2, degree + 1, 2)]
        if (moments[even] < np.finfo(float).tiny).any() and np.ptp(arr[:, j]):
            raise InputError("data too small: a sample moment underflows",
                             code="INPUT_RANGE")
    return arr, centre, moments


def raw_moments(data, order):
    """First ``order`` raw moments (about 0) of one column of data, in one
    checked pass (:func:`_sample`): the data are never copied.  ``order``
    below 1 is ``PreconditionError``."""
    return _sample(data, order, 0.0)[2].tolist()


def _sample_form(data, order):
    """:func:`sample_normal_form` and the number of observations."""
    arr, mean, m = _sample(data, order)
    m = m.tolist()
    # m2 <= 2 m1^2: all spread is the rounding of the mean (a constant
    # sample), which the exact shift reads as a point mass
    exact = len(m) > 1 and m[1] <= 2.0 * m[0] ** 2
    form = normal_form(m if exact else [0.0] + m[1:])
    return replace(form, mean=float(mean[0]) + form.mean), len(arr)


def sample_normal_form(data, order):
    """The normal form of the first ``order`` moments of one column of
    data.  Moments of data far from the origin spend their digits on the
    mean, so the checked pass (:func:`_sample`) takes them about the
    sample mean, with m_1 set to exactly 0 (no ``Fraction`` arithmetic
    runs), unless the sample is constant: then the exact shift makes it
    a point mass.  ``order`` below 1 is ``PreconditionError``."""
    return _sample_form(data, order)[0]


def sample_cumulants(data, degree):
    """Cumulant series of the empirical distribution of ``data``.

    ``data`` is a ``count x n`` array (a flat array is read as one
    column).  The sample is centred first: moments of data far from the
    origin spend their digits on the mean.  Raw moments of the centred
    sample are averaged monomials, all taken in one checked pass
    (:func:`_sample`), and their log transform gives every cumulant of
    order >= 2, which a shift does not move; the order-1 cumulants are
    the column means.
    """
    _, means, moments = _sample(data, degree, columns=None)
    n = len(means)
    indices = ts.multi_indices(n, degree)
    series = ts.TruncatedSeries.from_moments(
        n, degree, zip(indices[1:], moments.tolist()))
    # the order-1 indices are the unit vectors e_1..e_n, in column order
    return ts.log(series).graded(2) + ts.TruncatedSeries(
        n, degree, zip(indices[1:n + 1], means.tolist()))


# ----------------------------------------------------------------------
# two-component closed form


def two_point_cumulant_coeff(weight, order):
    """Coefficient of the centered two-point mixture's cumulant series.

    For atoms ``t`` and ``-w t / (1 - w)`` of weights ``w`` in [0, 1)
    (else ``PreconditionError``) and ``1 - w``, the cumulant generating
    function is ``sum_j f_j(w) (t u)^j``; this returns ``f_order``.
    """
    order, = check_integers(order=order)
    w = ts._promote(weight)
    if not 0 <= w < 1:
        raise PreconditionError(f"weight {weight} is outside [0, 1)")
    q = w * (1 - w)
    if order == 3:
        return q * (1 - 2 * w) / ((1 - w) ** 3) / 6
    if order == 4:
        return q * (1 - 6 * q) / ((1 - w) ** 4) / 24
    if order == 5:
        return q * (1 - 2 * w) * (1 - 12 * q) / ((1 - w) ** 5) / 120
    raise PreconditionError("order must be 3, 4, or 5")


def solve_smaller_weight(ratio):
    """The smaller weight w in (0, 1/2] of the two-component mixture whose
    pivot ratio is ``ratio``.

    With ``q = w (1 - w)`` and ``b = 1 - 6q`` the ratio r satisfies
    ``3 b^3 = 32 r^3 q (1 - 2w)^4``.  Left minus right is 3 at w = 0 and
    -3/8 at w = 1/2.  Between them it is ``32 q (1 - 2w)^4 (c(q) - r^3)``
    with ``c(q) = 3 b^3 / (32 q (1 - 4q)^2)``, whose derivative
    ``-3 (1 - 6q)^2 / (32 q^2 (1 - 4q)^3)`` is negative except at q = 1/6;
    q rises with w, so the sign changes once and every finite r has
    exactly one root there.
    Bisection halves the bracket until its midpoint equals an end: about
    55 steps for ordinary weights, at most about 1100 for the tiniest.
    Writing ``(1 - 2w)^4`` rather than ``(1 - 4q)^2`` keeps the
    near-symmetric end free of cancellation.  A ratio whose cube is not a
    finite float fits no two-component mixture.
    """
    r = float(ratio)
    cube = r * r * r
    if not math.isfinite(cube):
        raise InconsistentMomentsError(
            "no admissible weight: the cumulant ratio's cube is not a "
            "finite float")
    lo, hi = 0.0, 0.5
    while True:
        w = 0.5 * (lo + hi)
        if w in (lo, hi):
            return w
        q = w * (1.0 - w)
        # 32 * q first: the product overflows only where it is huge anyway
        if 3.0 * (1.0 - 6.0 * q) ** 3 > 32.0 * q * cube * (1.0 - 2.0 * w) ** 4:
            lo = w
        else:
            hi = w


# relative to the covariance scale to the power 3/2
_PIVOT_TOL = 1e-10


def _check_fit_order(order):
    """``order`` as an int, by the one order rule of the two-component fit:
    not an integer (:func:`check_integers`), or neither 4 nor 5, is
    ``PreconditionError``.  ``fit2`` runs it before it reads its CSV."""
    order, = check_integers(order=order)
    if order not in (4, 5):
        raise PreconditionError("order must be 4 or 5")
    return order


def fit_two_gaussians(cumulants, order=None):
    """Closed-form recovery of a two-component homoscedastic mixture.

    ``cumulants`` is a cumulant-space series of degree at least four.
    The pivot coordinate p has the largest principal third cumulant; its
    ratio to the fourth fixes the smaller weight
    (:func:`solve_smaller_weight`), the pivot mean follows from the third
    cumulant, and every other mean coordinate j from the pivot slice as
    ``mu_j = mu_p kappa_ppj / kappa_ppp``.  A cube root per coordinate
    would amplify the noise of a coordinate that carries no separation.
    Both orders return one :class:`Estimate`, the smaller weight first;
    ``order=5`` (the default when fifth cumulants are available) also
    checks the fifth-order pivot ratio against the model's.

    Requires a nonzero principal third cumulant: mixtures with equal
    weights or equal means have none and raise
    :class:`SymmetricMixtureError`.  Every coefficient of orders
    1..``order`` is read exact or as a finite real first (else
    ``INPUT_PARSE``: a NaN, an infinity, a complex number), then through
    :func:`_floats`: one beyond float range is ``INPUT_RANGE``, as are a
    moment a! c and a covariance scale that overflow and a pivot ratio
    whose power of ``kappa_ppp`` overflows or underflows.  Every
    tolerance is relative to the covariance scale, so a sample fits the
    same in any unit.
    """
    n = cumulants.nvars
    if cumulants.constant() != 0:
        raise PreconditionError("expected a cumulant-space series "
                                "(zero constant term)")
    order = _check_fit_order(min(cumulants.degree, 5) if order is None
                             else order)
    if cumulants.degree < order:
        raise InsufficientOrderError(
            f"series of degree {cumulants.degree} cannot serve order {order}")

    def unit(i, e):
        return tuple(e if t == i else 0 for t in range(n))

    position = ts.index_table(n, order).positions
    values = _floats(_exact_or_finite(cumulants._c[1:len(position)],
                                      "cumulants"),
                     "a cumulant", "cumulants").tolist()

    def coeff(a):
        return values[position[a] - 1]

    def moment(a):
        # a! c rounded once, from the exact product, and checked finite
        return float(_floats(cumulants.moment(a), "a cumulant", "cumulants"))

    mean_shift = [moment(unit(i, 1)) for i in range(n)]
    # the raw second cumulants, at the indices e_i + e_j
    total_cov = [[moment(tuple((t == i) + (t == j) for t in range(n)))
                  for j in range(n)] for i in range(n)]
    third = [coeff(unit(i, 3)) for i in range(n)]

    cov_scale = max([abs(total_cov[i][j]) for i in range(n) for j in range(n)],
                    default=0.0)
    pivot = max(range(n), key=lambda i: abs(third[i]))
    if abs(6.0 * third[pivot]) <= _PIVOT_TOL * _power(
            cov_scale, 1.5, "a covariance scale", "cumulants"):
        raise SymmetricMixtureError(
            "all principal third cumulants vanish; equal weights or equal "
            "means are not recoverable from orders three and four")

    t3 = _cbrt(third[pivot])

    def pivot_ratio(e):
        power = _power(t3, e, "a pivot ratio", "cumulants")
        if power == 0.0:
            raise InputError("cumulants too small: a pivot ratio underflows",
                             code="INPUT_RANGE")
        return coeff(unit(pivot, e)) / power

    ratio_a = pivot_ratio(4)
    w = solve_smaller_weight(ratio_a)
    q = w * (1.0 - w)
    f3 = float(two_point_cumulant_coeff(w, 3))
    mu_p = _cbrt(1.0 / f3) * t3
    k_ppp = moment(unit(pivot, 3))
    mu1 = [mu_p * (moment(tuple(2 * (t == pivot) + (t == j)
                                for t in range(n))) / k_ppp)
           for j in range(n)]
    mu2 = [-(w / (1.0 - w)) * x for x in mu1]
    means = [[x + s for x, s in zip(mu, mean_shift)] for mu in (mu1, mu2)]
    cov = [[total_cov[i][j] - w * mu1[i] * mu1[j] - (1.0 - w) * mu2[i] * mu2[j]
            for j in range(n)] for i in range(n)]
    params = models.HomoscedasticParams(means=means, weights=[w, 1.0 - w],
                                        cov=cov)
    eigmin = float(np.min(np.linalg.eigvalsh(np.asarray(cov))))
    diag = {
        "order_used": order,
        "pivot": pivot,
        "ratio_a": ratio_a,
        "weight_product": q,
        "cov_min_eigenvalue": eigmin,
        "cov_psd": bool(eigmin >= -1e-8 * cov_scale),
        "residual": _fit_residual(params, values, order),
        "near_symmetric": bool((1.0 - 2.0 * w) ** 2 < 4e-5),
    }
    if order == 5:
        ratio_b = pivot_ratio(5)
        predicted = float(two_point_cumulant_coeff(w, 5)) / _cbrt(f3) ** 5
        diag["ratio_b"] = ratio_b
        diag["ratio_b_predicted"] = predicted
        diag["ratio_b_residual"] = (abs(predicted - ratio_b)
                                    / max(abs(ratio_b), 1e-300))
    return Estimate(params=params, diagnostics=diag)


def _fit_residual(params, values, order):
    """Scaled max deviation of the input coefficients ``values`` (orders
    1..``order``) from the fitted model's over orders three to ``order``,
    the equations the closed form does not consume."""
    recon = models.homoscedastic_cumulants(params, order)
    x, y = np.asarray(values), recon._c[1:].astype(float)
    gaps = np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return float(gaps[ts.index_table(recon.nvars, order).order[1:] >= 3].max())


# ----------------------------------------------------------------------
# univariate pipeline


def _check_k(k, need=0, given=0):
    """``k`` as an int, by the one rule for ``k`` and the moments it
    needs: not an integer or below 1 (:func:`check_integers`) is
    ``PreconditionError``, ``given < need`` ``InsufficientOrderError``.
    Every entry point that takes a ``k`` runs it before any work (a
    ``k_max`` is read by the same bound under its own name), and the CLI
    leaves ``--k`` and ``--kmax`` to them."""
    k, = check_integers(1, k=k)
    if given < need:
        raise InsufficientOrderError(f"need moment order {need}, got {given}")
    return k


def _exact_or_finite(values, what):
    """``values``; one neither exact nor a finite real is ``INPUT_PARSE``."""
    if not all(isinstance(x, (int, Fraction)) or isinstance(x, numbers.Real)
               and math.isfinite(x) for x in values):
        raise InputError(f"{what} must be finite", code="INPUT_PARSE")
    return values


def _moment_list(moments, k=1, need=0):
    """``moments``, ints made ``Fraction``, checked (:func:`_check_k`)."""
    _check_k(k, need, len(moments))
    return _exact_or_finite([ts._promote(x) for x in moments], "moments")


@dataclass(frozen=True)
class NormalForm:
    """A moment vector as its mean, its variance and the moments of the
    standardised variable (:func:`normal_form`)."""

    mean: float
    variance: float    # 1 when the central variance is not positive
    moments: list      # m_1 = 0 and, when standardised, m_2 = 1 to rounding


def normal_form(moments):
    """The :class:`NormalForm` of a univariate moment vector, on which
    the shift- and scale-invariant pencil is read.

    The vector is shifted to its own mean exactly (floats convert to
    ``Fraction`` without rounding); one whose m_1 is exactly 0 skips the
    shift.  Moment j is then divided in floats by the standard deviation
    once per order, unless the central variance is not positive.  A
    non-finite entry is ``INPUT_PARSE``, a central or standardised moment
    out of float range ``INPUT_RANGE``.  A normal form is its own normal form.
    """
    if isinstance(moments, NormalForm):
        return moments
    m = _moment_list(moments, need=1)
    mean = m[0]
    if mean != 0:
        exact = [Fraction(1)] + [Fraction(x) for x in m]
        m = [sum(math.comb(j, i) * exact[j - i] * (-exact[1]) ** i
                 for i in range(j + 1)) for j in range(1, len(exact))]
    values = _floats([mean, *m], "a central moment")
    mean, central = float(values[0]), values[1:]
    variance = central[1] if len(central) > 1 else 0.0
    if not variance > 0.0:
        return NormalForm(mean, 1.0, central.tolist())
    sd = math.sqrt(variance)
    with np.errstate(over="ignore"):
        for j in range(len(central)):
            central[j:] /= sd
    _floats(central, "a standardised moment")
    return NormalForm(mean, float(variance), central.tolist())


def _moment_scale(m):
    vals = [abs(x) ** (1.0 / j)
            for j, x in enumerate(np.asarray(m, dtype=float).tolist(), 1)
            if x != 0.0]
    return max(vals, default=1.0)


def _power(x, e, what, source="moments"):
    """``x ** e``; one beyond float range is ``INPUT_RANGE``."""
    try:
        return x ** e
    except OverflowError:
        raise InputError(f"{source} too large: {what} overflows",
                         code="INPUT_RANGE") from None


def _minor_scales(m, weights):
    """The moment scale of ``m`` raised to each weighted degree."""
    base = _moment_scale(m)
    return [_power(base, w, "a minor scale") for w in weights]


@functools.lru_cache(maxsize=None)
def _deconvolution_table(d):
    """Per power i = 1..d//2 of the variance, the float coefficients
    ``(-1)^i j! / (2^i i! (j-2i)!)`` of ``m_{j-2i} variance^i`` in the
    deconvolved moments of orders j = 2i..d (at i = 0 they are 1)."""
    f = math.factorial
    return tuple(tuple(float((-1) ** i * f(j) // (2 ** i * f(i) * f(j - 2 * i)))
                       for j in range(2 * i, d + 1))
                 for i in range(1, d // 2 + 1))


def _deconvolve(rows, variances, table):
    """The one deconvolution loop: each float row ``m_1..m_d`` at its
    variance as ``[1.0, mt_1, ..., mt_d]``, by ``table``, the
    :func:`_deconvolution_table` of ``d``.  Python floats round as
    numpy's do, and cost less than numpy calls on rows this short."""
    mt = []
    for row, v in zip(rows, variances):
        # mt_0 = 1, and the i = 0 term of every mt_j is m_j itself
        full = [1.0] + row
        out, power = full[:], v
        for i, coeffs in enumerate(table, start=1):
            for j, coeff in enumerate(coeffs, start=2 * i):
                out[j] = out[j] + coeff * full[j - 2 * i] * power
            power = power * v
        mt.append(out)
    return mt


def deconvolve_moments(moments, variance):
    """Moments of the atomic part after removing a Gaussian of the given
    variance, ``mt_j = sum_i j! / ((-2)^i i! (j-2i)!) m_{j-2i} variance^i``,
    in floats (:func:`_deconvolve`).  A non-finite entry is ``INPUT_PARSE``,
    a ``Fraction`` or deconvolved moment out of float range ``INPUT_RANGE``."""
    m = _moment_list(moments, need=1)
    variance, = _exact_or_finite([ts._promote(variance)], "variance")
    *row, v = _floats([*m, variance], "an entry").tolist()
    mt = _deconvolve([row], [v], _deconvolution_table(len(row)))[0][1:]
    return _floats(mt, "a deconvolved moment").tolist()


@dataclass(frozen=True)
class HankelPencil:
    """Maximal minors of the deconvolved moment matrix, as polynomials in
    the shared variance (ascending coefficients)."""

    k: int
    minors: tuple      # ascending coefficient lists, one per column subset
    weights: tuple     # weighted degree of each minor

    @property
    def nminors(self):
        return len(self.minors)


def pencil_minor_values(moments, k, s):
    """Float values of every maximal minor at the variance ``s``, over
    the matrix of all the given moments, in one numpy pass
    (:func:`_float_minors`): ``moments`` is one moment vector or an
    ``N x d`` float stack of them, and ``s`` is one variance or one per
    row (for one vector, one per evaluation).  One vector at one variance
    gives a list; a stack or a vector of variances gives an
    ``N x nminors`` array.  A variance that is not finite is
    ``INPUT_PARSE`` (a moment too, in a stack as in one vector), one
    beyond float range or a minor that is not finite ``INPUT_RANGE``.
    """
    k = _check_k(k)
    _exact_or_finite(np.ravel(s).tolist(), "variance")
    _exact_or_finite(np.ravel(moments).tolist(), "moments")
    values = _float_minors(_floats(moments, "a moment"), k,
                           _floats(s, "a variance", "variance"))
    one = np.ndim(moments) == 1 and np.ndim(s) == 0
    return values[0].tolist() if one else values


def _float_minors(moments, k, s):
    """Float maximal minors of a stack of moment rows, each at its
    variance (rows and variances broadcast against each other) and
    deconvolved by :func:`_deconvolve`.  Every minor's submatrix is
    gathered from the deconvolved rows by one fancy index (Hankel entry
    (i, j) is ``mt_{i+j}``), and one stacked determinant takes them all,
    so each value equals the per-row float evaluation.  Callers hand it
    floats they have checked (:func:`_floats`); it checks the minors.
    """
    rows = np.asarray(moments, dtype=float)
    d = rows.shape[-1]
    layout = _minor_layout(d, k)
    rows = rows.reshape(-1, d).tolist()
    variances = np.asarray(s, dtype=float).ravel().tolist()
    if len(rows) == 1:
        rows *= len(variances)
    elif len(variances) == 1:
        variances *= len(rows)
    if len(rows) != len(variances):
        raise DimensionMismatchError(f"{len(rows)} moment rows and "
                                     f"{len(variances)} variances do not "
                                     "broadcast")
    mt = _deconvolve(rows, variances, _deconvolution_table(d))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linalg.det(np.array(mt).reshape(-1, d + 1)[:, layout.index])
    # a float minor overflows on huge input
    return _floats(values, "a Hankel minor")


class _MinorLayout(NamedTuple):
    """What the pencil of order ``d`` and ``k`` needs of ``d`` and ``k``
    alone (:func:`_minor_layout`)."""

    weights: tuple   # weighted degree of each minor
    groups: tuple    # (degree, read-only index of its minors), ascending
    nodes: int       # interpolation nodes: one more than the top degree
    index: np.ndarray  # read-only: gathers every minor's submatrix


# float64 values that one pencil's evaluation stack may hold: 1 GiB
_MAX_STACK = 2 ** 27


def _check_pencil(d, k):
    """``k`` (:func:`_check_k`, ``d`` at least ``2 k``); a pencil whose
    evaluation stack, nodes x minors x (k + 1)^2 floats, would pass
    ``_MAX_STACK`` is ``PreconditionError``, without listing a minor."""
    k = _check_k(k, 2 * k, d)
    nminors = math.comb(d - k + 1, k + 1)
    if ((k + 1) * (d - k) // 2 + 1) * nminors * (k + 1) ** 2 > _MAX_STACK:
        minors = "1 minor" if nminors == 1 else f"{nminors} minors"
        raise PreconditionError(
            f"the pencil of {d} moments at k={k} is too large to evaluate "
            f"({minors} of order {k + 1})")
    return k


@functools.lru_cache(maxsize=None)
def _minor_layout(d, k):
    """The :class:`_MinorLayout` of the pencil of order ``d`` and ``k``,
    built once per process, once :func:`_check_pencil` passes.

    A maximal minor takes ``k + 1`` of the ``d - k + 1`` columns (in
    ``combinations`` order); on columns ``sel`` it weighs ``k (k + 1) /
    2 + sum(sel)`` and is a polynomial of half that degree in the
    variance.  Minors of one degree form a group, fitted together.  The
    index gathers every minor's submatrix from a deconvolved row."""
    k = _check_pencil(d, k)
    subsets = tuple(combinations(range(d - k + 1), k + 1))
    weights = tuple(k * (k + 1) // 2 + sum(sel) for sel in subsets)
    # the minors of each degree in one pass: a stable sort keeps each
    # group in combinations order
    degrees = np.array(weights) // 2
    order = np.argsort(degrees, kind="stable")
    values, starts = np.unique(degrees[order], return_index=True)
    groups = tuple(zip(values.tolist(), np.split(order, starts[1:])))
    index = np.arange(k + 1)[:, None] + np.array(subsets)[:, None, :]
    for array in [idx for _, idx in groups] + [index]:
        array.flags.writeable = False
    return _MinorLayout(weights, groups, int(values[-1]) + 1, index)


@functools.lru_cache(maxsize=64)
def _fit_systems(d, k, scale):
    """The interpolation nodes at ``scale`` of the pencil of order ``d``
    and ``k`` (:func:`~homoment._poly.interpolation_nodes`) and, for each
    degree of its minors (``_minor_layout(d, k).groups``), the
    least-squares system that ``numpy.polynomial.polynomial.polyfit``
    sets up on the first ``degree + 1`` nodes: the Vandermonde matrix
    with unit-norm columns, those column norms and ``rcond``.  Arrays
    are read-only."""
    layout = _minor_layout(d, k)
    nodes = np.asarray(_poly.interpolation_nodes(layout.nodes, scale))
    systems = []
    for deg, _ in layout.groups:
        x = nodes[:deg + 1]
        # polyvander(x, deg).T: the same successive products, and in C
        # order, so that the norms below are summed as polyfit sums them
        lhs = np.ascontiguousarray(np.vander(x, deg + 1, increasing=True).T)
        scl = np.sqrt(np.square(lhs).sum(1))
        scl[scl == 0] = 1
        matrix = lhs.T / scl
        matrix.flags.writeable = scl.flags.writeable = False
        systems.append((matrix, scl, len(x) * np.finfo(float).eps))
    nodes.flags.writeable = False
    return nodes, tuple(systems)


def hankel_pencil(moments, k):
    """Expand every maximal minor as a polynomial in the variance.

    Each minor is homogeneous of known weighted degree in the moments
    (moment j weighing j, the variance weighing 2), which bounds its
    degree in the variance; coefficients are recovered in floats by
    evaluating the determinants at that many nodes, all in one batched
    :func:`_float_minors` call, and fitting.  The minors of one degree
    share the node prefix they are fitted on, so each degree takes one
    least-squares solve with a column per minor.  Its system depends on
    ``d``, ``k`` and the scale alone and is built once
    (:func:`_fit_systems`); the solve is the one
    ``numpy.polynomial.polynomial.polyfit`` makes, so the coefficients
    are polyfit's to the bit.  The matrix uses every given moment.
    """
    m = _floats(_moment_list(moments, k), "a moment")
    d = len(m)
    layout = _minor_layout(d, k)
    nodes, systems = _fit_systems(d, k, max(abs(float(m[1])), 1.0))
    values = _float_minors(m, k, nodes)
    minors = [None] * len(layout.weights)
    for (deg, idx), (matrix, scl, rcond) in zip(layout.groups, systems):
        fitted = np.linalg.lstsq(matrix, values[:deg + 1, idx], rcond)[0]
        for i, column in zip(idx.tolist(), (fitted.T / scl).tolist()):
            minors[i] = tuple(column)
    return HankelPencil(k=k, minors=tuple(minors), weights=layout.weights)


# leading moment minor, relative to its moment scale
_LEAD_MINOR_TOL = 1e-6
# closest two atoms, relative to the largest atom magnitude
_ATOM_GAP_TOL = 1e-9
# imaginary part of a variance root, and how far below zero it may lie
_VARIANCE_ROOT_TOL = 1e-9
_POLISH_STEPS = 3


def quadrature_nodes(moments, k):
    """Atom locations of a k-atomic measure from its first 2k-1 moments.

    These are the roots of the degree-k polynomial whose coefficients are
    signed maximal minors of the moment matrix bordered by the power
    column; a vanishing leading minor or missing real roots mean the
    measure has fewer than k atoms (or the variance fed to the
    deconvolution was wrong).  The leading-minor tolerance must absorb
    the sqrt(eps) accuracy of a variance located at a double root, where
    the minor vanishes like the variance error (``_LEAD_MINOR_TOL``).
    """
    m = np.append(1.0, _floats(_moment_list(moments, k, 2 * k - 1),
                               "a moment"))
    kept = np.arange(k) + (np.arange(k) >= np.arange(k + 1)[:, None])
    signs = (-1.0) ** (np.arange(k + 1) + k)
    coeffs = (signs * np.linalg.det(m[kept[:, :, None] + np.arange(k)])).tolist()
    lead_scale, = _minor_scales(m[1:], [k * (k - 1)])
    if abs(coeffs[k]) <= _LEAD_MINOR_TOL * lead_scale:
        raise RankDeficientMomentsError(
            f"leading moment minor vanishes: fewer than {k} atoms")
    roots = _poly.real_roots(coeffs, imag_tol=1e-9)
    if len(roots) != k:
        raise RankDeficientMomentsError(
            f"expected {k} real atom locations, found {len(roots)}")
    return roots


def quadrature_weights(nodes, moments):
    """Weights of known atom locations from the first k-1 moments, by the
    Vandermonde system whose first row forces the weights to sum to one."""
    k = len(nodes)
    m = [1.0] + _floats(_moment_list(moments, k, k - 1), "a moment").tolist()
    nodes = _floats(_exact_or_finite(nodes, "atom locations"),
                    "an atom location", "atom locations").tolist()
    gap = min((abs(a - b) for i, a in enumerate(nodes)
               for b in nodes[i + 1:]), default=float("inf"))
    span = max((abs(x) for x in nodes), default=1.0)
    if gap <= _ATOM_GAP_TOL * max(1.0, span):
        raise SingularSystemError("repeated atom locations")
    vander = np.asarray([[x ** i for x in nodes] for i in range(k)])
    rhs = np.asarray(m[:k])
    return list(np.linalg.solve(vander, rhs))


def variance_polynomial(moments, k):
    """Determinant of the deconvolved moment matrix at order 2k as a
    polynomial in the variance: the one maximal minor of that order's
    :func:`hankel_pencil`.

    Degree in the variance is k(k+1)/2; its smallest nonnegative root is
    the variance estimator.  The coefficients are floats.
    """
    m = _moment_list(moments, k, 2 * k)
    return list(hankel_pencil(m[:2 * k], k).minors[0])


def _polish_root(coeffs, x):
    # Newton refinement against the float coefficients; kept
    # only while it shrinks the residual, so near-multiple roots cannot
    # send it wandering
    derivative = _poly.poly_derivative(coeffs)
    best_x, best_r = x, abs(_poly.poly_eval(coeffs, x))
    for _ in range(_POLISH_STEPS):
        der = _poly.poly_eval(derivative, x)
        if der == 0.0:
            break
        x = x - _poly.poly_eval(coeffs, x) / der
        r = abs(_poly.poly_eval(coeffs, x))
        if not math.isfinite(r) or r >= best_r:
            break
        best_x, best_r = x, r
    return best_x


def fit_univariate(moments, k):
    """Recover a univariate k-component homoscedastic mixture from its
    first 2k moments (or their :func:`normal_form`): variance from the
    smallest nonnegative root of :func:`variance_polynomial`, then atoms
    and weights by quadrature, on the normal form and mapped back to
    data units (``variance_residual`` stays standardised)."""
    k = _check_k(k)
    form = normal_form(moments)
    m = form.moments
    coeffs = variance_polynomial(m, k)
    roots = _poly.real_roots(coeffs, imag_tol=_VARIANCE_ROOT_TOL)
    admissible = sorted(r for r in roots if r >= -_VARIANCE_ROOT_TOL)
    if not admissible:
        raise ModelMismatchError(
            "variance polynomial has no nonnegative real root")
    s_star = max(0.0, _polish_root(coeffs, admissible[0]))
    mt = deconvolve_moments(m, s_star)
    nodes = quadrature_nodes(mt, k)
    weights = quadrature_weights(nodes, mt)
    sd = math.sqrt(form.variance)
    params = models.HomoscedasticParams(
        means=[[x * sd + form.mean] for x in nodes], weights=weights,
        cov=[[s_star * form.variance]])
    residual = abs(_poly.poly_eval(coeffs, s_star))
    top = max(abs(c) for c in coeffs)
    diagnostics = {
        "order_used": 2 * k,
        "selected_variance": s_star * form.variance,
        "variance_roots": [float(r) * form.variance for r in roots],
        "variance_residual": residual / max(top, 1e-300),
        "negative_weights": bool(any(w < 0 for w in weights)),
    }
    return Estimate(params=params, diagnostics=diagnostics)


# ----------------------------------------------------------------------
# identifiability curve for the two-component analysis

_CURVE_TERMS = (
    (849346560, 5, 2, 0), (-679477248, 4, 3, 0), (-29491200, 5, 1, 1),
    (2674483200, 4, 2, 1), (-2439217152, 3, 3, 1), (256000, 5, 0, 2),
    (79744000, 4, 1, 2), (2415168000, 3, 2, 2), (-2616192000, 2, 3, 2),
    (499500000, 2, 2, 3), (-406500000, 1, 3, 3), (474609375, 0, 3, 4),
)


def identifiability_curve_residual(q):
    """Relative residual of the degree-seven plane curve on the projective
    point ``(x, y, z)`` traced by the fourth- and fifth-order pivot ratio
    cubes as the weight product ``q`` varies; zero exactly on the curve.
    ``q`` neither exact nor a finite real is ``INPUT_PARSE``; a
    coordinate, a term or their sum beyond float range ``INPUT_RANGE``."""
    q, = _exact_or_finite([ts._promote(q)], "q")
    try:
        x = 3 * (1 - 6 * q) ** 3 * (1 - q) ** 3 * (1 - 12 * q) / 32
        y = 15 * (1 - 6 * q) ** 5 * (1 - 4 * q) ** 2 / 128
        z = q * (1 - 4 * q) ** 2 * (1 - q) ** 3 * (1 - 12 * q)
        terms = [c * x ** ex * y ** ey * z ** ez
                 for c, ex, ey, ez in _CURVE_TERMS]
    except OverflowError:
        raise InputError("q too large: a curve term overflows",
                         code="INPUT_RANGE") from None
    *terms, total = _floats([*terms, sum(terms[1:], terms[0])],
                            "a curve term", "q").tolist()
    mag = max(map(abs, terms))
    if mag == 0.0:
        return 0.0
    return abs(total) / mag
