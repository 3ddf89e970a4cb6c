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
which one blockwise pass takes (:func:`moment_sums`, called by
:func:`sample_cumulants`, :func:`raw_moments` and
:func:`sample_normal_form`).

Moment vectors are plain sequences ``(m_1, ..., m_d)`` with the zeroth
moment equal to one left implicit.  Entries may be ``Fraction``, which
:func:`normal_form` shifts exactly and :func:`deconvolve_moments` keeps
exact; minors, pencils, determinants and roots are floating point.  The
exact pencil over Q is a test oracle, kept with the tests.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import _poly, models
from . import series as ts
from .errors import (
    InconsistentMomentsError,
    InputError,
    InsufficientOrderError,
    ModelMismatchError,
    PreconditionError,
    RankDeficientMomentsError,
    SingularSystemError,
    SymmetricMixtureError,
)


@dataclass
class Estimate:
    """Recovered mixture parameters plus fit diagnostics."""

    params: models.HomoscedasticParams
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self):
        out = self.params.as_dict()
        out["diagnostics"] = self.diagnostics
        return out


def _cbrt(x):
    return math.copysign(abs(float(x)) ** (1.0 / 3.0), float(x))


# ----------------------------------------------------------------------
# sample moments and cumulants


def _observations(data):
    """``data`` as a float array holding at least one value, all finite."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise InputError("need at least one observation", code="INPUT_EMPTY")
    if not np.all(np.isfinite(arr)):
        raise InputError("data contains non-finite values", code="INPUT_PARSE")
    return arr


def _finite_sample(values, statistic):
    """``values``, sample means or moments; one that is not a finite
    float is ``INPUT_RANGE``."""
    if not np.all(np.isfinite(values)):
        raise InputError(f"data too large: a sample {statistic} is not a "
                         "finite float", code="INPUT_RANGE")
    return values


# values per block of the moment pass, so that a block and its products
# stay in cache
_BLOCK = 16384


@functools.lru_cache(maxsize=None)
def _moment_steps(n, degree):
    """The number of monomials in ``n`` variables of each order
    1..``degree``, and each higher order's steps ``(child, parent,
    column)``: monomial ``child`` of the order (by position in
    :func:`~homoment.series.multi_indices` order) is monomial ``parent``
    of the order below times centred ``column``.  The parent drops one
    from the child's last nonzero exponent, so it never comes after the
    child (checked for n, degree <= 8): steps in decreasing child
    position may write each order over the one below."""
    orders = [[a for a in ts.multi_indices(n, degree) if sum(a) == j]
              for j in range(1, degree + 1)]
    steps = []
    for lower, order in zip(orders, orders[1:]):
        position = {a: p for p, a in enumerate(lower)}
        steps.append([])
        for child, a in reversed(list(enumerate(order))):
            column = max(i for i in range(n) if a[i])
            parent = a[:column] + (a[column] - 1,) + a[column + 1:]
            steps[-1].append((child, position[parent], column))
    return tuple(len(order) for order in orders), tuple(map(tuple, steps))


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


def raw_moments(data, order, centre=0.0):
    """First ``order`` sample moments of a flat data vector about
    ``centre`` (raw moments at the default 0), in one blockwise pass
    (:func:`moment_sums`): the data are never copied.  ``order`` must be
    at least 1 (``PreconditionError``)."""
    if order < 1:
        raise PreconditionError(f"order must be at least 1, got {order}")
    arr = _observations(data).ravel()
    return (moment_sums(arr, order, centre) / arr.size).tolist()


def sample_normal_form(data, order):
    """The normal form of the first ``order`` moments of a flat data
    vector.  Moments of data far from the origin spend their digits on
    the mean, so one blockwise pass (:func:`moment_sums`) takes them
    about the sample mean, with m_1 set to exactly 0 (no ``Fraction``
    arithmetic runs).  ``order`` must be at least 1
    (``PreconditionError``); data that are empty or not finite fail as
    in :func:`raw_moments`, and a sample mean or moment that is not a
    finite float is ``INPUT_RANGE``."""
    if order < 1:
        raise PreconditionError(f"order must be at least 1, got {order}")
    arr = np.asarray(data, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        centre = float(arr.mean()) if arr.size else math.nan
    # a sum with a term that is not finite is not finite either, so only
    # a mean that is not finite calls for a scan of the values
    if not math.isfinite(centre):
        _observations(arr)
        _finite_sample(centre, "mean")
    m = _finite_sample(moment_sums(arr, order, centre) / arr.size, "moment")
    return replace(normal_form([0.0] + m[1:].tolist()), mean=centre)


def sample_cumulants(data, degree):
    """Cumulant series of the empirical distribution of ``data``.

    ``data`` is a ``count x n`` array (a flat array is read as one
    column).  The sample is centred first: moments of data far from the
    origin spend their digits on the mean.  Raw moments of the centred
    sample are averaged monomials, all taken in one blockwise pass
    (:func:`moment_sums`), and their log transform gives every cumulant
    of order >= 2, which a shift does not move; the order-1 cumulants
    are the column means.  A mean or an averaged moment that is not a
    finite float is ``INPUT_RANGE``.
    """
    arr = _observations(data)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise InputError("data must be a count x n array of observations")
    count, n = arr.shape
    with np.errstate(over="ignore"):
        means = _finite_sample(arr.mean(axis=0), "mean")
    moments = _finite_sample(moment_sums(arr, degree, means) / count,
                             "moment")
    series = ts.TruncatedSeries.from_moments(
        n, degree, zip(ts.multi_indices(n, degree)[1:], moments.tolist()))
    first = {tuple(int(i == j) for i in range(n)): float(mean)
             for j, mean in enumerate(means)}
    return (ts.log(series).graded(2)
            + ts.TruncatedSeries.from_moments(n, degree, first,
                                              space="cumulant"))


# ----------------------------------------------------------------------
# two-component closed form


def two_point_cumulant_coeff(weight, order):
    """Coefficient of the centered two-point mixture's cumulant series.

    For atoms ``t`` and ``-w t / (1 - w)`` carrying weights ``w`` and
    ``1 - w``, the cumulant generating function expands as
    ``sum_j f_j(w) (t u)^j`` and this returns ``f_order``.
    """
    w = ts._promote(weight)
    q = w * (1 - w)
    if order == 3:
        return q * (1 - 2 * w) / ((1 - w) ** 3) / 6
    if order == 4:
        return q * (1 - 6 * q) / ((1 - w) ** 4) / 24
    if order == 5:
        return q * (1 - 2 * w) * (1 - 12 * q) / ((1 - w) ** 5) / 120
    raise PreconditionError("order must be 3, 4, or 5")


def cumulant_ratio_from_weight_product(q):
    """The pivot ratio a(q) realized by a mixture with weight product q.

    Strictly decreasing on (0, 1/4); the inverse of
    :func:`solve_smaller_weight` (as ``q = w (1 - w)``) and its round-trip
    oracle.
    """
    q = float(q)
    if not 0.0 < q < 0.25:
        raise PreconditionError("weight product must lie in (0, 1/4)")
    return (3.0 ** (1.0 / 3.0) * (1.0 - 6.0 * q)
            / (2.0 * (4.0 * q * (1.0 - 4.0 * q) ** 2) ** (1.0 / 3.0)))


def solve_smaller_weight(ratio):
    """The smaller weight w in (0, 1/2] of the two-component mixture whose
    pivot ratio is ``ratio``.

    With ``q = w (1 - w)`` and ``b = 1 - 6q`` the ratio r satisfies
    ``3 b^3 = 32 r^3 q (1 - 2w)^4``.  Left minus right is 3 at w = 0 and
    -3/8 at w = 1/2, and :func:`cumulant_ratio_from_weight_product` is
    strictly decreasing, so every finite r has exactly one root there.
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


def _raw_second_cumulants(cumulants):
    n = cumulants.nvars
    cov = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a = tuple((2 if t == i else 0) if i == j else (1 if t in (i, j) else 0)
                      for t in range(n))
            cov[i][j] = cov[j][i] = float(cumulants.moment(a))
    return cov


# relative to the covariance scale to the power 3/2
_PIVOT_TOL = 1e-10


def fit_two_gaussians(cumulants, order=None):
    """Closed-form recovery of a two-component homoscedastic mixture.

    ``cumulants`` is a cumulant-space series of degree at least four.
    The pivot coordinate p has the largest principal third cumulant; its
    ratio to the fourth fixes the smaller weight
    (:func:`solve_smaller_weight`), the pivot mean follows from the third
    cumulant, and every other mean coordinate j from the pivot slice as
    ``mu_j = mu_p kappa_ppj / kappa_ppp``.  A cube root per coordinate
    would amplify the noise of a coordinate that carries no separation.
    With ``order=4`` the two label-symmetric presentations are returned,
    the second the first with its components swapped; with ``order=5``
    (the default when fifth cumulants are available) one estimate is
    returned, the smaller weight first, with the fifth-order pivot ratio
    checked against the model's.  Both presentations predict the same
    ratio, so the check measures fit and does not choose between them.

    Requires a nonzero principal third cumulant: mixtures with equal
    weights or equal means have none and raise
    :class:`SymmetricMixtureError`.
    """
    n = cumulants.nvars
    if cumulants.constant() != 0:
        raise PreconditionError("expected a cumulant-space series "
                                "(zero constant term)")
    if order is None:
        order = min(cumulants.degree, 5)
    if order not in (4, 5):
        raise PreconditionError("order must be 4 or 5")
    if cumulants.degree < order:
        raise InsufficientOrderError(
            f"series of degree {cumulants.degree} cannot serve order {order}")

    def unit(i, e):
        return tuple(e if t == i else 0 for t in range(n))

    mean_shift = [float(cumulants.moment(unit(i, 1))) for i in range(n)]
    total_cov = _raw_second_cumulants(cumulants)
    third = [float(cumulants.coeff(unit(i, 3))) for i in range(n)]

    cov_scale = max([abs(total_cov[i][j]) for i in range(n) for j in range(n)],
                    default=0.0)
    pivot = max(range(n), key=lambda i: abs(third[i]))
    if abs(6.0 * third[pivot]) <= _PIVOT_TOL * max(1.0, cov_scale) ** 1.5:
        raise SymmetricMixtureError(
            "all principal third cumulants vanish; equal weights or equal "
            "means are not recoverable from orders three and four")

    t3 = _cbrt(third[pivot])
    ratio_a = float(cumulants.coeff(unit(pivot, 4))) / t3 ** 4
    w = solve_smaller_weight(ratio_a)
    q = w * (1.0 - w)
    f3 = float(two_point_cumulant_coeff(w, 3))
    mu_p = _cbrt(1.0 / f3) * t3
    k_ppp = float(cumulants.moment(unit(pivot, 3)))
    mu1 = [mu_p * (float(cumulants.moment(
               tuple(2 * (t == pivot) + (t == j) for t in range(n)))) / k_ppp)
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
        "cov_psd": bool(eigmin >= -1e-8 * max(1.0, cov_scale)),
        "residual": _fit_residual(params, cumulants, order),
        "near_symmetric": bool((1.0 - 2.0 * w) ** 2 < 4e-5),
    }
    if order == 4:
        swapped = models.HomoscedasticParams(
            means=params.means[::-1], weights=params.weights[::-1], cov=cov)
        return [Estimate(params=params, diagnostics=diag),
                Estimate(params=swapped, diagnostics=dict(diag))]

    ratio_b = float(cumulants.coeff(unit(pivot, 5))) / t3 ** 5
    predicted = float(two_point_cumulant_coeff(w, 5)) / _cbrt(f3) ** 5
    diag["ratio_b"] = ratio_b
    diag["ratio_b_predicted"] = predicted
    diag["ratio_b_residual"] = (abs(predicted - ratio_b)
                                / max(abs(ratio_b), 1e-300))
    return [Estimate(params=params, diagnostics=diag)]


def _fit_residual(params, cumulants, order):
    """Scaled max deviation of the input cumulants from the fitted model
    over every coordinate of orders three to ``order`` (the equations the
    closed form does not consume)."""
    recon = models.homoscedastic_cumulants(params, order)
    worst = 0.0
    for a in ts.multi_indices(cumulants.nvars, order):
        if not 3 <= sum(a) <= order:
            continue
        x = float(cumulants.coeff(a))
        y = float(recon.coeff(a))
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


# ----------------------------------------------------------------------
# univariate pipeline


def _moment_list(moments):
    m = [ts._promote(x) for x in moments]
    if not m:
        raise InsufficientOrderError("empty moment vector")
    if not all(math.isfinite(x) for x in m if not isinstance(x, Fraction)):
        raise InputError("moments must be finite", code="INPUT_PARSE")
    return m


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
    m = _moment_list(moments)
    mean = m[0]
    if mean != 0:
        exact = [Fraction(1)] + [Fraction(x) for x in m]
        m = [sum(math.comb(j, i) * exact[j - i] * (-exact[1]) ** i
                 for i in range(j + 1)) for j in range(1, len(exact))]
    try:
        mean, central = float(mean), np.array([float(x) for x in m])
    except OverflowError:
        raise InputError("moments too large: a central moment is not a "
                         "finite float", code="INPUT_RANGE")
    variance = central[1] if len(central) > 1 else 0.0
    if not variance > 0.0:
        return NormalForm(mean, 1.0, central.tolist())
    sd = math.sqrt(variance)
    with np.errstate(over="ignore"):
        for j in range(len(central)):
            central[j:] /= sd
    if not np.all(np.isfinite(central)):
        raise InputError("moments too large: a standardised moment is not "
                         "a finite float", code="INPUT_RANGE")
    return NormalForm(mean, float(variance), central.tolist())


def _moment_scale(m):
    vals = [abs(float(x)) ** (1.0 / j) for j, x in enumerate(m, start=1)
            if float(x) != 0.0]
    return max(vals, default=1.0)


def _minor_scales(m, weights):
    """The moment scale of ``m`` raised to each weighted degree."""
    try:
        base = _moment_scale(m)
        return [base ** w for w in weights]
    except OverflowError:
        raise InputError("moments too large: a minor scale overflows",
                         code="INPUT_RANGE")


def _deconvolution_coeff(j, i):
    """Signed coefficient ``(-1)^i j! / (2^i i! (j-2i)!)`` of
    ``m_{j-2i} variance^i`` in the deconvolved moment of order j."""
    coeff = math.factorial(j) // (
        2 ** i * math.factorial(i) * math.factorial(j - 2 * i))
    return -coeff if i % 2 else coeff


def deconvolve_moments(moments, variance):
    """Moments of the atomic part after removing a Gaussian of the given
    variance: ``mt_j = sum_i j! / ((-2)^i i! (j-2i)!) m_{j-2i} variance^i``."""
    m = [Fraction(1)] + _moment_list(moments)
    variance = ts._promote(variance)
    out = []
    for j in range(1, len(m)):
        acc = None
        power = 1
        for i in range(j // 2 + 1):
            term = _deconvolution_coeff(j, i) * m[j - 2 * i] * power
            acc = term if acc is None else acc + term
            power = power * variance
        out.append(acc)
    return out


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
    ``N x nminors`` array.  A minor that is not finite raises
    ``INPUT_RANGE``.
    """
    if np.ndim(moments) == 1 and np.ndim(s) == 0:
        return _float_minors([_moment_list(moments)], k, s)[0].tolist()
    return _float_minors(moments, k, s)


def _float_minors(moments, k, s):
    """Float maximal minors of a stack of moment rows, each at its
    variance (rows and variances broadcast against each other).

    Every row is deconvolved in the term order of
    :func:`deconvolve_moments`, in Python floats: they round as numpy's
    do, and cost less than numpy calls on rows this short.  Every
    minor's submatrix is gathered from the deconvolved rows by one fancy
    index (Hankel entry (i, j) is ``mt_{i+j}``), and one stacked
    determinant takes them all, so each value equals the per-row float
    evaluation.
    """
    rows = np.asarray(moments, dtype=float)
    d = rows.shape[-1]
    if d < 2 * k:
        raise InsufficientOrderError(f"need order {2 * k} for k={k}")
    layout = _minor_layout(d, k)
    rows = rows.reshape(-1, d).tolist()
    variances = np.asarray(s, dtype=float).ravel().tolist()
    if len(rows) == 1:
        rows *= len(variances)
    elif len(variances) == 1:
        variances *= len(rows)
    if len(rows) != len(variances):
        raise ValueError(f"{len(rows)} moment rows and {len(variances)} "
                         "variances do not broadcast")
    mt = []
    for row, v in zip(rows, variances):
        # mt_0 = 1, and the i = 0 term of every mt_j is m_j itself
        full = [1.0] + row
        out, power = full[:], v
        for i, coeffs in enumerate(layout.coeffs, start=1):
            for j, coeff in enumerate(coeffs, start=2 * i):
                out[j] = out[j] + coeff * full[j - 2 * i] * power
            power = power * v
        mt.append(out)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linalg.det(np.array(mt).reshape(-1, d + 1)[:, layout.index])
    # a float minor overflows on huge input
    if not np.isfinite(values).all():
        raise InputError("moments too large: a Hankel minor is not a finite "
                         "float", code="INPUT_RANGE")
    return values


class _MinorLayout(NamedTuple):
    """What the pencil of order ``d`` and ``k`` needs of ``d`` and ``k``
    alone (:func:`_minor_layout`)."""

    subsets: tuple   # k + 1 of the d - k + 1 columns, one maximal minor each
    weights: tuple   # weighted degree of each minor
    degrees: tuple   # degree of each minor in the variance
    groups: tuple    # (degree, read-only index of its minors), ascending
    nodes: int       # interpolation nodes: one more than the top degree
    coeffs: tuple    # deconvolution coefficients per power of the variance
    index: np.ndarray  # read-only: gathers every minor's submatrix


@functools.lru_cache(maxsize=None)
def _minor_layout(d, k):
    """The :class:`_MinorLayout` of the pencil of order ``d`` and ``k``,
    built once per process.

    The column subsets come in ``combinations`` order.  A minor on
    columns ``sel`` weighs ``k (k + 1) / 2 + sum(sel)`` and is a
    polynomial of half that degree in the variance; minors of one degree
    form a group, fitted together.  The deconvolution coefficients of
    ``variance**i`` for i = 1..d//2 cover orders 2i..d, and the index
    gathers every minor's submatrix from a deconvolved row."""
    subsets = tuple(combinations(range(d - k + 1), k + 1))
    weights = tuple(k * (k + 1) // 2 + sum(sel) for sel in subsets)
    degrees = tuple(w // 2 for w in weights)
    groups = tuple((deg, np.flatnonzero(np.equal(degrees, deg)))
                   for deg in sorted(set(degrees)))
    coeffs = tuple(tuple(float(_deconvolution_coeff(j, i))
                         for j in range(2 * i, d + 1))
                   for i in range(1, d // 2 + 1))
    index = np.arange(k + 1)[:, None] + np.array(subsets)[:, None, :]
    for array in [idx for _, idx in groups] + [index]:
        array.flags.writeable = False
    return _MinorLayout(subsets, weights, degrees, groups, max(degrees) + 1,
                        coeffs, index)


@functools.lru_cache(maxsize=64)
def _fit_systems(count, scale):
    """The ``count`` interpolation nodes at ``scale``
    (:func:`~homoment._poly.interpolation_nodes`) and, for each degree
    below ``count``, the least-squares system that
    ``numpy.polynomial.polynomial.polyfit`` sets up on the first
    ``degree + 1`` nodes: the Vandermonde matrix with unit-norm columns,
    those column norms and ``rcond``.  Arrays are read-only."""
    nodes = np.asarray(_poly.interpolation_nodes(count, scale))
    systems = []
    for deg in range(count):
        x = nodes[:deg + 1]
        lhs = np.polynomial.polynomial.polyvander(x, deg).T
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
    the node count and scale alone and is built once
    (:func:`_fit_systems`); the solve is the one
    ``numpy.polynomial.polynomial.polyfit`` makes, so the coefficients
    are polyfit's to the bit.  The matrix uses every given moment.
    """
    m = _moment_list(moments)
    d = len(m)
    if d < 2 * k:
        raise InsufficientOrderError(
            f"pencil needs moment order at least {2 * k}, got {d}")
    layout = _minor_layout(d, k)
    nodes, systems = _fit_systems(layout.nodes, max(abs(float(m[1])), 1.0))
    values = _float_minors(m, k, nodes)
    minors = [None] * len(layout.degrees)
    for deg, idx in layout.groups:
        matrix, scl, rcond = systems[deg]
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
    m = [1.0] + _moment_list(moments)
    if len(m) < 2 * k:
        raise InsufficientOrderError(f"need {2 * k - 1} moments for {k} atoms")
    block = [[m[i + j] for j in range(k)] for i in range(k + 1)]
    coeffs = []
    for i in range(k + 1):
        minor = [block[r] for r in range(k + 1) if r != i]
        sign = -1 if (i + k) % 2 else 1
        coeffs.append(sign * _poly.det(minor))
    lead_scale, = _minor_scales(m[1:], [k * (k - 1)])
    if abs(float(coeffs[k])) <= _LEAD_MINOR_TOL * lead_scale:
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
    nodes = [float(x) for x in nodes]
    gap = min((abs(a - b) for i, a in enumerate(nodes)
               for b in nodes[i + 1:]), default=float("inf"))
    span = max((abs(x) for x in nodes), default=1.0)
    if gap <= _ATOM_GAP_TOL * max(1.0, span):
        raise SingularSystemError("repeated atom locations")
    m = [1.0] + [float(x) for x in _moment_list(moments)]
    if len(m) < k:
        raise InsufficientOrderError(f"need {k - 1} moments for {k} weights")
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
    return list(hankel_pencil(_moment_list(moments)[:2 * k], k).minors[0])


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


def identifiability_curve_point(q):
    """Projective point traced by the fourth- and fifth-order pivot ratio
    cubes as the weight product ``q`` varies (degree-seven coordinates)."""
    q = ts._promote(q)
    x = 3 * (1 - 6 * q) ** 3 * (1 - q) ** 3 * (1 - 12 * q) / 32
    y = 15 * (1 - 6 * q) ** 5 * (1 - 4 * q) ** 2 / 128
    z = q * (1 - 4 * q) ** 2 * (1 - q) ** 3 * (1 - 12 * q)
    return x, y, z


def identifiability_curve_residual(q):
    """Relative residual of the degree-seven plane curve on the point of
    :func:`identifiability_curve_point`; zero exactly on the curve."""
    x, y, z = identifiability_curve_point(q)
    total = None
    mag = 0.0
    for c, ex, ey, ez in _CURVE_TERMS:
        term = c * x ** ex * y ** ey * z ** ez
        total = term if total is None else total + term
        mag = max(mag, abs(float(term)))
    if mag == 0.0:
        return 0.0
    return abs(float(total)) / mag
