"""Parameter recovery from moments and cumulants.

The closed-form two-component recovery (:func:`fit_two_gaussians`) works
in any dimension from cumulants up to order four or five: the ratio of
the pivot fourth to third cumulant coefficients is strictly monotone in
the smaller weight, which one bisection finds to the last bit; the pivot
mean follows from the third cumulant, the other mean coordinates from
the pivot slice of the third cumulant tensor, and the shared covariance
from the second cumulants.  The univariate recovery
(:func:`fit_univariate`) takes a k-component mixture from its first 2k
moments: the smallest nonnegative root of the one Hankel minor at order
2k is the shared variance, and the classical quadrature rule gives the
atoms, each step a function of :mod:`homoment.ranktest`.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _poly, models, ranktest
from . import series as ts
from .errors import (InconsistentMomentsError, InputError,
                     InsufficientOrderError, ModelMismatchError,
                     PreconditionError, SymmetricMixtureError,
                     check_integers, exact_or_finite, finite_floats,
                     finite_power)


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
# sample cumulants


def sample_cumulants(data, degree):
    """Cumulant series of the empirical distribution of ``data``.

    ``data`` is a ``count x n`` array (a flat array is read as one
    column).  The sample is centred first: moments of data far from the
    origin spend their digits on the mean.  Raw moments of the centred
    sample are averaged monomials, all taken in one checked pass
    (:func:`~homoment.series.sample_moments`), and their log transform
    gives every cumulant of order >= 2, which a shift does not move.  Its
    order-1 terms are the first moments m1 about the centres, so each
    order-1 cumulant is centre + m1, the mean rounded once (a constant
    column's own value).
    """
    _, means, moments = ts.sample_moments(data, degree, columns=None)
    n = len(means)
    indices = ts.multi_indices(n, degree)
    series = ts.TruncatedSeries.from_moments(
        n, degree, zip(indices[1:], moments.tolist()))
    # the order-1 indices are the unit vectors e_1..e_n, in column order
    return ts.log(series) + ts.TruncatedSeries(
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
    :func:`~homoment.errors.finite_floats`: one beyond float range is
    ``INPUT_RANGE``, as are a moment a! c and a covariance scale that
    overflow and a pivot ratio whose power of ``kappa_ppp`` overflows or
    underflows.  Every
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
    values = finite_floats(exact_or_finite(cumulants._c[1:len(position)],
                                           "cumulants"),
                           "a cumulant", "cumulants").tolist()

    def coeff(a):
        return values[position[a] - 1]

    def moment(a):
        # a! c rounded once, from the exact product, and checked finite
        return float(finite_floats(cumulants.moment(a), "a cumulant",
                                   "cumulants"))

    mean_shift = [moment(unit(i, 1)) for i in range(n)]
    # the raw second cumulants, at the indices e_i + e_j
    total_cov = [[moment(tuple((t == i) + (t == j) for t in range(n)))
                  for j in range(n)] for i in range(n)]
    third = [coeff(unit(i, 3)) for i in range(n)]

    cov_scale = max([abs(total_cov[i][j]) for i in range(n) for j in range(n)],
                    default=0.0)
    pivot = max(range(n), key=lambda i: abs(third[i]))
    if abs(6.0 * third[pivot]) <= _PIVOT_TOL * finite_power(
            cov_scale, 1.5, "a covariance scale", "cumulants"):
        raise SymmetricMixtureError(
            "all principal third cumulants vanish; equal weights or equal "
            "means are not recoverable from orders three and four")

    t3 = _cbrt(third[pivot])

    def pivot_ratio(e):
        power = finite_power(t3, e, "a pivot ratio", "cumulants")
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
    cov = [[total_cov[i][j] - w * mu1[i] * mu1[j] - (1.0 - w) * mu2[i] * mu2[j]
            for j in range(n)] for i in range(n)]
    centred = models.HomoscedasticParams(means=[mu1, mu2],
                                         weights=[w, 1.0 - w], cov=cov)
    params = replace(centred, means=[[x + s for x, s in zip(mu, mean_shift)]
                                     for mu in (mu1, mu2)])
    eigmin = float(np.min(np.linalg.eigvalsh(np.asarray(cov))))
    diag = {
        "order_used": order,
        "pivot": pivot,
        "ratio_a": ratio_a,
        "weight_product": q,
        "cov_min_eigenvalue": eigmin,
        "cov_psd": bool(eigmin >= -1e-8 * cov_scale),
        "residual": _fit_residual(centred, values, order),
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
    1..``order``) from those of the fit ``params``, centred at the origin,
    over orders three to ``order``, the equations the closed form does
    not consume; those cumulants do not move under translation, so the
    residual does not depend on the origin of the data."""
    recon = models.homoscedastic_cumulants(params, order)
    x, y = np.asarray(values), recon._c[1:].astype(float)
    gaps = np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return float(gaps[ts.index_table(recon.nvars, order).order[1:] >= 3].max())


# ----------------------------------------------------------------------
# univariate recovery

# imaginary part of a variance root, and how far below zero it may lie
_VARIANCE_ROOT_TOL = 1e-9
_POLISH_STEPS = 3


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
    first 2k moments (or their :func:`~homoment.ranktest.normal_form`):
    variance from the smallest nonnegative root of
    :func:`~homoment.ranktest.variance_polynomial`, then atoms and
    weights by quadrature, on the normal form and mapped back to data
    units (``variance_residual`` stays standardised)."""
    k, = check_integers(1, k=k)
    form = ranktest.normal_form(moments)
    m = form.moments
    coeffs = ranktest.variance_polynomial(m, k)
    roots = _poly.real_roots(coeffs, imag_tol=_VARIANCE_ROOT_TOL)
    admissible = sorted(r for r in roots if r >= -_VARIANCE_ROOT_TOL)
    if not admissible:
        raise ModelMismatchError(
            "variance polynomial has no nonnegative real root")
    s_star = max(0.0, _polish_root(coeffs, admissible[0]))
    mt = ranktest.deconvolve_moments(m, s_star)
    nodes = ranktest.quadrature_nodes(mt, k)
    weights = ranktest.quadrature_weights(nodes, mt)
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
    q, = exact_or_finite([ts._promote(q)], "q")
    try:
        x = 3 * (1 - 6 * q) ** 3 * (1 - q) ** 3 * (1 - 12 * q) / 32
        y = 15 * (1 - 6 * q) ** 5 * (1 - 4 * q) ** 2 / 128
        z = q * (1 - 4 * q) ** 2 * (1 - q) ** 3 * (1 - 12 * q)
        terms = [c * x ** ex * y ** ey * z ** ez
                 for c, ex, ey, ez in _CURVE_TERMS]
    except OverflowError:
        raise InputError("q too large: a curve term overflows",
                         code="INPUT_RANGE") from None
    *terms, total = finite_floats([*terms, sum(terms[1:], terms[0])],
                                  "a curve term", "q").tolist()
    mag = max(map(abs, terms))
    if mag == 0.0:
        return 0.0
    return abs(total) / mag
