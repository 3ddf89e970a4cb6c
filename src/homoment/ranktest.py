"""Membership tests for univariate homoscedastic secants.

A univariate mixture of k Gaussians with shared variance s has moments
whose Gaussian-deconvolved Hankel matrix drops rank at the true s.  The
pencil of all maximal minors of that matrix (:func:`hankel_pencil`, built
in :mod:`homoment.estimate`), viewed as polynomials in s, therefore has a
common nonnegative root exactly on the model.  Membership is decided
numerically on the :func:`~homoment.estimate.normal_form` of the moments:
the scaled sum of squared minors is minimized over the admissible
variance interval and compared against a threshold.  Every entry
point checks ``k`` (or ``k_max``) first: below 1 is ``PRECONDITION``.

On sample data (:func:`estimate_components_from_data`) the checked
pass that :mod:`homoment.estimate` shares with the closed-form fit takes
the moments about the sample mean (:func:`~.estimate.sample_normal_form`),
and each minor is scaled by its sampling noise: the delta method applied
to the asymptotic covariance of the sample moments
(:func:`_delta_scales`).  Nothing in the count is random.

Closed forms are provided for the two smallest cases: the third cumulant
(order-3 hypersurface of single Gaussians) and the weighted degree-18
invariant cutting out two-component mixtures in cumulants up to order 5.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _poly
from . import series as ts
from .errors import PreconditionError, check_integers
from .estimate import (
    _check_k,
    _check_pencil,
    _float_minors,
    _floats,
    _minor_scales,
    _moment_scale,
    _sample,
    _sample_form,
    hankel_pencil,
    normal_form,
    pencil_minor_values,
    raw_moments,
)

DEFAULT_THRESHOLD = 1e-8
# sample moments: a verdict accepts below NOISE_FACTOR * nminors, the sum
# of squared whitened minors being about nminors on the model
NOISE_FACTOR = 25.0
# central-difference step of each moment, relative to its scale
_DIFF_STEP = 1e-4


def cumulant_k3(m1, m2, m3):
    """Third cumulant from raw moments: ``2 m1^3 - 3 m1 m2 + m3``.

    This is the equation of the univariate Gaussian moment variety in
    moments up to order three.
    """
    m1, m2, m3 = (ts._promote(x) for x in (m1, m2, m3))
    return 2 * m1 ** 3 - 3 * m1 * m2 + m3


def two_secant_invariant(k3, k4, k5):
    """Weighted degree-18 invariant vanishing on two-component mixtures.

    Arguments are raw cumulants of orders 3, 4, 5.  Scaling the
    underlying variable by t multiplies the value by t**18.
    """
    k3, k4, k5 = (ts._promote(x) for x in (k3, k4, k5))
    return (108 * k3 ** 6 - 32 * k3 ** 2 * k4 ** 3 + 36 * k3 ** 3 * k4 * k5
            - k4 ** 2 * k5 ** 2 + k3 * k5 ** 3)


# ----------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of one secant membership test."""

    k: int
    on_model: bool
    residual: float    # min over admissible s of the scaled sum of squares
    witness_s: float   # argmin
    threshold: float
    nminors: int

    def as_dict(self):
        return {
            "k": self.k, "on_model": self.on_model,
            "residual": self.residual, "witness_variance": self.witness_s,
            "threshold": self.threshold, "minors": self.nminors,
        }


def secant_membership(moments, k, threshold=DEFAULT_THRESHOLD):
    """Does a moment vector (or its :func:`~homoment.estimate.normal_form`)
    lie on the homoscedastic k-secant?

    On the normal form, minimizes the sum of squared minors over
    variances in [0, central variance] (the component variance can never
    exceed it) after scaling each minor by the moment scale raised to its
    weighted degree; the witness is mapped back to data units.  The
    verdict is never an error: off-model input simply reports a residual
    above the threshold, which must be finite and above 0 (``PRECONDITION``).
    """
    k = _check_k(k)
    if not 0 < threshold < np.inf:
        raise PreconditionError(f"threshold must be finite and above 0, "
                                f"got {threshold}")
    form = normal_form(moments)
    m = form.moments
    verdict = _pencil_membership(m, hankel_pencil(m, k), threshold, None)
    return replace(verdict, witness_s=verdict.witness_s * form.variance)


def _pencil_membership(m, pencil, threshold, minor_scales):
    """``secant_membership`` on an already expanded pencil of the float
    moments ``m``, with each minor scaled by ``minor_scales`` (noise
    levels, for sample moments) when given.

    The expanded sum of squares (:func:`_sum_of_squares`) only locates
    the candidate variances: its large coefficients cancel, and so do
    those of each interpolated minor.  Every candidate is scored by the
    scaled minors themselves, evaluated at all candidates in one
    :func:`~homoment.estimate._float_minors` call.
    """
    if minor_scales is None:
        minor_scales = _minor_scales(m, pencil.weights)
    scales = np.array([float(scale) if scale else 1.0
                       for scale in minor_scales])
    objective = _sum_of_squares(pencil.minors, scales)
    s_max = max(float(m[1]), 0.0)
    candidates = [0.0, s_max]
    derivative = _poly.poly_derivative(objective.tolist())
    for r in _poly.real_roots(derivative, imag_tol=1e-6):
        if 0.0 < r < s_max:
            candidates.append(r)
    minors = _float_minors(m, pencil.k, candidates)
    residuals = np.square(minors / scales).sum(axis=1)
    residual, witness = min(zip(residuals.tolist(), candidates))
    return MembershipVerdict(
        k=pencil.k, on_model=bool(residual < threshold), residual=residual,
        witness_s=witness, threshold=float(threshold),
        nminors=pencil.nminors)


def _sum_of_squares(minors, scales):
    """Ascending coefficients of the sum over the minors of
    ``(minor / scale)**2``.

    The scaled coefficient lists, zero-padded, are the rows of a matrix
    ``C``; the coefficient of ``s**n`` in the sum is the n-th
    anti-diagonal sum of ``C^T C``, so one matrix product and one
    ``bincount`` take the whole sum.
    """
    width = max(len(coeffs) for coeffs in minors)
    rows = np.array([tuple(coeffs) + (0.0,) * (width - len(coeffs))
                     for coeffs in minors], dtype=float)
    rows /= np.asarray(scales)[:, None]
    powers = np.arange(width)
    return np.bincount((powers[:, None] + powers).ravel(),
                       weights=(rows.T @ rows).ravel())


def component_ladder(moments, k_max, threshold=DEFAULT_THRESHOLD):
    """Membership verdicts for k = 1..k_max from 2 k_max + 1 moments.  Every
    pencil uses all of them; one too large to run is ``PRECONDITION``
    before any runs."""
    k_max, = check_integers(1, k_max=k_max)
    form = normal_form(moments)
    _check_k(k_max, 2 * k_max + 1, len(form.moments))
    for k in range(1, k_max + 1):
        _check_pencil(len(form.moments), k)
    return [secant_membership(form, k, threshold=threshold)
            for k in range(1, k_max + 1)]


def component_count(verdicts):
    """The smallest k whose verdict accepts, in a ladder for k =
    1..k_max; k_max + 1 if none does."""
    return next((v.k for v in verdicts if v.on_model), len(verdicts) + 1)


def estimate_components(moments, k_max, threshold=DEFAULT_THRESHOLD):
    """Smallest k whose secant accepts the moments; k_max + 1 if none."""
    return component_count(component_ladder(moments, k_max,
                                            threshold=threshold))


# ----------------------------------------------------------------------
# noise-calibrated component count for sample data


def bootstrap_minor_scales(data, witnesses, d, n_boot=32, seed=0):
    """Sampling noise of each pencil minor at a fixed variance, estimated
    by the nonparametric bootstrap of the data.

    ``witnesses`` maps each k to the variance its minors are evaluated
    at; the result maps each k to one noise level per minor.  The
    ``n_boot`` resamples (at least 2) are drawn once and shared by every
    k.  Each resample is gathered and its moments of orders 1..``d``
    taken by :func:`~homoment.estimate.raw_moments`; they fill one
    ``n_boot x d`` stack, whose minors are then taken in one batched
    :func:`pencil_minor_values` call per k.  ``n_boot``, ``d`` (at least
    1) and ``seed`` (at least 0) are read as ints by
    :func:`check_integers`; others are ``PRECONDITION``.
    """
    # a standard deviation over the resamples needs two of them
    n_boot, = check_integers(2, n_boot=n_boot)
    d, = check_integers(1, d=d)
    seed, = check_integers(0, seed=seed)
    arr = _sample(data, 1)[0].ravel()
    rng = np.random.default_rng(seed)
    moments = np.empty((n_boot, d))
    for row in moments:
        row[:] = raw_moments(arr[rng.integers(0, arr.size, arr.size)], d)
    scales = {}
    for k, witness_s in witnesses.items():
        minors = pencil_minor_values(moments, k, witness_s)
        scales[k] = np.maximum(np.std(minors, axis=0, ddof=1), 1e-300).tolist()
    return scales


def _delta_scales(m, count, witnesses, d):
    """Sampling noise of each pencil minor at the witness variances
    (k -> variance; the result maps k -> one level per minor) by the
    delta method, from the moments m_1..m_2d of ``count`` values: sample
    moments have asymptotic covariance ``S = (m_{i+j} - m_i m_j) / N``,
    so a minor's noise is ``sqrt(g' S g)``, ``g`` its gradient in
    m_1..``d`` by central differences, all in one batched
    :func:`_float_minors` call per k."""
    full = np.array([1.0, *m])
    orders = np.arange(1, d + 1)
    first = full[1:d + 1]
    cov = _floats((full[orders[:, None] + orders] - np.outer(first, first))
                  / count, "the moment covariance", "data")
    # moment j weighs j, so each step is the moment scale to that power
    step = _DIFF_STEP * _moment_scale(m[:d]) ** orders
    diag = np.diag(step)
    rows = first + np.concatenate((diag, -diag))
    scales = {}
    for k, witness_s in witnesses.items():
        minors = _float_minors(rows, k, witness_s)
        grad = (minors[:d] - minors[d:]) / (2.0 * step[:, None])
        var = np.einsum("ia,ij,ja->a", grad, cov, grad)
        scales[k] = np.maximum(np.sqrt(np.maximum(var, 0.0)), 1e-300).tolist()
    return scales


def estimate_components_from_data(data, k_max):
    """Component count for raw observations with noise-aware thresholds.

    One blockwise pass takes the moments of the data about their mean to
    order ``2 d``, with ``d = 2 k_max + 1``, in normal form
    (:func:`~.estimate.sample_normal_form`): standardised, so the count depends on
    neither the origin nor the unit of the data, and no centred copy is
    made.  The witness variances are reported back in data units.
    Each minor is whitened by its delta-method noise level
    (:func:`_delta_scales`), making the on-model residual an
    order-nminors quantity regardless of sample size;
    ``NOISE_FACTOR * nminors`` then separates sampling noise from real
    model violation.  There is no resampling and no random number: a
    call returns the same answer every time; a pencil too large to run
    is ``PRECONDITION`` before the data are read.  Returns ``(k_hat,
    verdicts)``.
    """
    k_max, = check_integers(1, k_max=k_max)
    d = 2 * k_max + 1
    for k in range(1, k_max + 1):
        _check_pencil(d, k)
    form, count = _sample_form(data, 2 * d)
    m = form.moments
    k_hat, verdicts = _whitened_count(
        m[:d], k_max, lambda witnesses: _delta_scales(m, count, witnesses, d))
    return k_hat, [replace(v, witness_s=v.witness_s * form.variance)
                   for v in verdicts]


def _whitened_count(m, k_max, noise):
    """The count on sample moments ``m``: a first pass finds each k's
    witness variance, ``noise(witnesses)`` gives the noise level of every
    minor there, and a second pass whitens the minors by it."""
    pencils = [hankel_pencil(m, k) for k in range(1, k_max + 1)]
    first = [_pencil_membership(m, p, DEFAULT_THRESHOLD, None)
             for p in pencils]
    scales = noise({v.k: v.witness_s for v in first})
    verdicts = [_pencil_membership(m, p, NOISE_FACTOR * v.nminors,
                                   scales[p.k])
                for p, v in zip(pencils, first)]
    return component_count(verdicts), verdicts
