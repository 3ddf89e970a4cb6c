"""Membership tests for univariate homoscedastic secants.

A univariate mixture of k Gaussians with shared variance s has moments
whose Gaussian-deconvolved Hankel matrix drops rank at the true s.  The
pencil of all maximal minors of that matrix (:func:`hankel_pencil`, built
in :mod:`homoment.estimate`), viewed as polynomials in s, therefore has a
common nonnegative root exactly on the model.  Membership is decided
numerically: the scaled sum of squared minors is minimized over the
admissible variance interval and compared against a threshold.

Closed forms are provided for the two smallest cases: the third cumulant
(order-3 hypersurface of single Gaussians) and the weighted degree-18
invariant cutting out two-component mixtures in cumulants up to order 5.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import _poly
from . import series as ts
from .errors import InsufficientOrderError, PreconditionError
from .estimate import (
    _minor_scales,
    _moment_list,
    _observations,
    hankel_pencil,
    pencil_minor_values,
)

DEFAULT_THRESHOLD = 1e-8


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
    """Does a moment vector lie on the homoscedastic k-secant?

    Minimizes the sum of squared minors over variances in [0, m2] (the
    component variance can never exceed the raw second moment) after
    scaling each minor by the moment scale raised to its weighted
    degree.  The verdict is never an error: off-model input simply
    reports a residual above the threshold.
    """
    m = _moment_list(moments)
    return _pencil_membership(m, hankel_pencil(m, k), threshold, None)


def _pencil_membership(m, pencil, threshold, minor_scales):
    """``secant_membership`` on an already expanded pencil of ``m``, with
    each minor scaled by ``minor_scales`` (noise levels, for sample
    moments) when given.

    The expanded sum of squares only locates the candidate variances: its
    large coefficients cancel, and so do those of each interpolated
    minor.  Every candidate is scored by the scaled minors themselves,
    evaluated at all candidates in one :func:`pencil_minor_values` call.
    """
    if minor_scales is None:
        minor_scales = _minor_scales(m, pencil.weights)
    scales = [float(scale) if scale else 1.0 for scale in minor_scales]
    objective = np.zeros(1)
    for coeffs, scale in zip(pencil.minors, scales):
        scaled = [float(c) / scale for c in coeffs]
        objective = P.polyadd(objective, P.polymul(scaled, scaled))
    s_max = max(float(m[1]), 0.0)
    candidates = [0.0, s_max]
    for r in _poly.real_roots(_poly.poly_derivative(objective), imag_tol=1e-6):
        if 0.0 < r < s_max:
            candidates.append(r)
    minors = pencil_minor_values(m, pencil.k, candidates)
    residuals = np.sum((minors / np.asarray(scales)) ** 2, axis=1)
    residual, witness = min(zip(residuals.tolist(), candidates))
    return MembershipVerdict(
        k=pencil.k, on_model=bool(residual < threshold), residual=residual,
        witness_s=witness, threshold=float(threshold),
        nminors=pencil.nminors)


def component_ladder(moments, k_max, threshold=DEFAULT_THRESHOLD):
    """Membership verdicts for k = 1..k_max (the residual trace)."""
    m = _moment_list(moments)
    if len(m) < 2 * k_max + 1:
        raise InsufficientOrderError(
            f"component search up to {k_max} needs order {2 * k_max + 1}")
    return [secant_membership(m, k, threshold=threshold)
            for k in range(1, k_max + 1)]


def estimate_components(moments, k_max, threshold=DEFAULT_THRESHOLD):
    """Smallest k whose secant accepts the moments; k_max + 1 if none."""
    for verdict in component_ladder(moments, k_max, threshold=threshold):
        if verdict.on_model:
            return verdict.k
    return k_max + 1


# ----------------------------------------------------------------------
# noise-calibrated component count for sample data


def _power_sums(arr, order, counts=None):
    """``sum(counts * arr**j)`` for j = 1..order (``counts`` defaults to
    ones), by running products in one buffer: no ``pow`` and no table of
    powers."""
    term = arr.copy() if counts is None else counts * arr
    sums = [float(term.sum())]
    for _ in range(order - 1):
        term *= arr
        sums.append(float(term.sum()))
    return sums


def raw_moments(data, order):
    """First ``order`` raw sample moments of a flat data vector."""
    arr = _observations(data).ravel()
    return [s / arr.size for s in _power_sums(arr, order)]


def _check_resamples(n_boot):
    # a standard deviation over the resamples needs two of them
    if n_boot < 2:
        raise PreconditionError(f"n_boot must be at least 2, got {n_boot}")


def bootstrap_minor_scales(data, witnesses, d, n_boot=32, seed=0):
    """Sampling noise of each pencil minor at a fixed variance, estimated
    by the nonparametric bootstrap of the data.

    ``witnesses`` maps each k to the variance its minors are evaluated
    at; the result maps each k to one noise level per minor.  The
    ``n_boot`` resamples (at least 2) are drawn once and shared by every
    k.  A resample enters through its multiplicities, so its moments are
    weighted power sums of the original data of orders 1..``d``; they
    fill one ``n_boot x d`` stack, whose minors are then taken in one
    batched :func:`pencil_minor_values` call per k.
    """
    _check_resamples(n_boot)
    arr = _observations(data).ravel()
    rng = np.random.default_rng(seed)
    moments = np.empty((n_boot, d))
    for row in moments:
        pick = rng.integers(0, arr.size, arr.size)
        row[:] = _power_sums(arr, d, np.bincount(pick, minlength=arr.size))
    moments /= arr.size
    scales = {}
    for k, witness_s in witnesses.items():
        minors = pencil_minor_values(moments, k, witness_s)
        scales[k] = np.maximum(np.std(minors, axis=0, ddof=1), 1e-300).tolist()
    return scales


def estimate_components_from_data(data, k_max, n_boot=32, factor=25.0,
                                  seed=0):
    """Component count for raw observations with noise-aware thresholds.

    Each minor is whitened by its bootstrap noise level, making the
    on-model residual an order-nminors quantity regardless of sample
    size; ``factor * nminors`` then separates sampling noise from real
    model violation.  Every k shares one set of ``n_boot`` resamples,
    seeded by ``seed``.  Returns ``(k_hat, verdicts)``.  ``k_max`` must
    be at least 1 and ``n_boot`` at least 2 (``PreconditionError``).
    """
    if k_max < 1:
        raise PreconditionError(f"k_max must be at least 1, got {k_max}")
    _check_resamples(n_boot)
    arr = np.asarray(data, dtype=float).ravel()
    order = 2 * k_max + 1
    m = raw_moments(arr, order)
    pencils = [hankel_pencil(m, k) for k in range(1, k_max + 1)]
    first = [_pencil_membership(m, p, DEFAULT_THRESHOLD, None)
             for p in pencils]
    scales = bootstrap_minor_scales(arr, {v.k: v.witness_s for v in first},
                                    n_boot=n_boot, seed=seed, d=order)
    verdicts = [_pencil_membership(m, p, factor * v.nminors, scales[p.k])
                for p, v in zip(pencils, first)]
    k_hat = next((v.k for v in verdicts if v.on_model), k_max + 1)
    return k_hat, verdicts
