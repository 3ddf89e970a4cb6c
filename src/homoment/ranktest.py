"""The univariate pipeline: the normal form of a moment vector, the
Hankel pencil of its Gaussian-deconvolved moment matrix, and the
membership tests, counts and quadrature that read the pencil.

A univariate mixture of k Gaussians with shared variance s has moments
whose deconvolved Hankel matrix drops rank at the true s (Lindsay,
1989).  The pencil of all maximal minors of that matrix
(:func:`hankel_pencil`), viewed as polynomials in s, therefore has a
common nonnegative root exactly on the model.  Membership is decided
numerically on the :func:`normal_form` of the moments: the scaled sum of
squared minors is minimized over the admissible variance interval and
compared against a threshold.  Every entry point checks ``k`` (or
``k_max``) first: below 1 is ``PRECONDITION``.  Only
:func:`normal_form` reads ``Fraction`` moments exactly; every
deconvolution, minor and root is a float.

On sample data (:func:`estimate_components_from_data`) each minor is
scaled by its sampling noise: the delta method applied to the
asymptotic covariance of the sample moments (:func:`_delta_scales`).
Nothing in the count is random.

Closed forms are provided for the two smallest cases: the third cumulant
(order-3 hypersurface of single Gaussians) and the weighted degree-18
invariant cutting out two-component mixtures in cumulants up to order 5.
"""

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import _poly
from . import series as ts
from .errors import (DimensionMismatchError, InsufficientOrderError,
                     PreconditionError, RankDeficientMomentsError,
                     SingularSystemError, check_integers, exact_or_finite,
                     finite_floats, finite_power)

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
# the normal form and the deconvolved Hankel pencil


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


def _moment_list(moments, k=1, need=0):
    """``moments``, ints made ``Fraction``, checked (:func:`_check_k`)."""
    _check_k(k, need, len(moments))
    return exact_or_finite([ts._promote(x) for x in moments], "moments")


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
    values = finite_floats([mean, *m], "a central moment")
    mean, central = float(values[0]), values[1:]
    variance = central[1] if len(central) > 1 else 0.0
    if not variance > 0.0:
        return NormalForm(mean, 1.0, central.tolist())
    sd = math.sqrt(variance)
    with np.errstate(over="ignore"):
        for j in range(len(central)):
            central[j:] /= sd
    finite_floats(central, "a standardised moment")
    return NormalForm(mean, float(variance), central.tolist())


def raw_moments(data, order):
    """First ``order`` raw moments (about 0) of one column of data, in one
    checked pass (:func:`~homoment.series.sample_moments`): the data are
    never copied.  ``order`` below 1 is ``PreconditionError``."""
    return ts.sample_moments(data, order, 0.0)[2].tolist()


def _sample_form(data, order):
    """:func:`sample_normal_form` and the number of observations."""
    arr, mean, m = ts.sample_moments(data, order)
    form = normal_form([0.0, *m.tolist()[1:]])
    return replace(form, mean=float(mean[0])), len(arr)


def sample_normal_form(data, order):
    """The normal form of the first ``order`` moments of one column of
    data.  Moments of data far from the origin spend their digits on the
    mean, so the checked pass (:func:`~homoment.series.sample_moments`)
    takes them about the sample mean, and m_1 is set to exactly 0 (the
    normal form runs no ``Fraction`` arithmetic); that pass centres a
    constant sample at its own value, so it is a point mass, and shifts
    one whose mean is no float exactly to that mean.  ``order`` below 1
    is ``PreconditionError``."""
    return _sample_form(data, order)[0]


def _moment_scale(m):
    vals = [abs(x) ** (1.0 / j)
            for j, x in enumerate(np.asarray(m, dtype=float).tolist(), 1)
            if x != 0.0]
    return max(vals, default=1.0)


def _minor_scales(m, weights):
    """The moment scale of ``m`` raised to each weighted degree."""
    base = _moment_scale(m)
    return [finite_power(base, w, "a minor scale") for w in weights]


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
    variance, = exact_or_finite([ts._promote(variance)], "variance")
    *row, v = finite_floats([*m, variance], "an entry").tolist()
    mt = _deconvolve([row], [v], _deconvolution_table(len(row)))[0][1:]
    return finite_floats(mt, "a deconvolved moment").tolist()


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
    exact_or_finite(np.ravel(s).tolist(), "variance")
    exact_or_finite(np.ravel(moments).tolist(), "moments")
    values = _float_minors(finite_floats(moments, "a moment"), k,
                           finite_floats(s, "a variance", "variance"))
    one = np.ndim(moments) == 1 and np.ndim(s) == 0
    return values[0].tolist() if one else values


def _float_minors(moments, k, s):
    """Float maximal minors of a stack of moment rows, each at its
    variance (rows and variances broadcast against each other) and
    deconvolved by :func:`_deconvolve`.  Every minor's submatrix is
    gathered from the deconvolved rows by one fancy index (Hankel entry
    (i, j) is ``mt_{i+j}``), and one stacked determinant takes them all,
    so each value equals the per-row float evaluation.  Callers hand it
    floats they have checked (:func:`~homoment.errors.finite_floats`); it
    checks the minors.
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
    return finite_floats(values, "a Hankel minor")


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
    m = finite_floats(_moment_list(moments, k), "a moment")
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


def variance_polynomial(moments, k):
    """Determinant of the deconvolved moment matrix at order 2k as a
    polynomial in the variance: the one maximal minor of that order's
    :func:`hankel_pencil`.

    Degree in the variance is k(k+1)/2; its smallest nonnegative root is
    the variance estimator.  The coefficients are floats.
    """
    m = _moment_list(moments, k, 2 * k)
    return list(hankel_pencil(m[:2 * k], k).minors[0])


# leading moment minor, relative to its moment scale
_LEAD_MINOR_TOL = 1e-6
# closest two atoms, relative to the largest atom magnitude
_ATOM_GAP_TOL = 1e-9


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
    m = np.append(1.0, finite_floats(_moment_list(moments, k, 2 * k - 1),
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
    m = [1.0] + finite_floats(_moment_list(moments, k, k - 1),
                              "a moment").tolist()
    nodes = finite_floats(exact_or_finite(nodes, "atom locations"),
                          "an atom location", "atom locations").tolist()
    gap = min((abs(a - b) for i, a in enumerate(nodes)
               for b in nodes[i + 1:]), default=float("inf"))
    span = max((abs(x) for x in nodes), default=1.0)
    if gap <= _ATOM_GAP_TOL * max(1.0, span):
        raise SingularSystemError("repeated atom locations")
    vander = np.asarray([[x ** i for x in nodes] for i in range(k)])
    rhs = np.asarray(m[:k])
    return list(np.linalg.solve(vander, rhs))


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
    """Does a moment vector (or its :func:`normal_form`) lie on the
    homoscedastic k-secant?

    On the normal form, minimizes the sum of squared minors over
    variances in [0, central variance] (the component variance can never
    exceed it) after scaling each minor by the moment scale raised to its
    weighted degree; the witness is mapped back to data units.  The
    verdict is never an error: off-model input simply reports a residual
    above the threshold, which must be finite and above 0 (``PRECONDITION``).
    """
    k = _check_k(k)
    try:
        admitted = 0 < threshold < np.inf
    except TypeError:  # not a number
        admitted = False
    if not admitted:
        raise PreconditionError(f"threshold must be finite and above 0, "
                                f"got {threshold}")
    form = normal_form(moments)
    m = form.moments
    pencil = hankel_pencil(m, k)
    verdict = _pencil_membership(m, pencil, threshold,
                                 _minor_scales(m, pencil.weights))
    return replace(verdict, witness_s=verdict.witness_s * form.variance)


def _pencil_membership(m, pencil, threshold, minor_scales):
    """``secant_membership`` on an already expanded pencil of the float
    moments ``m``, with each minor scaled by its entry of
    ``minor_scales`` (:func:`_minor_scales`, or noise levels for sample
    moments); a level of 0 leaves its minor unscaled.

    The expanded sum of squares (:func:`_sum_of_squares`) only locates
    the candidate variances: its large coefficients cancel, and so do
    those of each interpolated minor.  Every candidate is scored by the
    scaled minors themselves, evaluated at all candidates in one
    :func:`_float_minors` call.
    """
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
    taken by :func:`raw_moments`; they fill one ``n_boot x d`` stack,
    whose minors are then taken in one batched
    :func:`pencil_minor_values` call per k.  ``n_boot``, ``d`` (at least
    1) and ``seed`` (at least 0) are read as ints by
    :func:`check_integers`; others are ``PRECONDITION``.
    """
    # a standard deviation over the resamples needs two of them
    n_boot, = check_integers(2, n_boot=n_boot)
    d, = check_integers(1, d=d)
    seed, = check_integers(0, seed=seed)
    arr = ts.sample_moments(data, 1)[0].ravel()
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
    :func:`_float_minors` call per k; a minor with no noise has level 0."""
    full = np.array([1.0, *m])
    orders = np.arange(1, d + 1)
    first = full[1:d + 1]
    cov = finite_floats((full[orders[:, None] + orders]
                         - np.outer(first, first)) / count,
                        "the moment covariance", "data")
    # moment j weighs j, so each step is the moment scale to that power
    step = _DIFF_STEP * _moment_scale(m[:d]) ** orders
    diag = np.diag(step)
    rows = first + np.concatenate((diag, -diag))
    scales = {}
    for k, witness_s in witnesses.items():
        minors = _float_minors(rows, k, witness_s)
        grad = (minors[:d] - minors[d:]) / (2.0 * step[:, None])
        var = np.einsum("ia,ij,ja->a", grad, cov, grad)
        scales[k] = np.sqrt(np.maximum(var, 0.0)).tolist()
    return scales


def estimate_components_from_data(data, k_max):
    """Component count for raw observations with noise-aware thresholds.

    One blockwise pass takes the moments of the data about their mean to
    order ``2 d``, with ``d = 2 k_max + 1``, in normal form
    (:func:`sample_normal_form`): standardised, so the count depends on
    neither the origin nor the unit of the data, and no centred copy is
    made.  Each k's pencil is read twice: a first pass, its minors
    scaled as in :func:`secant_membership`, places the witness variance,
    and a second whitens each minor by its delta-method noise level
    there (:func:`_delta_scales`), making the on-model residual an
    order-nminors quantity regardless of sample size;
    ``NOISE_FACTOR * nminors`` then separates sampling noise from real
    model violation.  The witness variances are reported back in data
    units.  There is no resampling and no random number: a
    call returns the same answer every time; a pencil too large to run
    is ``PRECONDITION`` before the data are read.  Returns ``(k_hat,
    verdicts)``.
    """
    k_max, = check_integers(1, k_max=k_max)
    d = 2 * k_max + 1
    for k in range(1, k_max + 1):
        _check_pencil(d, k)
    form, count = _sample_form(data, 2 * d)
    m = form.moments[:d]
    pencils = [hankel_pencil(m, k) for k in range(1, k_max + 1)]
    witnesses = {p.k: _pencil_membership(m, p, DEFAULT_THRESHOLD,
                                         _minor_scales(m, p.weights)).witness_s
                 for p in pencils}
    scales = _delta_scales(form.moments, count, witnesses, d)
    verdicts = [_pencil_membership(m, p, NOISE_FACTOR * p.nminors, scales[p.k])
                for p in pencils]
    return component_count(verdicts), [
        replace(v, witness_s=v.witness_s * form.variance) for v in verdicts]
