"""Parameter families and their truncated moment/cumulant series.

Forward maps are written in plain generic arithmetic (no numpy) so they
accept ``Fraction`` entries for exact work and ``float`` entries for
estimation.  Only :func:`sample_mixture` touches numpy.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import series as ts
from .errors import DimensionMismatchError, InputError, PreconditionError

_WEIGHT_TOL = 1e-8

# rows per block when the sampler adds the component means in place
_SAMPLE_BLOCK = 16384


def _is_float(x):
    return isinstance(x, (float, np.floating))


def _vector(v):
    return tuple(ts._promote(x) for x in v)


def _matrix(m):
    return tuple(tuple(ts._promote(x) for x in row) for row in m)


def _check_weights(weights):
    total = sum(weights[1:], weights[0])
    if any(_is_float(w) for w in weights):
        if abs(float(total) - 1.0) > _WEIGHT_TOL:
            raise PreconditionError(f"weights sum to {float(total)}, not 1")
    elif total != 1:
        raise PreconditionError(f"weights sum to {total}, not 1")


def _check_symmetric(cov):
    n = len(cov)
    if any(len(row) != n for row in cov):
        raise DimensionMismatchError("covariance must be square")
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cov[i][j], cov[j][i]
            if _is_float(a) or _is_float(b):
                if abs(float(a) - float(b)) > _WEIGHT_TOL * max(1.0, abs(float(a))):
                    raise PreconditionError("covariance must be symmetric")
            elif a != b:
                raise PreconditionError("covariance must be symmetric")


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and symmetric covariance matrix."""

    mean: tuple
    cov: tuple

    def __post_init__(self):
        object.__setattr__(self, "mean", _vector(self.mean))
        object.__setattr__(self, "cov", _matrix(self.cov))
        if len(self.cov) != len(self.mean):
            raise DimensionMismatchError("mean and covariance sizes differ")
        _check_symmetric(self.cov)

    @property
    def nvars(self):
        return len(self.mean)


@dataclass(frozen=True)
class DiracMixtureParams:
    """Finitely supported distribution: atoms with weights summing to 1."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(_vector(p) for p in self.points))
        object.__setattr__(self, "weights", _vector(self.weights))
        if len(self.points) != len(self.weights) or not self.points:
            raise DimensionMismatchError("need one weight per point")
        n = len(self.points[0])
        if any(len(p) != n for p in self.points):
            raise DimensionMismatchError("points must share a dimension")
        _check_weights(self.weights)

    @property
    def nvars(self):
        return len(self.points[0])

    @property
    def ncomponents(self):
        return len(self.weights)


@dataclass(frozen=True)
class CenteredDiracParams(DiracMixtureParams):
    """Dirac mixture whose weighted mean is zero."""

    def __post_init__(self):
        super().__post_init__()
        for j in range(self.nvars):
            total = sum(w * p[j] for w, p in zip(self.weights, self.points))
            if _is_float(total):
                if abs(float(total)) > _WEIGHT_TOL:
                    raise PreconditionError("mixture mean is not zero")
            elif total != 0:
                raise PreconditionError("mixture mean is not zero")


@dataclass(frozen=True)
class HomoscedasticParams:
    """Gaussian mixture with one shared covariance matrix."""

    means: tuple
    weights: tuple
    cov: tuple

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(_vector(m) for m in self.means))
        object.__setattr__(self, "weights", _vector(self.weights))
        object.__setattr__(self, "cov", _matrix(self.cov))
        if len(self.means) != len(self.weights) or not self.means:
            raise DimensionMismatchError("need one weight per mean")
        n = len(self.means[0])
        if any(len(m) != n for m in self.means) or len(self.cov) != n:
            raise DimensionMismatchError("inconsistent dimensions")
        # before the sum check, which a NaN weight would pass and an
        # infinite one fail as a precondition
        entries = self.weights + sum(self.means + self.cov, ())
        if not all(math.isfinite(x) for x in entries if _is_float(x)):
            raise InputError("weights, means and covariance must be finite",
                             code="INPUT_PARSE")
        _check_weights(self.weights)
        _check_symmetric(self.cov)

    @property
    def nvars(self):
        return len(self.means[0])

    @property
    def ncomponents(self):
        return len(self.weights)

    def as_dict(self):
        return {
            "k": self.ncomponents,
            "n": self.nvars,
            "weights": [float(w) for w in self.weights],
            "means": [[float(x) for x in m] for m in self.means],
            "cov": [[float(x) for x in row] for row in self.cov],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(means=data["means"], weights=data["weights"],
                       cov=data["cov"])
        except KeyError as exc:
            raise PreconditionError(f"missing parameter field {exc}") from exc


@dataclass(frozen=True)
class LaplaceParams:
    """Symmetric multivariate Laplace location/covariance parameters."""

    location: tuple
    cov: tuple

    def __post_init__(self):
        object.__setattr__(self, "location", _vector(self.location))
        object.__setattr__(self, "cov", _matrix(self.cov))
        if len(self.cov) != len(self.location):
            raise DimensionMismatchError("location and covariance sizes differ")
        _check_symmetric(self.cov)

    @property
    def nvars(self):
        return len(self.location)


# ----------------------------------------------------------------------
# forward maps


def _unit(n, j):
    return tuple(1 if t == j else 0 for t in range(n))


def _linear_series(vec, degree):
    n = len(vec)
    return ts.TruncatedSeries(n, degree,
                              {_unit(n, j): vec[j] for j in range(n)})


def _quadratic_series(cov, degree):
    # the quadratic form u^t Sigma u / 2 in generating coefficients
    n = len(cov)
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            if i == j:
                idx = tuple(2 if t == i else 0 for t in range(n))
                coeffs[idx] = ts._promote(cov[i][i]) / 2
            else:
                idx = tuple(1 if t in (i, j) else 0 for t in range(n))
                coeffs[idx] = cov[i][j]
    return ts.TruncatedSeries(n, degree, coeffs)


def gaussian_moments(params, degree):
    """Moment series of one Gaussian: exp of its quadratic cumulants."""
    cum = _linear_series(params.mean, degree) + _quadratic_series(params.cov, degree)
    return ts.exp(cum)


def dirac_mixture_moments(params, degree):
    """Moment series of a Dirac mixture: raw moments are weighted monomials."""
    n = params.nvars
    coeffs = {}
    for a in ts.multi_indices(n, degree):
        if sum(a) == 0:
            total = sum(params.weights[1:], params.weights[0])
            coeffs[a] = Fraction(1) if _is_float(total) else total
            continue
        acc = None
        for w, p in zip(params.weights, params.points):
            term = w
            for j, e in enumerate(a):
                for _ in range(e):
                    term = term * p[j]
            acc = term if acc is None else acc + term
        coeffs[a] = acc / ts.index_factorial(a)
    return ts.TruncatedSeries(n, degree, coeffs)


def homoscedastic_moments(params, degree):
    """Moment series of a homoscedastic Gaussian mixture.

    The mixture is the law of ``Z + B`` with ``Z`` a centered Gaussian and
    ``B`` an independent Dirac mixture on the means, so its series is the
    product of the two factors.  This factorization is the implementation.
    """
    gauss = gaussian_moments(
        GaussianParams(mean=(0,) * params.nvars, cov=params.cov), degree)
    atoms = DiracMixtureParams(points=params.means, weights=params.weights)
    return gauss * dirac_mixture_moments(atoms, degree)


def homoscedastic_cumulants(params, degree):
    """Cumulant series (log of the moment series) of the mixture."""
    return ts.log(homoscedastic_moments(params, degree))


def dirac_higher_cumulants(params, degree):
    """Cumulants of order three and up of a centered Dirac mixture.

    Orders one and two of a homoscedastic mixture absorb arbitrary
    translations and covariance shifts, so the identifiable content of
    the mixture's cumulants starts at order three; this is that graded
    slice of the log series.
    """
    if not isinstance(params, CenteredDiracParams):
        params = CenteredDiracParams(points=params.points, weights=params.weights)
    return ts.log(dirac_mixture_moments(params, degree)).graded(3)


def laplace_moments(params, degree):
    """Moment series exp(u^t mu) / (1 - u^t Sigma u / 2), truncated."""
    quad = _quadratic_series(params.cov, degree)
    geometric = ts.TruncatedSeries.one(params.nvars, degree)
    power = geometric
    for _ in range(degree // 2):
        power = power * quad
        geometric = geometric + power
    return ts.exp(_linear_series(params.location, degree)) * geometric


# ----------------------------------------------------------------------
# sampling


def _psd_factor(cov):
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.min(vals) < -1e-9 * scale:
            raise PreconditionError("covariance is not positive semidefinite")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_mixture(params, count, seed):
    """Draw ``count`` i.i.d. observations, deterministic for a given seed.

    The result is, to the bit, ``means[labels] + noise @ factor.T`` with
    ``labels = rng.choice(k, count, p=weights / weights.sum())`` and
    ``noise = rng.standard_normal((count, n))`` drawn next, but no more
    than the noise, its product and a byte of label per row is held at
    once.  ``choice`` draws ``u = rng.random(count)`` (even at k = 1)
    and returns ``searchsorted(cdf, u, side="right")``, ``cdf`` being
    the cumulative sum of ``p`` divided by its last entry.  That entry
    is 1.0 and u < 1, so the label is the number of the first k - 1
    entries at or below u, summed here one comparison at a time.  The
    noise is transformed in one matmul: BLAS may round a differently
    shaped slice, such as a one-row tail, in the last bit.  The means
    are then added in place a block of rows at a time; addition
    commutes, so the sum is unchanged.  ``params`` is finite
    (:class:`HomoscedasticParams` rejects a NaN or infinite entry): a
    NaN entry of ``cdf`` would give every row label 0 where ``choice``
    raised.
    """
    if count < 1:
        raise PreconditionError("count must be positive")
    weights = np.asarray([float(w) for w in params.weights])
    means = np.asarray([[float(x) for x in m] for m in params.means])
    cov = np.asarray([[float(x) for x in row] for row in params.cov])
    if np.any(weights < 0):
        raise PreconditionError("sampling requires nonnegative weights")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    factor = _psd_factor(cov)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    labels = np.zeros(count, dtype=np.min_scalar_type(len(weights)))
    for edge in cdf[:-1]:
        labels += u >= edge
    del u
    draws = rng.standard_normal((count, params.nvars)) @ factor.T
    for start in range(0, count, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        draws[block] += means[labels[block]]
    return draws
