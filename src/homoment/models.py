"""Parameters of a homoscedastic Gaussian mixture (a Gaussian is its k =
1 case, a Dirac mixture its zero-covariance case) and of the symmetric
Laplace law, and their truncated moment/cumulant series.

Forward maps are written in plain generic arithmetic (no numpy) so they
accept ``Fraction`` entries for exact work and ``float`` entries for
estimation.  Only :func:`sample_mixture` touches numpy.

Both parameter families read their fields by one type rule
(:func:`_promote_fields`), then check them once (:func:`_check`): their
shapes, then that no float entry is NaN or infinite (``INPUT_PARSE``),
then weights summing to one and a symmetric covariance.  Exact entries
compare exactly, and a float within a relative tolerance (:func:`_equal`).
"""

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import series as ts
from .errors import (DimensionMismatchError, InputError, PreconditionError,
                     check_integers)

_WEIGHT_TOL = 1e-8

# rows per block when the sampler adds the component means in place
_SAMPLE_BLOCK = 16384


def _promote_fields(params, **depths):
    """Each named field of ``params`` as nested tuples ``depth`` deep
    (1: a vector, 2: a list of vectors): the one type rule of the
    families.  A field nests in lists, tuples or numpy arrays to its
    depth, and each entry is a real number (``numbers.Real`` but not a
    bool, a numpy scalar read as the number it holds); else
    ``INPUT_PARSE``.  Ints are made ``Fraction``, other rationals kept and
    other reals made float, so every float entry is a Python float."""
    def promote(value, depth):
        if isinstance(value, (np.ndarray, np.generic)):
            value = value.tolist()
        if depth and isinstance(value, (list, tuple)):
            return tuple(promote(x, depth - 1) for x in value)
        if depth or isinstance(value, bool) or not isinstance(
                value, numbers.Real):
            raise InputError(f"parameter field {name!r} must be a list "
                             f"{'of lists ' * (depths[name] - 1)}of numbers",
                             code="INPUT_PARSE")
        return (ts._promote(value) if isinstance(value, numbers.Rational)
                else float(value))

    for name, depth in depths.items():
        object.__setattr__(params, name, promote(getattr(params, name), depth))


def _equal(reference, value):
    """``value == reference`` when both are exact; with a float on either
    side, within ``_WEIGHT_TOL`` relative to max(1, |reference|)."""
    if isinstance(reference, float) or isinstance(value, float):
        return (abs(float(value) - float(reference))
                <= _WEIGHT_TOL * max(1.0, abs(float(reference))))
    return value == reference


def _check(points, weights, cov):
    """The one rule of every parameter family, in this order: the shapes
    of ``points`` (n >= 1 coordinates, one weight each) and of the
    ``n x n`` ``cov`` (:class:`DimensionMismatchError`), then every float
    entry finite (``INPUT_PARSE``; the weight sum would call a non-finite
    weight a precondition), then weights summing to one and a symmetric
    covariance (:class:`PreconditionError`)."""
    if len(points) != len(weights) or not points:
        raise DimensionMismatchError("need one weight per point")
    n = len(points[0])
    if not n or any(len(p) != n for p in points):
        raise DimensionMismatchError("points must share a positive dimension")
    if len(cov) != n or any(len(row) != n for row in cov):
        raise DimensionMismatchError(f"covariance must be {n} x {n}")
    if not all(math.isfinite(x) for x in sum(points + cov, weights)
               if isinstance(x, float)):
        raise InputError("parameters must be finite", code="INPUT_PARSE")
    total = sum(weights[1:], weights[0])
    if not _equal(1, total):
        raise PreconditionError(f"weights sum to {total}, not 1")
    if not all(_equal(cov[i][j], cov[j][i])
               for i in range(n) for j in range(i + 1, n)):
        raise PreconditionError("covariance must be symmetric")


@dataclass(frozen=True)
class HomoscedasticParams:
    """Gaussian mixture with one shared covariance matrix."""

    means: tuple
    weights: tuple
    cov: tuple

    def __post_init__(self):
        _promote_fields(self, means=2, weights=1, cov=2)
        _check(self.means, self.weights, self.cov)

    @property
    def nvars(self):
        return len(self.means[0])

    def as_dict(self):
        return {"k": len(self.weights), "n": self.nvars,
                "weights": [float(w) for w in self.weights],
                "means": [[float(x) for x in m] for m in self.means],
                "cov": [[float(x) for x in row] for row in self.cov]}

    @classmethod
    def from_dict(cls, data):
        """Parameters from parsed JSON: anything but an object is
        ``INPUT_PARSE`` and a missing field a precondition; the fields
        are read by the rule of every family (:func:`_promote_fields`)."""
        if not isinstance(data, dict):
            raise InputError("parameters must be a JSON object",
                             code="INPUT_PARSE")
        for key in ("means", "weights", "cov"):
            if key not in data:
                raise PreconditionError(f"missing parameter field {key!r}")
        return cls(means=data["means"], weights=data["weights"],
                   cov=data["cov"])


@dataclass(frozen=True)
class LaplaceParams:
    """Symmetric multivariate Laplace location/covariance parameters."""

    location: tuple
    cov: tuple

    def __post_init__(self):
        _promote_fields(self, location=1, cov=2)
        _check((self.location,), (1,), self.cov)


# ----------------------------------------------------------------------
# forward maps


def _quadratic_series(cov, degree):
    # the quadratic form u^t Sigma u / 2 in generating coefficients: the
    # index e_i + e_j carries Sigma_ij, halved on the diagonal, from degree 2
    n = len(cov)
    return ts.TruncatedSeries(n, degree, {
        tuple((t == i) + (t == j) for t in range(n)):
            cov[i][i] / 2 if i == j else cov[i][j]
        for i in range(n) for j in range(i, n) if degree > 1})


def _atom_moments(points, weights, degree):
    # w p^a is its parent's term times p_c (the left fold w p_1^a_1 ...
    # p_n^a_n), summed over the atoms; the weights sum to one (checked)
    nvars = len(points[0])
    table = ts.index_table(nvars, degree)
    terms = [weights]
    for parent, c in zip(table.parent[1:].tolist(), table.column[1:].tolist()):
        terms.append([t * p[c] for t, p in zip(terms[parent], points)])
    return ts.TruncatedSeries.from_moments(nvars, degree, zip(
        table.indices[1:], [reduce(add, row) for row in terms[1:]]))


def homoscedastic_moments(params, degree):
    """Moment series of a homoscedastic Gaussian mixture.

    The mixture is the law of ``Z + B`` with ``Z`` a centered Gaussian and
    ``B`` an independent Dirac mixture on the means, so its series is the
    product of the two factors.  This factorization is the implementation,
    on the fields that the parameters have checked.
    """
    gauss = ts.exp(_quadratic_series(params.cov, degree))
    return gauss * _atom_moments(params.means, params.weights, degree)


def homoscedastic_cumulants(params, degree):
    """Cumulant series (log of the moment series) of the mixture."""
    return ts.log(homoscedastic_moments(params, degree))


def laplace_moments(params, degree):
    """Moment series exp(u^t mu) / (1 - u^t Sigma u / 2), truncated: the
    series of an atom at mu times a geometric series."""
    quad = _quadratic_series(params.cov, degree)
    geometric = ts.TruncatedSeries.one(len(params.location), degree)
    power = geometric
    for _ in range(degree // 2):
        power = power * quad
        geometric = geometric + power
    return _atom_moments((params.location,), (1,), degree) * geometric


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
    """Draw ``count`` i.i.d. observations, deterministic for a given
    nonnegative integer seed.  ``count`` (at least 1) and ``seed`` (at
    least 0) are read as ints by :func:`check_integers` (a numpy integer
    or a bool is one); others, and a ``count`` whose draws numpy cannot
    size or memory cannot hold, are ``PreconditionError``.

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
    count, = check_integers(1, count=count)
    seed, = check_integers(0, seed=seed)
    weights = np.asarray([float(w) for w in params.weights])
    means = np.asarray([[float(x) for x in m] for m in params.means])
    cov = np.asarray([[float(x) for x in row] for row in params.cov])
    if np.any(weights < 0):
        raise PreconditionError("sampling requires nonnegative weights")
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    factor = _psd_factor(cov)
    try:
        if count * params.nvars * 8 > np.iinfo(np.intp).max:
            raise MemoryError
        rng = np.random.default_rng(seed)
        u = rng.random(count)
        labels = np.zeros(count, dtype=np.min_scalar_type(len(weights)))
        for edge in cdf[:-1]:
            labels += u >= edge
        del u
        draws = rng.standard_normal((count, params.nvars)) @ factor.T
    except MemoryError:
        raise PreconditionError(f"count is too large to draw, got {count}"
                                ) from None
    for start in range(0, count, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        draws[block] += means[labels[block]]
    return draws
