"""Dimensions and defects of homoscedastic secant moment varieties.

The dimension of a parametrized variety equals the rank of the Jacobian
of its parametrization at a general point.  Every parametrization here
is a moment series M = F * sum_i w_i E_i with E_i = exp(p_i.u) for the
atoms (or means) p_i, F = exp(u'Su/2) for a Gaussian mixture with
covariance S and F = 1 for a Dirac mixture.  Its tangents are series in
closed form:

    dM/dp_ij = w_i u_j E_i F
    dM/dw_i  = (E_i - E_k) F     (i < k; the last weight is 1 - sum w_i)
    dM/dS_ij = u_i u_j M         (halved for i = j)

Ranks are computed exactly: the rational Jacobian at a random integer
point is read off these series with ``Fraction`` arithmetic and ranked
over GF(p), with its own prime below 2**31 for each point.  The rank mod
p of the Jacobian at a point is at most its rank over Q, which is at
most the generic rank, so every point gives a certified lower bound.  By
the Schwartz-Zippel lemma the bound is sharp with overwhelming
probability, so reports take the maximum over at least two points and
draw a third when the first two disagree.

The module also carries two pieces of reference data: the published
classification table of the order-3 homoscedastic secants for up to
seven variables, and the classical list of defective Veronese secants.
Both are inputs this artifact checks against, not results it derives.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import models
from . import series as ts
from .errors import PreconditionError
from .exactla import PRIMES, rank

MAX_N = 8
MAX_D = 6
MAX_K = 12
MAX_K_VERONESE = 14
COORD_BOUND = 1000


def parameter_count(n, k):
    """dim of the mixture parameter space: nk + (k-1) + n(n+1)/2."""
    return n * k + (k - 1) + n * (n + 1) // 2


def ambient_dim(n, d):
    """Number of moment coordinates of order 1..d."""
    num = 1
    den = 1
    for i in range(1, d + 1):
        num *= n + i
        den *= i
    return num // den - 1


def check_envelope(n, k, d, k_max=MAX_K):
    """Raise PreconditionError unless (n, k, d) is a cell exact rank covers."""
    if not (1 <= n <= MAX_N and 1 <= k <= k_max and 1 <= d <= MAX_D):
        raise PreconditionError(
            f"(n={n}, k={k}, d={d}) outside the supported envelope "
            f"n<={MAX_N}, k<={k_max}, d<={MAX_D}")


def _mix_seed(seed, n, k, d, trial):
    # deterministic per-cell stream so concurrent table fills reproduce
    return (seed * 1_000_003 + n * 9_176 + k * 613 + d * 89 + trial) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Jacobians at exact points


def _moment_columns(n, d, lowest=1):
    return [a for a in ts.multi_indices(n, d) if sum(a) >= lowest]


def _draw(rng, count):
    return [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(count)]


def _chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


def _all_weights(free):
    """The free weights and the last one, eliminated as one minus their sum."""
    return free + [1 - sum(free)]


def _symmetric(upper, n):
    """Symmetric n x n matrix from its upper triangle in row-major order."""
    entries = iter(upper)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(entries)
    return m


def _lowered(indices, j):
    """a - e_j for each index a, or None where a_j = 0 (or a is None):
    (u_j S)[a] = S[a - e_j], and no coefficient dict holds None."""
    return [a[:j] + (a[j] - 1,) + a[j + 1:] if a and a[j] else None
            for a in indices]


def _atom(point, degree):
    """E = exp(p.u), the moment series of one atom at p."""
    atom = models.DiracMixtureParams(points=[point], weights=[1])
    return models.dirac_mixture_moments(atom, degree)


def _tangent_rows(weights, terms, cols):
    """Rows dM/dp_ij, then dM/dw_i for i < k, at the columns ``cols``;
    ``terms`` are the coefficient dicts of E_i F."""
    down = [_lowered(cols, j) for j in range(len(cols[0]))]
    rows = [[w * t.get(b, 0) for b in shifted]
            for w, t in zip(weights, terms) for shifted in down]
    last = terms[-1]
    rows += [[t.get(a, 0) - last.get(a, 0) for a in cols] for t in terms[:-1]]
    return rows


def moment_map_jacobian(params, degree):
    """Exact Jacobian of all moment coordinates of order 1..degree.

    Rows follow the free parameters: the k*n mean coordinates, the first
    k-1 weights (the last weight is eliminated as one minus their sum),
    then the upper triangle of the covariance.  Entries are Fractions or
    ints.  ``params`` must have rational entries.
    """
    n = params.nvars
    cols = _moment_columns(n, degree)
    gauss = models.gaussian_moments(
        models.GaussianParams(mean=(0,) * n, cov=params.cov), degree)
    terms = [dict((_atom(mean, degree) * gauss).items())
             for mean in params.means]
    rows = _tangent_rows(params.weights, terms, cols)
    # the covariance rows read M only up to order degree - 2
    moments = {a: sum(w * t.get(a, 0) for w, t in zip(params.weights, terms))
               for a in ts.multi_indices(n, degree - 2)}
    down = [_lowered(cols, j) for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            scale = Fraction(1, 2) if i == j else 1
            rows.append([scale * moments.get(b, 0)
                         for b in _lowered(down[i], j)])
    return rows


def _mixture_jacobian(n, k, d, rng):
    while True:
        means = _chunks(_draw(rng, k * n), n)
        if len(set(map(tuple, means))) == k:
            break
    weights = _all_weights(_draw(rng, k - 1))
    if 0 in weights:
        return _mixture_jacobian(n, k, d, rng)
    cov = _symmetric(_draw(rng, n * (n + 1) // 2), n)
    params = models.HomoscedasticParams(means=means, weights=weights, cov=cov)
    return moment_map_jacobian(params, d)


def _centered_jacobian(n, k, d, rng):
    # free coordinates of the centered atom space: k-1 atoms and k-1
    # weights; the last weight and atom are eliminated by the constraints
    values = _draw(rng, (k - 1) * (n + 1))
    if sum(values[(k - 1) * n:]) == 1:  # the last weight would be zero
        return _centered_jacobian(n, k, d, rng)
    points = _chunks(values[:(k - 1) * n], n)
    weights = _all_weights(values[(k - 1) * n:])
    last = [Fraction(-sum(w * p[j] for w, p in zip(weights, points)),
                     weights[-1]) for j in range(n)]
    # with p_k = -sum_i w_i p_i / w_k, the moment series D = sum_i w_i E_i
    # has tangents dD/dp_ij = w_i u_j (E_i - E_k) and dD/dw_i = E_i - E_k
    # + sum_j (p_kj - p_ij) u_j E_k; those of log D are D^-1 times them
    atoms = [dict(_atom(p, d).items()) for p in points + [last]]
    e_k = atoms[-1]
    cols = _moment_columns(n, d)
    down = [_lowered(cols, j) for j in range(n)]
    rows = [[w * (e.get(b, 0) - e_k.get(b, 0)) for b in shifted]
            for w, e in zip(weights[:-1], atoms) for shifted in down]
    rows += [[e.get(a, 0) - e_k.get(a, 0)
              + sum((q - x) * e_k.get(b, 0) for q, x, b in zip(last, p, lower))
              for a, *lower in zip(cols, *down)]
             for p, e in zip(points, atoms)]
    inverse = ts.exp(-ts.log(models.dirac_mixture_moments(
        models.DiracMixtureParams(points=points + [last], weights=weights), d)))
    tangents = [dict((ts.TruncatedSeries(n, d, dict(zip(cols, row))) * inverse)
                     .items()) for row in rows]
    cumulant_cols = _moment_columns(n, d, lowest=3)
    return [[t.get(a, 0) for a in cumulant_cols] for t in tangents]


def _veronese_jacobian(n, k, d, rng):
    values = _draw(rng, k * n + k - 1)
    terms = [dict(_atom(p, d).items()) for p in _chunks(values[:k * n], n)]
    return _tangent_rows(_all_weights(values[k * n:]), terms,
                         _moment_columns(n, d))


def _generic_rank(jacobian_at, seed, n, k, d):
    def rank_at(trial):
        rng = random.Random(_mix_seed(seed, n, k, d, trial))
        return rank(jacobian_at(n, k, d, rng), PRIMES[trial])

    ranks = [rank_at(0), rank_at(1)]
    if ranks[0] != ranks[1]:
        ranks.append(rank_at(2))
    return max(ranks), len(ranks)


# ----------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DefectReport:
    """One dimension/defect row for a secant variety."""

    n: int
    k: int
    d: int
    par: int          # parameter space dimension
    ambient: int      # moment space dimension
    expected: int     # min(par, ambient)
    dim: int          # computed variety dimension
    fiber_dim: int    # par - dim
    defect: int       # fiber_dim - max(par - ambient, 0)
    points: int       # random points evaluated
    seed: int

    def as_row(self):
        return (self.n, self.k, self.d, self.par, self.ambient,
                self.expected, self.dim, self.defect, self.fiber_dim)

    def as_dict(self):
        return {
            "n": self.n, "k": self.k, "d": self.d, "par": self.par,
            "ambient": self.ambient, "expected": self.expected,
            "dim": self.dim, "defect": self.defect,
            "fiber_dim": self.fiber_dim, "points": self.points,
            "seed": self.seed,
        }


def _report(n, k, d, par, jacobian_at, seed):
    ambient = ambient_dim(n, d)
    dim, points = _generic_rank(jacobian_at, seed, n, k, d)
    fiber = par - dim
    return DefectReport(n=n, k=k, d=d, par=par, ambient=ambient,
                        expected=min(par, ambient), dim=dim, fiber_dim=fiber,
                        defect=fiber - max(par - ambient, 0),
                        points=points, seed=seed)


def defect_report(n, k, d, seed=0):
    """Classify the (n, k, d) homoscedastic secant by exact generic rank."""
    check_envelope(n, k, d)
    return _report(n, k, d, parameter_count(n, k), _mixture_jacobian, seed)


def centered_cumulant_rank(n, k, d, seed=0):
    """Generic rank of the order >= 3 cumulant map on centered atoms.

    The mixture fiber dimension equals (k-1)(n+1) minus this rank, which
    cross-checks :func:`defect_report` on a much smaller Jacobian.
    """
    check_envelope(n, k, d)
    if k == 1:
        return 0
    return _generic_rank(_centered_jacobian, seed, n, k, d)[0]


def veronese_report(n, k, d, seed=0):
    """Dimension data for the k-secant of the Dirac moment variety."""
    check_envelope(n, k, d, k_max=MAX_K_VERONESE)
    return _report(n, k, d, n * k + k - 1, _veronese_jacobian, seed)


# ----------------------------------------------------------------------
# closed-form order-3 classification and reference data


def predicted_defect_order3(n, k):
    """Closed-form defect of the order-3 homoscedastic secant.

    Case analysis: two and three/four component mixtures in enough
    variables are always defective, (5, 7) is sporadic, and for n >= 4
    there is a defective band just above k = n + 1.
    """
    if n < 1 or k < 1:
        raise PreconditionError("n and k must be positive")
    if k == 1:
        return 0
    if k == 2 and n >= 2:
        return 1
    if k in (3, 4) and n >= k:
        return 2
    if (n, k) == (5, 7):
        return 1
    if n >= 4:
        six_lo = n * n + 2 * n + 6
        six_hi = n * n + 3 * n + 2
        if 6 * (n + 1) < 6 * k <= six_lo:
            return k - n - 1
        if six_lo <= 6 * k < six_hi:
            # n * (six_hi/6 - k); six_hi = (n+1)(n+2) is divisible by 6
            # exactly when the band is nonempty, keep it in integers
            return n * six_hi // 6 - n * k
    return 0


# Published classification of the order-3 secants for n = 1..7.
# Columns: n, k, d, par, ambient, expected, dim, defect, fiber_dim.
ORDER3_TABLE = (
    (1, 1, 3, 2, 3, 2, 2, 0, 0),
    (1, 2, 3, 4, 3, 3, 3, 0, 1),
    (2, 2, 3, 8, 9, 8, 7, 1, 1),
    (2, 3, 3, 11, 9, 9, 9, 0, 2),
    (3, 2, 3, 13, 19, 13, 12, 1, 1),
    (3, 3, 3, 17, 19, 17, 15, 2, 2),
    (3, 4, 3, 21, 19, 19, 19, 0, 2),
    (4, 2, 3, 19, 34, 19, 18, 1, 1),
    (4, 3, 3, 24, 34, 24, 22, 2, 2),
    (4, 4, 3, 29, 34, 29, 27, 2, 2),
    (4, 5, 3, 34, 34, 34, 34, 0, 0),
    (5, 2, 3, 26, 55, 26, 25, 1, 1),
    (5, 3, 3, 32, 55, 32, 30, 2, 2),
    (5, 4, 3, 38, 55, 38, 36, 2, 2),
    (5, 5, 3, 44, 55, 44, 44, 0, 0),
    (5, 6, 3, 50, 55, 50, 50, 0, 0),
    (5, 7, 3, 56, 55, 55, 54, 1, 2),
    (6, 2, 3, 34, 83, 34, 33, 1, 1),
    (6, 3, 3, 41, 83, 41, 39, 2, 2),
    (6, 4, 3, 48, 83, 48, 46, 2, 2),
    (6, 5, 3, 55, 83, 55, 55, 0, 0),
    (6, 6, 3, 62, 83, 62, 62, 0, 0),
    (6, 7, 3, 69, 83, 69, 69, 0, 0),
    (6, 8, 3, 76, 83, 76, 75, 1, 1),
    (6, 9, 3, 83, 83, 83, 81, 2, 2),
    (7, 2, 3, 43, 119, 43, 42, 1, 1),
    (7, 3, 3, 51, 119, 51, 49, 2, 2),
    (7, 4, 3, 59, 119, 59, 57, 2, 2),
    (7, 5, 3, 67, 119, 67, 67, 0, 0),
    (7, 6, 3, 75, 119, 75, 75, 0, 0),
    (7, 7, 3, 83, 119, 83, 83, 0, 0),
    (7, 8, 3, 91, 119, 91, 91, 0, 0),
    (7, 9, 3, 99, 119, 99, 98, 1, 1),
    (7, 10, 3, 107, 119, 107, 105, 2, 2),
    (7, 11, 3, 115, 119, 115, 112, 3, 3),
    (7, 12, 3, 123, 119, 119, 119, 0, 4),
)


def order3_reference_row(n, k):
    """The published order-3 row for (n, k), or None if not tabulated."""
    for row in ORDER3_TABLE:
        if row[0] == n and row[1] == k:
            return row
    return None


def default_k_range(n, d=3):
    """Component counts tabulated for dimension n: from 1 (n = 1) or 2 up
    to the first k whose parameter count reaches the ambient dimension."""
    ambient = ambient_dim(n, d)
    k = 1 if n == 1 else 2
    ks = []
    while True:
        ks.append(k)
        if parameter_count(n, k) >= ambient:
            return ks
        k += 1


# Defective Veronese secants (classical classification), keyed by
# (n, d, k) with the sporadic defects all equal to one; for d = 2 the
# fiber dimension is k(k-1)/2 whenever 2 <= k <= n.
VERONESE_SPORADIC = ((2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14))


def veronese_expected(n, k, d):
    """Expected (fiber_dim, defect) of the Veronese k-secant from the
    classical defectivity list."""
    base = max(n * k + k - 1 - ambient_dim(n, d), 0)
    if d == 2 and 2 <= k <= n:
        fiber = k * (k - 1) // 2
        return fiber, fiber - base
    if (n, d, k) in VERONESE_SPORADIC:
        return base + 1, 1
    return base, 0
