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

Reports rank a smaller block of the same rank.  Multiplying the tangents
(zero constant term) by the unit series M^-1 is unitriangular on their
coefficients and gives the tangents of log M = log D + u'Su/2, with
D = sum_i w_i E_i.  Trading the directions dM/dp_kj for the n
translations sum_i dM/dp_ij is a change of parameters of determinant 1.
A translation then gives u_j (order 1 only) and a covariance entry
u_i u_j (order 2 only), so the Jacobian J is block-triangular:

    rank J = n + n(n+1)/2 + rank B,

B holding the rows w_i u_j E_i / D and (E_i - E_k) / D (i < k) at orders
>= 3.  For a Dirac mixture rank J = n + the rank of those rows at orders
>= 2; a mixture at d = 1 splits off only n.

Ranks are computed exactly.  A random point, for both families, is one
draw of integer atoms and weights in [-COORD_BOUND, COORD_BOUND] from a
``random.Random`` seeded by ``_mix_seed(seed, n, k, d, trial)``, the
last weight one minus the others' sum, redrawn until the atoms are
distinct and every weight is nonzero (``_point``).  At each point B is
read off these series as residues mod a prime p below 2**26
(``exactla.PRIMES``), its own prime for each point, and ranked over
GF(p).  The atoms are first centred at their weighted mean mod p: E_i / D
does not move when every atom moves by the same vector, and the centred
D has no order-1 term, so 1 - D starts at order 2 and D^-1 =
sum_j (1 - D)^j needs only the j <= d/2 (at d = 3, D^-1 = 2 - D).
Series live in numpy int64 arrays of generating coefficients m_a / a!
on ``series.index_table``, the one table of multi-indices every series
shares.  E_i[a] is E_i at the parent a - e_c (c the last nonzero
coordinate of a) times p_ic / a_c; the products E_i D^-1 (E_i F in
``moment_map_jacobian``) and the powers of 1 - D sum over the table's
index pairs (b, a - b) and reduce once per coefficient, as in
``exactla``: each term, a product of two residues, is below
(p - 1)**2 < 2**52, and an index a has prod_j (a_j + 1) pairs, at most
64 for n <= 8 and d <= 6, so every sum stays below 2**58.  Rows come
from shifts on its ``down`` map, (u_j S)[a] = S[a - e_j], and the
covariance rows u_i u_j M from two.  What these steps need of (n, d, p)
alone is built once (``_plan``), which checks the bound.

This is sound because every denominator is a unit mod p: it divides a
product of factorials e! with e <= d <= 6 and powers of 2, and D^-1 adds
none; ``_inverse`` raises on a non-unit.  The split holds mod p too: M^-1
is a unit series, the change of parameters is unimodular and the
split-off diagonal (1 and 1/2) is made of units.  So a point's rank is
that of the rational Jacobian reduced mod p: at most the rank over Q,
which is at most the generic rank, a certified lower bound.  A row's
upper bound is the dimension count min(par, ambient), the count split
off plus min(rows, cols) of B, or for a mixture at d = 3 the paper's
order-3 theorem: that less ``predicted_defect_order3``.  A point whose
rank meets it settles the row alone.  Otherwise (a rank above it
disproves the theorem, and ``--check`` says so) by Schwartz-Zippel the
maximum over two points, or three when the first two disagree, is the
generic rank with overwhelming probability.

The module also carries the published classification table of the
order-3 homoscedastic secants for up to seven variables: an input this
artifact checks against, not a result it derives.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, check_integers
from .exactla import PRIMES, rank
from .series import IndexTable, index_table

MAX_N = 8
MAX_D = 6
MAX_K = 15  # the last k of default_k_range(MAX_N, 3)
COORD_BOUND = 1000


def parameter_count(n, k):
    """dim of the mixture parameter space: nk + (k-1) + n(n+1)/2."""
    return n * k + (k - 1) + n * (n + 1) // 2


def ambient_dim(n, d):
    """Number of moment coordinates of order 1..d."""
    return comb(n + d, d) - 1


def check_envelope(n, k, d, seed=0):
    """``(n, k, d, seed)`` as ints (:func:`check_integers`), (n, k, d) a
    cell exact rank covers; anything else is PreconditionError."""
    n, k, d, seed = check_integers(n=n, k=k, d=d, seed=seed)
    if not (1 <= n <= MAX_N and 1 <= k <= MAX_K and 1 <= d <= MAX_D):
        raise PreconditionError(
            f"(n={n}, k={k}, d={d}) outside the supported envelope "
            f"n<={MAX_N}, k<={MAX_K}, d<={MAX_D}")
    return n, k, d, seed


def _mix_seed(seed, n, k, d, trial):
    # one stream per cell: a row does not depend on which rows share its table
    return (seed * 1_000_003 + n * 9_176 + k * 613 + d * 89 + trial) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# Jacobians at exact points, as residues mod p


def _inverse(x, p):
    """x^-1 mod p.  Every denominator of a Jacobian entry is inverted
    here, so one that is not a unit mod p raises instead of being
    reduced."""
    if x % p == 0:
        raise PreconditionError(f"{x} is not a unit mod {p}")
    return pow(x, -1, p)


def _residues(values, p):
    """x mod p for each rational x (anything with an integer numerator and
    denominator); an integer is reduced without inverting its denominator."""
    return np.array([x.numerator % p if x.denominator == 1
                     else x.numerator * _inverse(x.denominator, p) % p
                     for x in values], dtype=np.int64)


class _Plan(NamedTuple):
    """The maps that build series mod ``p`` on ``index_table(n, d)``, all
    of (n, d, p) alone (:func:`_plan`); its arrays are read-only."""

    table: IndexTable
    p: int
    orders: tuple        # per order 1..d: (its slice, the parents there)
    scale: np.ndarray    # 1 / a_c mod p (0 for the constant, never built)
    one: np.ndarray      # the series 1
    shift: np.ndarray    # (n, N): a - e_j, or N (a zero past the end)


@lru_cache(maxsize=None)
def _plan(n, d, p):
    """The :class:`_Plan` of (n, d, p), built once per process; it checks
    that no product group's unreduced sum (module docstring) leaves
    int64."""
    ix = index_table(n, d)
    pairs = int(np.diff(ix.starts, append=len(ix.left)).max())
    if pairs * (p - 1) ** 2 >= 2**63:
        raise PreconditionError(
            f"a product of series to order {d} mod {p} overflows int64")
    size = len(ix.order)
    units = np.array([0] + [_inverse(e, p) for e in range(1, d + 1)])
    bounds = ix.order.searchsorted(np.arange(1, d + 2))
    orders = tuple((at, ix.parent[at])
                   for at in map(slice, bounds[:-1], bounds[1:]))
    plan = _Plan(ix, p, orders,
                 units[ix.exponents[np.arange(size), ix.column]],
                 (ix.order == 0).astype(np.int64),
                 np.where(ix.down >= 0, ix.down, size))
    for array in (plan.scale, plan.one, plan.shift):
        array.setflags(write=False)
    return plan


def _times_u(s, shift):
    """u_j s for every j (a new axis before the last) at the columns of
    ``shift``: (u_j s)[a] = s[a - e_j], read from a zero past the end of
    ``s`` where a_j = 0."""
    padded = np.zeros(s.shape[:-1] + (s.shape[-1] + 1,), dtype=np.int64)
    padded[..., :-1] = s
    return padded.take(shift, axis=-1)


def _product(x, y, plan):
    """Truncated products mod p of the residue series on the last axis of
    ``x`` with the residue series ``y``.  The terms, each below
    (p - 1)**2, are summed before the one reduction: :func:`_plan`
    checks that no group's sum leaves int64."""
    ix = plan.table
    return np.add.reduceat(x.take(ix.left, axis=-1) * y.take(ix.right),
                           ix.starts, axis=-1) % plan.p


def _power_sum(s, coeffs, plan):
    """sum_j coeffs[j] s^j mod p for a series s with zero constant term."""
    total = coeffs[0] * plan.one
    power = s
    for j, c in enumerate(coeffs[1:]):
        if j:
            power = _product(power, s, plan)
        total = (total + c * power) % plan.p
    return total


def _atoms(points, plan):
    """E_i = exp(p_i.u) mod p for each row p_i of ``points`` (residues):
    the coefficient at a, prod_j p_ij^a_j / a_j!, is its parent's times
    p_ic / a_c, built one order at a time."""
    factors = points.take(plan.table.column, axis=1) * plan.scale % plan.p
    series = np.ones(factors.shape, dtype=np.int64)
    for at, parents in plan.orders:
        series[:, at] = series.take(parents, axis=1) * factors[:, at] % plan.p
    return series


def _tangent_rows(weights, terms, plan, start):
    """Rows w_i u_j T_i (j inner) for each of the ``weights``, then
    T_i - T_k for i < k, at the coefficients from position ``start`` on."""
    p = plan.p
    # w_i u_j T_i = u_j (w_i T_i): weight the fewer entries, then shift
    shifted = _times_u(weights[:, None] * terms[:len(weights)] % p,
                       plan.shift[:, start:])
    k, n, width = shifted.shape
    return np.concatenate([shifted.reshape(k * n, width),
                           (terms[:-1, start:] - terms[-1, start:]) % p])


def moment_map_jacobian(params, degree, p):
    """Jacobian mod p of all moment coordinates of order 1..degree.

    Rows follow the free parameters: the k*n mean coordinates, the first
    k-1 weights (the last weight is eliminated as one minus their sum),
    then the upper triangle of the covariance.  Columns follow
    ``series.multi_indices``.  ``params`` has rational means, weights and
    covariance (ints, or fractions whose denominators are units mod p),
    and ``p`` is a prime whose product sums stay in int64 (any below 2**28
    for n <= 8, d <= 6; :func:`_plan` raises otherwise).  Returns one
    ``int64`` array per row, with entries in [0, p): the rational
    Jacobian reduced mod p.
    """
    means = np.array([_residues(m, p) for m in params.means])
    n = means.shape[1]
    plan = _plan(n, degree, p)
    weights = _residues(params.weights, p)
    upper, lower = np.triu_indices(n)

    def quadratic(s):
        # u_i u_j s for each pair i <= j, by two shifts
        return _times_u(_times_u(s, plan.shift), plan.shift)[upper, lower]

    # u'Su/2 and the covariance rows u_i u_j M are halved on the diagonal
    scale = np.where(upper == lower, _inverse(2, p), 1)
    cov = _residues([params.cov[i][j] for i, j in zip(upper, lower)], p)
    gauss = _power_sum(scale * cov % p @ quadratic(plan.one) % p,
                       [_inverse(factorial(j), p)
                        for j in range(degree // 2 + 1)], plan)
    terms = _product(_atoms(means, plan), gauss, plan)   # E_i F
    moments = weights @ terms % p
    rows = np.vstack([_tangent_rows(weights, terms, plan, 1),
                      scale[:, None] * quadratic(moments)[:, 1:] % p])
    return list(rows)


def _block(atoms, weights, degree, lowest, p):
    """B mod p (module docstring): rows w_i u_j E_i / D (j inner), then
    (E_i - E_k) / D, for i < k, at the orders ``lowest``..``degree``, for
    integer ``atoms`` p_i and ``weights`` summing to one.  An ``int64``
    array of (k - 1)(n + 1) rows.

    The atoms are centred at their weighted mean first, which leaves
    E_i / D unchanged; D then has no order-1 term, so 1 - D starts at
    order 2 and D^-1 = sum_j (1 - D)^j takes the j <= degree // 2."""
    points = np.array(atoms, dtype=np.int64) % p
    w = np.array(weights, dtype=np.int64) % p
    # each matmul sums k <= 15 products of residues below 2**26: < 2**56
    points = (points - w @ points % p) % p
    plan = _plan(points.shape[1], degree, p)
    series = _atoms(points, plan)
    moments = w @ series % p
    inverse = _power_sum((plan.one - moments) % p, [1] * (degree // 2 + 1),
                         plan)
    # the indices are graded: orders >= lowest are a suffix
    return _tangent_rows(w[:-1], _product(series, inverse, plan), plan,
                         plan.table.order.searchsorted(lowest))


def _point(n, k, rng):
    """Integer atoms (k lists of n) and weights of a random point drawn
    from the ``random.Random`` ``rng`` (module docstring); B needs no
    covariance, so none is drawn."""
    while True:
        values = rng.choices(range(-COORD_BOUND, COORD_BOUND + 1),
                             k=k * n + k - 1)
        atoms = [values[i:i + n] for i in range(0, k * n, n)]
        weights = values[k * n:] + [1 - sum(values[k * n:])]
        if all(weights) and len(set(map(tuple, atoms))) == k:
            return atoms, weights


def _point_ranks(lowest, ceiling, seed, n, k, d):
    """Jacobian ranks at random points, each under its own prime: the
    count split off below order ``lowest`` plus the rank of B.  One point
    when its rank meets ``ceiling``, the row's upper bound (the dimension
    count or, at d = 3, the paper's theorem); else two, or three when the
    first two disagree (module docstring)."""
    split = ambient_dim(n, min(d, lowest - 1))

    def rank_at(trial):
        rng = random.Random(_mix_seed(seed, n, k, d, trial))
        block = _block(*_point(n, k, rng), d, lowest, PRIMES[trial])
        # a list of int64 rows: perfbench/tracer.py sizes rank's argument
        # with ``if matrix``, which raises on an ndarray
        return split + rank(list(block), PRIMES[trial])

    ranks = [rank_at(0)]
    if ranks[0] != ceiling:
        ranks.append(rank_at(1))
        if ranks[0] != ranks[1]:
            ranks.append(rank_at(2))
    return tuple(ranks)


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
    ranks: tuple      # Jacobian rank at each random point (integers in
                      # [-COORD_BOUND, COORD_BOUND] from a random.Random
                      # seeded by seed, cell and trial), in draw order:
                      # one point when it meets the row's upper bound,
                      # min(par, ambient) or, at d = 3, the paper's theorem
    seed: int

    @property
    def points(self):
        """Number of random points evaluated."""
        return len(self.ranks)

    def as_row(self):
        return (self.n, self.k, self.d, self.par, self.ambient,
                self.expected, self.dim, self.defect, self.fiber_dim)

    def as_dict(self):
        return {
            "n": self.n, "k": self.k, "d": self.d, "par": self.par,
            "ambient": self.ambient, "expected": self.expected,
            "dim": self.dim, "defect": self.defect,
            "fiber_dim": self.fiber_dim, "points": self.points,
            "ranks": list(self.ranks), "seed": self.seed,
        }


def _report(n, k, d, par, lowest, seed, defect=0):
    ambient = ambient_dim(n, d)
    expected = min(par, ambient)
    ranks = _point_ranks(lowest, expected - defect, seed, n, k, d)
    dim = max(ranks)
    fiber = par - dim
    return DefectReport(n=n, k=k, d=d, par=par, ambient=ambient,
                        expected=expected, dim=dim, fiber_dim=fiber,
                        defect=fiber - max(par - ambient, 0),
                        ranks=ranks, seed=seed)


def defect_report(n, k, d, seed=0):
    """Classify the (n, k, d) homoscedastic secant by exact generic rank."""
    n, k, d, seed = check_envelope(n, k, d, seed)
    # B starts at order 3: translations span order 1, the covariance
    # order 2; at d = 3 the paper's theorem bounds the dimension
    return _report(n, k, d, parameter_count(n, k), 3, seed,
                   predicted_defect_order3(n, k) if d == 3 else 0)


def veronese_report(n, k, d, seed=0):
    """Dimension data for the k-secant of the Dirac moment variety."""
    n, k, d, seed = check_envelope(n, k, d, seed)
    # B starts at order 2: translations span order 1
    return _report(n, k, d, n * k + k - 1, 2, seed)


# ----------------------------------------------------------------------
# closed-form order-3 classification and reference data


def predicted_defect_order3(n, k):
    """Closed-form defect of the order-3 homoscedastic secant.

    Case analysis: two and three/four component mixtures in enough
    variables are always defective, (5, 7) is sporadic, and for n >= 4
    there is a defective band just above k = n + 1.  ``n`` and ``k`` must
    be integers of at least 1 (:func:`check_integers`), else
    ``PreconditionError``.
    """
    n, k = check_integers(1, n=n, k=k)
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
    return next((row for row in ORDER3_TABLE if row[:2] == (n, k)), None)


def default_k_range(n, d=3):
    """Component counts tabulated for dimension n: from 1 (n = 1) or 2 up
    to the first k whose parameter count reaches the ambient dimension,
    its first cell checked first (:func:`check_envelope`)."""
    n, first, d, _ = check_envelope(n, 1 if n == 1 else 2, d)
    k = first
    while parameter_count(n, k) < ambient_dim(n, d):
        k += 1
    return list(range(first, k + 1))
