"""Shared helpers for building random exact test inputs, the exact
oracles the float routines are checked against, the classical
Alexander-Hirschowitz list the Veronese reports are checked against,
the dict engine of truncated series that ``series`` is checked against,
and the acceptance-criteria reporter (one PASS/FAIL line per criterion,
emitted in the terminal summary so capture settings cannot swallow it)."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, lcm, prod

import numpy as np

from homoment import geometry, models, ranktest
from homoment import series as ts
from homoment.errors import PreconditionError
from homoment.geometry import ambient_dim

ACCEPTANCE_RESULTS = []


def record_criterion(label, ok):
    ACCEPTANCE_RESULTS.append((label, ok))
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for label, ok in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"  {label}: {'PASS' if ok else 'FAIL'}")


def reference_sample(params, count, seed):
    """The sampler as ``Generator.choice`` labels, then every mean gathered
    and added to the transformed noise in one expression: what
    ``models.sample_mixture`` must return to the bit."""
    weights = np.asarray([float(w) for w in params.weights])
    weights = weights / weights.sum()
    means = np.asarray([[float(x) for x in m] for m in params.means])
    factor = models._psd_factor(
        np.asarray([[float(x) for x in row] for row in params.cov]))
    rng = np.random.default_rng(seed)
    labels = rng.choice(len(weights), size=count, p=weights)
    noise = rng.standard_normal((count, params.nvars))
    return means[labels] + noise @ factor.T


def rand_fraction(rng, num=9, den=9, nonzero=False):
    while True:
        f = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if f != 0 or not nonzero:
            return f


def rand_series(rng, nvars, degree, space="moment", density=0.8):
    """Random rational series with the constant term fixed by the space."""
    coeffs = {}
    for a in ts.multi_indices(nvars, degree):
        if sum(a) == 0:
            coeffs[a] = Fraction(1) if space == "moment" else Fraction(0)
        elif rng.random() < density:
            coeffs[a] = rand_fraction(rng)
    return ts.TruncatedSeries(nvars, degree, coeffs)


def rand_symmetric(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rand_fraction(rng)
    return m


def rand_psd(rng, n, den=4):
    """Random rational positive semidefinite matrix B^t B."""
    b = [[Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(n)]
         for _ in range(n)]
    return [[sum(b[t][i] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def rand_two_mixture(rng, n, lam_lo=5, lam_hi=95, avoid_half=5):
    """Generic rational two-component homoscedastic parameters.

    The weight stays away from 0, 1/2 and 1 and the centered mean is
    nonzero, so the principal third cumulants cannot all vanish.
    """
    while True:
        pct = rng.randint(lam_lo, lam_hi)
        if abs(pct - 50) >= avoid_half:
            break
    lam = Fraction(pct, 100)
    while True:
        mu1 = tuple(Fraction(rng.randint(-30, 30), 10) for _ in range(n))
        if any(mu1):
            break
    mu2 = tuple(-lam / (1 - lam) * x for x in mu1)
    shift = tuple(Fraction(rng.randint(-20, 20), 10) for _ in range(n))
    means = [tuple(a + b for a, b in zip(mu1, shift)),
             tuple(a + b for a, b in zip(mu2, shift))]
    return models.HomoscedasticParams(
        means=means, weights=(lam, 1 - lam), cov=rand_psd(rng, n))


def gaussian_params(mean, cov):
    """One Gaussian: the homoscedastic mixture of one component."""
    return models.HomoscedasticParams(means=[mean], weights=[1], cov=cov)


def dirac_params(points, weights):
    """A Dirac mixture: the homoscedastic mixture of zero covariance."""
    n = len(points[0])
    return models.HomoscedasticParams(means=points, weights=weights,
                                      cov=[[0] * n for _ in range(n)])


def gaussian_moments(mean, cov, degree):
    """Moment series of one Gaussian, the exp of its cumulant series
    u^t mean + u^t cov u / 2 built here from the entries: the oracle of
    ``homoscedastic_moments`` at k = 1."""
    n = len(mean)
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    cumulants = {units[i]: mean[i] for i in range(n)}
    if degree > 1:
        for i in range(n):
            for j in range(i, n):
                a = tuple(x + y for x, y in zip(units[i], units[j]))
                cumulants[a] = cov[i][j] * (Fraction(1, 2) if i == j else 1)
    return ts.exp(ts.TruncatedSeries(n, degree, cumulants))


def dirac_moments(points, weights, degree):
    """Moment series of atoms at ``points``, m_a the weighted sum of the
    monomials p^a: the oracle of ``homoscedastic_moments`` at zero
    covariance."""
    n = len(points[0])
    return ts.TruncatedSeries.from_moments(n, degree, {
        a: sum(w * prod(x ** e for x, e in zip(p, a))
               for w, p in zip(weights, points))
        for a in ts.multi_indices(n, degree)[1:]})


def univariate_moments(params, order):
    """Raw moment vector m_1..m_order of a one-dimensional mixture."""
    series = models.homoscedastic_moments(params, order)
    return [series.moment((j,)) for j in range(1, order + 1)]


def match_two_components(est_params, true_params):
    """Max relative parameter error after aligning component labels."""
    best = None
    for order in ((0, 1), (1, 0)):
        err = 0.0
        for got_i, true_i in zip((0, 1), order):
            tw = float(true_params.weights[true_i])
            err = max(err, abs(float(est_params.weights[got_i]) - tw)
                      / max(abs(tw), 1e-12))
            for a, b in zip(est_params.means[got_i], true_params.means[true_i]):
                err = max(err, abs(float(a) - float(b)) / max(1.0, abs(float(b))))
        n = est_params.nvars
        for i in range(n):
            for j in range(n):
                a = float(est_params.cov[i][j])
                b = float(true_params.cov[i][j])
                err = max(err, abs(a - b) / max(1.0, abs(b)))
        best = err if best is None else min(best, err)
    return best


def weight_product_cubic(ratio):
    """Ascending coefficients of the cubic satisfied by the weight product
    q = w (1 - w) of a two-component mixture with pivot ratio ``ratio``:
    exact for an int or Fraction ratio, float for a float one."""
    cube = (Fraction(ratio) if type(ratio) is int else ratio) ** 3
    const = -1.5 if isinstance(cube, float) else -Fraction(3, 2)
    return [const, 16 * cube + 27, -(128 * cube + 162), 256 * cube + 324]


def cumulant_ratio_from_weight_product(q):
    """The pivot ratio a(q) realized by a mixture with weight product q.

    Strictly decreasing on (0, 1/4); the inverse of
    ``estimate.solve_smaller_weight`` (as ``q = w (1 - w)``) and its
    round-trip oracle.
    """
    q = float(q)
    if not 0.0 < q < 0.25:
        raise PreconditionError("weight product must lie in (0, 1/4)")
    return (3.0 ** (1.0 / 3.0) * (1.0 - 6.0 * q)
            / (2.0 * (4.0 * q * (1.0 - 4.0 * q) ** 2) ** (1.0 / 3.0)))


# ----------------------------------------------------------------------
# exact oracles over Q: the library's minors, pencils and determinants
# are floats


def integer_rows(matrix):
    """Copy ``matrix`` scaling each row to integers (rank preserving).

    Returns the integer rows and the factor each row was multiplied by.
    """
    rows = []
    scales = []
    for row in matrix:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
            elif not isinstance(x, int):
                raise PreconditionError(
                    f"exact linear algebra needs int or Fraction entries, "
                    f"got {type(x).__name__} {x!r}")
        rows.append([x * den if isinstance(x, int)
                     else x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return rows, scales


def det(matrix):
    """Exact determinant of a square rational matrix (fraction-free
    Bareiss elimination on its integer-scaled rows)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    m, scales = integer_rows(matrix)
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pivot = m[c][c]
        top = m[c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], prod(scales))


def lagrange_interpolate(xs, ys):
    """Exact interpolation through rational points, ascending coefficients."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # num *= (x - xs[j])
            root = Fraction(xs[j])
            num = [Fraction(0)] + num
            for p in range(len(num) - 1):
                num[p] -= root * num[p + 1]
            den *= Fraction(xs[i]) - root
        w = Fraction(ys[i]) / den
        for p, c in enumerate(num):
            coeffs[p] += w * c
    return coeffs


def deconvolution_coeff(j, i):
    """Signed coefficient ``(-1)^i j! / (2^i i! (j-2i)!)`` of
    ``m_{j-2i} variance^i`` in the deconvolved moment of order j."""
    coeff = factorial(j) // (2 ** i * factorial(i) * factorial(j - 2 * i))
    return -coeff if i % 2 else coeff


def exact_deconvolve_moments(moments, variance):
    """``ranktest.deconvolve_moments`` over Q: ``mt_j = sum_i j! /
    ((-2)^i i! (j-2i)!) m_{j-2i} variance^i``, every entry read as the
    exact rational it is."""
    m = [Fraction(1)] + [Fraction(x) for x in moments]
    variance = Fraction(variance)
    out = []
    for j in range(1, len(m)):
        acc = None
        power = 1
        for i in range(j // 2 + 1):
            term = deconvolution_coeff(j, i) * m[j - 2 * i] * power
            acc = term if acc is None else acc + term
            power = power * variance
        out.append(acc)
    return out


def exact_minor_values(moments, k, s):
    """Every maximal minor of the deconvolved moment matrix at the
    variance ``s``, exactly, in ``ranktest.pencil_minor_values`` order."""
    m = [Fraction(x) for x in moments]
    # Hankel entry (i, j) is mt_{i+j}, with mt_0 = 1
    row = [Fraction(1)] + exact_deconvolve_moments(m, s)
    return [det([[row[i + j] for j in sel] for i in range(k + 1)])
            for sel in combinations(range(len(m) - k + 1), k + 1)]


def exact_hankel_pencil(moments, k):
    """``ranktest.hankel_pencil`` over Q: a minor on the columns ``sel``
    weighs ``k (k + 1) / 2 + sum(sel)``, has half that degree in the
    variance, and is interpolated exactly through its values at the
    variances 0, 1, ..., its degree."""
    subsets = combinations(range(len(moments) - k + 1), k + 1)
    weights = tuple(k * (k + 1) // 2 + sum(sel) for sel in subsets)
    nodes = range(max(weights) // 2 + 1)
    values = [exact_minor_values(moments, k, s) for s in nodes]
    minors = tuple(
        tuple(lagrange_interpolate(nodes[:w // 2 + 1],
                                   [row[i] for row in values[:w // 2 + 1]]))
        for i, w in enumerate(weights))
    return ranktest.HankelPencil(k=k, minors=minors, weights=weights)


def exact_variance_polynomial(moments, k):
    """``ranktest.variance_polynomial`` over Q."""
    return list(exact_hankel_pencil(list(moments)[:2 * k], k).minors[0])


def centered_cumulant_rank(n, k, d, seed=0):
    """Generic rank of the order >= 3 cumulant map on centered atoms.

    This is the rank of the block B that ``geometry.defect_report``
    ranks, at the same points: E_i / D is unchanged when every atom
    moves by the same vector, so B at a point is B at its centered
    translate.  The mixture fiber dimension is (k-1)(n+1) minus this
    rank.
    """
    geometry.check_envelope(n, k, d)
    split = geometry.ambient_dim(n, min(d, 2))
    # min(rows, cols) of the block: a dimension count, not the theorem
    ceiling = min((k - 1) * (n + 1), geometry.ambient_dim(n, d) - split)
    ranks = geometry._point_ranks(3, split + ceiling, seed, n, k, d)
    return max(ranks) - split


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


def allclose(a, b, tol=1e-12):
    """Coefficientwise ``|delta| < tol * max(1, |c|)`` comparison of two
    series of one shape."""
    a._check_compatible(b)
    x, y = a._c.astype(float), b._c.astype(float)
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    return not np.any(np.abs(x - y) >= tol * scale)


# ----------------------------------------------------------------------
# the dict engine of truncated series: the oracle ``series`` is checked
# against (coefficients keyed by exponent tuple, zeros never stored)


def dict_multi_indices(nvars, degree):
    """All exponent tuples with ``|a| <= degree`` in graded lex order."""
    out = []
    for total in range(degree + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), total):
            block.add(tuple(combo.count(i) for i in range(nvars)))
        out.extend(sorted(block, reverse=True))
    return out


class DictSeries:
    """``series.TruncatedSeries`` on a dict of its nonzero coefficients."""

    def __init__(self, nvars, degree, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        self._c = {}
        for a, c in dict(coeffs or {}).items():
            c = ts._promote(c)
            if c != 0:
                self._c[tuple(int(e) for e in a)] = c

    @classmethod
    def one(cls, nvars, degree):
        return cls(nvars, degree, {(0,) * nvars: Fraction(1)})

    def items(self):
        return sorted(self._c.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def constant(self):
        return self._c.get((0,) * self.nvars, Fraction(0))

    def truncate(self, degree):
        return DictSeries(self.nvars, degree,
                          {a: c for a, c in self._c.items() if sum(a) <= degree})

    def graded(self, min_order, max_order=None):
        hi = self.degree if max_order is None else max_order
        return DictSeries(
            self.nvars, self.degree,
            {a: c for a, c in self._c.items() if min_order <= sum(a) <= hi})

    def __add__(self, other):
        c = dict(self._c)
        for a, x in other._c.items():
            y = c.get(a)
            c[a] = x if y is None else y + x
        return DictSeries(self.nvars, self.degree, c)

    def __neg__(self):
        return DictSeries(self.nvars, self.degree,
                          {a: -c for a, c in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DictSeries):
            terms = [(b, sum(b), cb) for b, cb in other._c.items()]
            out = {}
            for a, ca in self._c.items():
                room = self.degree - sum(a)
                for b, db, cb in terms:
                    if db > room:
                        continue
                    key = tuple(x + y for x, y in zip(a, b))
                    prod = ca * cb
                    acc = out.get(key)
                    out[key] = prod if acc is None else acc + prod
            return DictSeries(self.nvars, self.degree, out)
        other = ts._promote(other)
        return DictSeries(self.nvars, self.degree,
                          {a: c * other for a, c in self._c.items()})

    def __truediv__(self, scalar):
        if type(scalar) is int:
            return self * Fraction(1, scalar)
        return DictSeries(self.nvars, self.degree,
                          {a: c / scalar for a, c in self._c.items()})

    def __eq__(self, other):
        return (self.nvars == other.nvars and self.degree == other.degree
                and self._c == other._c)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self._c.items())))

    def __repr__(self):
        head = ", ".join(f"{a}: {c}" for a, c in self.items()[:6])
        more = "" if len(self._c) <= 6 else ", ..."
        return (f"TruncatedSeries(nvars={self.nvars}, degree={self.degree}, "
                f"{{{head}{more}}})")


def dict_exp(series):
    """``series.exp`` on a :class:`DictSeries`: sum_j S^j / j!."""
    result = DictSeries.one(series.nvars, series.degree)
    term = result
    for j in range(1, series.degree + 1):
        term = (term * series) / j
        if not term._c:
            break
        result = result + term
    return result


def dict_log(series):
    """``series.log`` on a :class:`DictSeries`: sum_j (-1)^(j+1) (S - 1)^j / j."""
    one = DictSeries.one(series.nvars, series.degree)
    shifted = series - one
    result = DictSeries(series.nvars, series.degree)
    power = one
    for j in range(1, series.degree + 1):
        power = power * shifted
        if not power._c:
            break
        term = power / j
        result = result + term if j % 2 == 1 else result - term
    return result
