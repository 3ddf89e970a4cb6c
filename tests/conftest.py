"""Shared helpers for building random exact test inputs, the exact
oracles the float routines are checked against, and the
acceptance-criteria reporter (one PASS/FAIL line per criterion, emitted
in the terminal summary so capture settings cannot swallow it)."""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import numpy as np

from homoment import estimate, models
from homoment import series as ts
from homoment.errors import PreconditionError

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


def exact_minor_values(moments, k, s):
    """Every maximal minor of the deconvolved moment matrix at the
    variance ``s``, exactly, in ``estimate.pencil_minor_values`` order."""
    m = [Fraction(x) for x in moments]
    # Hankel entry (i, j) is mt_{i+j}, with mt_0 = 1
    row = [Fraction(1)] + estimate.deconvolve_moments(m, Fraction(s))
    return [det([[row[i + j] for j in sel] for i in range(k + 1)])
            for sel in combinations(range(len(m) - k + 1), k + 1)]


def exact_hankel_pencil(moments, k):
    """``estimate.hankel_pencil`` over Q: a minor on the columns ``sel``
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
    return estimate.HankelPencil(k=k, minors=minors, weights=weights)


def exact_variance_polynomial(moments, k):
    """``estimate.variance_polynomial`` over Q."""
    return list(exact_hankel_pencil(list(moments)[:2 * k], k).minors[0])
