"""Shared helpers for building random exact test inputs, plus the
acceptance-criteria reporter (one PASS/FAIL line per criterion, emitted
in the terminal summary so capture settings cannot swallow it)."""

from fractions import Fraction

import numpy as np

from homoment import models
from homoment import series as ts

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
