"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (collected again in the terminal
summary).  Exact checks use rational arithmetic end to end; statistical
checks use fixed seeds.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import (
    dirac_params,
    exact_variance_polynomial,
    gaussian_params,
    match_two_components,
    rand_fraction,
    rand_series,
    rand_symmetric,
    rand_two_mixture,
    record_criterion,
    univariate_moments,
    weight_product_cubic,
)
from homoment import cli, estimate, geometry, models, ranktest
from homoment import series as ts
from homoment._poly import poly_degree

_ROWS = {}  # (n, k, d) -> report row tuple, shared across criteria


def _row(n, k, d):
    key = (n, k, d)
    if key not in _ROWS:
        _ROWS[key] = geometry.defect_report(n, k, d, seed=0).as_row()
    return _ROWS[key]


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record_criterion(label, False)
                raise
            record_criterion(label, True)
            return result
        return wrapper
    return decorate


@criterion("C01 order-3 table reproduction (defect-table --check)")
def test_c01_table_reproduction(tmp_path):
    out = tmp_path / "table.json"
    start = time.monotonic()
    code = cli.main(["defect-table", "--n", "1..7", "--d", "3", "--check",
                     "--format", "json", "--output", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["check"]["passed"]
    rows = [(r["n"], r["k"], r["d"], r["par"], r["ambient"], r["expected"],
             r["dim"], r["defect"], r["fiber_dim"]) for r in payload["rows"]]
    assert tuple(rows) == geometry.ORDER3_TABLE
    for row in rows:
        _ROWS[(row[0], row[1], row[2])] = row
    by_nk = {(r[0], r[1]): r for r in rows}
    assert by_nk[(2, 2)][6] == 7       # dim
    assert by_nk[(5, 7)][7] == 1       # defect
    assert by_nk[(7, 12)][8] == 4      # fiber dimension
    assert elapsed < 120.0


@criterion("C02 order-3 classification matches computed defects (n<=7, k<=12)")
def test_c02_classification_grid():
    for n in range(1, 8):
        for k in range(1, 13):
            assert _row(n, k, 3)[7] == geometry.predicted_defect_order3(n, k), \
                (n, k)


@criterion("C03 small-component identifiability order")
def test_c03_identifiability_order():
    for k in (2, 3, 4):
        n = k - 1
        assert _row(n, k, 3)[8] > 0, (n, k)
        assert _row(n, k, 4)[8] == 0, (n, k)
    assert _row(4, 5, 3)[8] == 0


@criterion("C04 exp/log inversion on 200 random rational series")
def test_c04_exp_log_inversion():
    rng = random.Random(40)
    for trial in range(200):
        n = rng.randint(1, 3)
        d = rng.randint(1, 6)
        cum = rand_series(rng, n, d, space="cumulant", density=0.6)
        assert ts.log(ts.exp(cum)) == cum
        mom = rand_series(rng, n, d, space="moment", density=0.6)
        assert ts.exp(ts.log(mom)) == mom


@criterion("C05 two-point cumulant coefficients match series expansion")
def test_c05_two_point_coefficients():
    rng = random.Random(50)
    seen = set()
    while len(seen) < 50:
        lam = Fraction(rng.randint(1, 199), 200)
        if lam in seen or lam == 1:
            continue
        seen.add(lam)
        atoms = dirac_params(
            points=((1,), (-lam / (1 - lam),)), weights=(lam, 1 - lam))
        assert sum(w * p for w, (p,) in zip(atoms.weights,
                                            atoms.means)) == 0, lam
        series = models.homoscedastic_cumulants(atoms, 5)
        for order in (3, 4, 5):
            assert (series.coeff((order,))
                    == estimate.two_point_cumulant_coeff(lam, order)), lam


@criterion("C06 two-component recovery from exact cumulants")
def test_c06_two_component_round_trip():
    rng = random.Random(60)
    for trial in range(100):
        n = rng.choice([1, 2, 3])
        params = rand_two_mixture(rng, n)
        cum = models.homoscedastic_cumulants(params, 5)
        est = estimate.fit_two_gaussians(cum, order=5)
        assert match_two_components(est.params, params) < 1e-8, trial

        est4 = estimate.fit_two_gaussians(cum.truncate(4), order=4)
        assert match_two_components(est4.params, params) < 1e-8, trial

        ratio = est.diagnostics["ratio_a"]
        roots = np.roots([float(c) for c in
                          weight_product_cubic(ratio)][::-1])
        interior = [r for r in roots
                    if abs(r.imag) < 1e-9 * max(1.0, abs(r))
                    and 0.0 < r.real < 0.25]
        assert len(interior) == 1, trial


def test_c06_null_coordinate_means_from_samples():
    # the second coordinate separates nothing; coordinatewise cube roots of
    # the third cumulants put its means up to 0.43 from zero on these samples
    params = models.HomoscedasticParams(
        means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
        cov=[[1.0, 0.0], [0.0, 1.0]])
    for seed in range(1, 11):
        data = models.sample_mixture(params, 100_000, seed=seed)
        for order in (4, 5):
            est = estimate.fit_two_gaussians(
                estimate.sample_cumulants(data, order), order=order)
            assert all(abs(mean[1]) < 0.1 for mean in est.params.means), (
                seed, order, est.params.means)


@criterion("C07 univariate pipeline: recovery and variance-degree law")
def test_c07_univariate_pipeline():
    rng = random.Random(70)
    for k in (1, 2, 3):
        for trial in range(10):
            atoms = sorted(rng.sample(range(-5, 6), k))
            free = [Fraction(rng.randint(1, 4), 10) for _ in range(k - 1)]
            weights = free + [1 - sum(free)]
            variance = Fraction(rng.randint(1, 8), 16)
            params = models.HomoscedasticParams(
                means=[[a] for a in atoms], weights=weights, cov=[[variance]])
            m = univariate_moments(params, 2 * k)

            # the degree law over Q (the exact pencil is a test oracle),
            # and the library's float polynomial holds it too: each
            # coefficient within 1e-6 of the largest exact one (1e-8 at
            # worst here), the leading one above that (1.2e-5 at least)
            exact = exact_variance_polynomial(m, k)
            assert poly_degree(exact) == k * (k + 1) // 2
            assert exact[k * (k + 1) // 2] != 0
            coeffs = estimate.variance_polynomial(m, k)
            top = max(abs(c) for c in exact)
            assert len(coeffs) == len(exact)
            assert all(abs(a - b) <= 1e-6 * top for a, b in zip(coeffs, exact))
            assert poly_degree(coeffs, rel_tol=1e-6) == k * (k + 1) // 2

            est = estimate.fit_univariate(m, k)
            order = sorted(range(k), key=lambda i: est.params.means[i][0])
            err = abs(est.params.cov[0][0] - float(variance))
            for got_i, true_i in zip(order, range(k)):
                err = max(err, abs(float(est.params.means[got_i][0])
                                   - atoms[true_i]))
                err = max(err, abs(float(est.params.weights[got_i])
                                   - float(weights[true_i])))
            assert err < 1e-9, (k, trial, err)


@criterion("C08 hypersurface polynomials: order-3 identity, order-5 vanishing"
           " and weighted homogeneity")
def test_c08_hypersurface_polynomials():
    rng = random.Random(80)
    for _ in range(100):
        m1, m2, m3 = (rand_fraction(rng) for _ in range(3))
        series = ts.TruncatedSeries.from_moments(
            1, 3, {(1,): m1, (2,): m2, (3,): m3})
        assert (ranktest.cumulant_k3(m1, m2, m3)
                == ts.log(series).moment((3,)))

    for _ in range(100):
        lam = Fraction(rng.randint(1, 99), 100)
        t = rand_fraction(rng, nonzero=True)
        k3, k4, k5 = (math.factorial(j)
                      * estimate.two_point_cumulant_coeff(lam, j) * t ** j
                      for j in (3, 4, 5))
        value = ranktest.two_secant_invariant(k3, k4, k5)
        scale = max(abs(float(k3)), abs(float(k4)), abs(float(k5)), 1.0)
        assert abs(float(value)) < 1e-10 * scale ** 6

    for _ in range(20):
        k3, k4, k5 = (rand_fraction(rng) for _ in range(3))
        t = rand_fraction(rng, nonzero=True)
        assert (ranktest.two_secant_invariant(t ** 3 * k3, t ** 4 * k4,
                                              t ** 5 * k5)
                == t ** 18 * ranktest.two_secant_invariant(k3, k4, k5))


def _c09_cases():
    """C09's cases in draw order, each ``(params, data, true count)``: 100
    exact-moment cases (``data`` is None), then 50 noisy 100k samples."""
    rng = random.Random(90)
    for _ in range(50):
        mu = rand_fraction(rng)
        variance = Fraction(rng.randint(1, 16), 8)
        yield models.HomoscedasticParams(means=[[mu]], weights=[1],
                                         cov=[[variance]]), None, 1

    for _ in range(50):
        gap = Fraction(rng.randint(15, 40), 10)
        base = rand_fraction(rng)
        lam = Fraction(rng.randint(20, 80), 100)
        variance = Fraction(rng.randint(1, 8), 8)
        yield models.HomoscedasticParams(
            means=[[base], [base + gap]], weights=[lam, 1 - lam],
            cov=[[variance]]), None, 2

    for i in range(25):
        gauss = models.HomoscedasticParams(
            means=[[rng.uniform(-2, 2)]], weights=[1.0],
            cov=[[rng.uniform(0.3, 2.0)]])
        yield gauss, models.sample_mixture(gauss, 100_000, seed=900 + i), 1
    for i in range(25):
        lam = rng.uniform(0.25, 0.75)
        sigma = rng.uniform(0.4, 1.0)
        gap = rng.uniform(2.0, 4.0) * sigma
        base = rng.uniform(-1, 1)
        mix = models.HomoscedasticParams(
            means=[[base], [base + gap]], weights=[lam, 1.0 - lam],
            cov=[[sigma ** 2]])
        yield mix, models.sample_mixture(mix, 100_000, seed=950 + i), 2


@criterion("C09 component count: exact moments and noisy samples")
def test_c09_component_count():
    correct = 0
    runs = 0
    for params, data, truth in _c09_cases():
        if data is None:
            assert ranktest.estimate_components(
                univariate_moments(params, 5), 2) == truth
            continue
        k_hat, _ = ranktest.estimate_components_from_data(data, 2)
        runs += 1
        correct += (k_hat == truth)
    assert correct / runs >= 0.9, f"{correct}/{runs}"


def test_c09_delta_scales_agree_with_bootstrap():
    # the bootstrap is the reference the delta-method noise replaced:
    # on every noisy C09 dataset, centred, both give the same count, and
    # per k the delta scales sit near the bootstrap ones (single minors
    # range far wider, so only the median ratio is bounded)
    ratios = {1: [], 2: []}
    for _, data, _ in _c09_cases():
        if data is None:
            continue
        arr = data.ravel() - estimate.sample_normal_form(data, 1).mean
        scales = {}

        def bootstrap(witnesses):
            scales["boot"] = ranktest.bootstrap_minor_scales(arr, witnesses, 5)
            scales["delta"] = ranktest._delta_scales(
                ranktest.raw_moments(arr, 10), arr.size, witnesses, 5)
            return scales["boot"]

        k_boot, _ = ranktest._whitened_count(ranktest.raw_moments(arr, 5),
                                             2, bootstrap)
        k_delta, _ = ranktest.estimate_components_from_data(data, 2)
        assert k_delta == k_boot
        for k in (1, 2):
            ratios[k] += [x / y for x, y in zip(scales["delta"][k],
                                                scales["boot"][k])]
    for k, values in ratios.items():
        assert 0.5 <= float(np.median(values)) <= 2.0, (k, np.median(values))


@criterion("C10 cumulant cone: bordered minors vanish for bivariate pairs")
def test_c10_cumulant_cone():
    rng = random.Random(100)
    for _ in range(100):
        lam = Fraction(rng.randint(1, 99), 100)
        params = models.HomoscedasticParams(
            means=((rand_fraction(rng), rand_fraction(rng)),
                   (rand_fraction(rng), rand_fraction(rng))),
            weights=(lam, 1 - lam), cov=rand_symmetric(rng, 2))
        kk = models.homoscedastic_cumulants(params, 3)
        k30, k21 = kk.moment((3, 0)), kk.moment((2, 1))
        k12, k03 = kk.moment((1, 2)), kk.moment((0, 3))
        assert k30 * k12 == k21 * k21
        assert k30 * k03 == k21 * k12
        assert k21 * k03 == k12 * k12


@criterion("C11 heavy-tail model agrees with Gaussian exactly through order 3")
def test_c11_laplace_agreement():
    rng = random.Random(110)
    for _ in range(20):
        mu = (rand_fraction(rng), rand_fraction(rng))
        cov = rand_symmetric(rng, 2)
        lap = models.laplace_moments(models.LaplaceParams(mu, cov), 4)
        gauss = models.homoscedastic_moments(gaussian_params(mu, cov), 4)
        assert lap.truncate(3) == gauss.truncate(3)
        if any(cov[i][j] != 0 for i in range(2) for j in range(2)):
            assert lap != gauss
    lap1 = models.laplace_moments(
        models.LaplaceParams(location=(0,), cov=((1,),)), 4)
    gauss1 = models.homoscedastic_moments(
        gaussian_params(mean=(0,), cov=((1,),)), 4)
    assert lap1.moment((4,)) == 6
    assert gauss1.moment((4,)) == 3


@criterion("C12 degree-seven identifiability curve identity")
def test_c12_identifiability_curve():
    rng = random.Random(120)
    poles = {Fraction(1), Fraction(1, 4), Fraction(1, 6), Fraction(1, 12)}
    checked = 0
    while checked < 20:
        q = rand_fraction(rng, num=40, den=41)
        if q in poles:
            continue
        assert estimate.identifiability_curve_residual(q) < 1e-9, q
        checked += 1
