"""Parameter recovery: two-component closed form and univariate pipeline."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    cumulant_ratio_from_weight_product,
    dirac_params,
    exact_deconvolve_moments,
    exact_variance_polynomial,
    gaussian_params,
    match_two_components,
    rand_fraction,
    rand_two_mixture,
    univariate_moments,
    weight_product_cubic,
)
from homoment import _poly, estimate, models, ranktest
from homoment import series as ts
from homoment._poly import poly_degree, poly_eval
from homoment.errors import (
    InconsistentMomentsError,
    InputError,
    InsufficientOrderError,
    ModelMismatchError,
    PreconditionError,
    RankDeficientMomentsError,
    SingularSystemError,
    SymmetricMixtureError,
)


class TestSampleCumulants:
    def test_point_mass(self):
        data = np.tile([1.5, -2.0], (50, 1))
        k = estimate.sample_cumulants(data, 3)
        assert abs(k.moment((1, 0)) - 1.5) < 1e-12
        assert abs(k.moment((0, 1)) + 2.0) < 1e-12
        for a in ts.multi_indices(2, 3):
            if sum(a) >= 2:
                assert abs(k.coeff(a)) < 1e-10

    def test_two_point_hand_computation(self):
        data = np.asarray([[0.0], [2.0]])
        k = estimate.sample_cumulants(data, 2)
        assert abs(k.moment((1,)) - 1.0) < 1e-14
        assert abs(k.moment((2,)) - 1.0) < 1e-14  # m2 = 2, kappa2 = 2 - 1

    def test_forty_columns_at_order_two_are_the_covariance(self):
        # 3**40 passed the int64 range of the index keys once, so this
        # shape was refused while 39 columns ran
        x = np.random.default_rng(40).standard_normal((50, 40))
        k = estimate.sample_cumulants(x, 2)
        unit = np.eye(40, dtype=int)
        second = [[k.moment(tuple(unit[i] + unit[j])) for j in range(40)]
                  for i in range(40)]
        assert np.abs(np.array(second) - np.cov(x.T, ddof=0)).max() < 1e-12
        assert np.abs([k.moment(tuple(e)) for e in unit]
                      - x.mean(axis=0)).max() < 1e-12

    def test_gaussian_higher_cumulants_shrink(self):
        count = 100_000
        rng = np.random.default_rng(0)
        data = rng.standard_normal((count, 1))
        k = estimate.sample_cumulants(data, 4)
        # asymptotic stds for standard normal samples: sqrt(6/n), sqrt(24/n)
        assert abs(k.moment((3,))) < 5.0 / math.sqrt(count)
        assert abs(k.moment((4,))) < 4.0 * math.sqrt(24.0 / count)

    def test_gate_takes_any_admitted_width(self):
        # three columns to order 10 were refused by the old cap of 8
        x = np.random.default_rng(3).standard_normal((200, 3))
        _, _, moments = ts.sample_moments(x, 10, columns=None)
        assert len(moments) == 285
        assert np.array_equal(moments, ts.moment_sums(
            x, 10, x.mean(axis=0)) / len(x))

    @pytest.mark.parametrize("n,degree", [(3, 10), (12, 4)])
    def test_wide_and_high_shapes(self, n, degree):
        x = np.random.default_rng(n).standard_normal((40, n))
        k = estimate.sample_cumulants(x, degree)
        assert (k.nvars, k.degree) == (n, degree)
        # the order-2 cumulants are the covariance (ddof 0)
        cov = np.cov(x.T, ddof=0)
        for i in range(n):
            for j in range(i, n):
                a = tuple((t == i) + (t == j) for t in range(n))
                assert k.moment(a) == pytest.approx(cov[i, j], abs=1e-12)

    def test_mean_out_of_float_range(self):
        with pytest.raises(InputError) as caught:
            estimate.sample_cumulants([[1e308, 1.0], [1e308, 2.0]], 3)
        assert caught.value.code == "INPUT_RANGE"
        # one check for every sample mean, so one message
        with pytest.raises(InputError) as flat:
            ranktest.sample_normal_form([1e308, 1e308], 2)
        assert str(flat.value) == str(caught.value) == (
            "data too large: a sample mean is not a finite float")

    def test_moment_out_of_float_range(self):
        # the means are finite, but the centred squares overflow
        data = [[1e300, 1.0], [-1e300, 2.0], [1e300, 5.0]]
        with pytest.raises(InputError) as caught:
            estimate.sample_cumulants(data, 5)
        assert caught.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("call", [
        lambda x: estimate.sample_cumulants(np.column_stack([x, x + 1.0]), 4),
        lambda x: ranktest.raw_moments(x, 4),
        lambda x: ranktest.sample_normal_form(x, 4)],
        ids=["sample_cumulants", "raw_moments", "sample_normal_form"])
    def test_moment_underflow(self, call):
        # read as 0, the fourth moments of a sample at 1e-100 gave fit1d
        # weights 1.00024 and -0.00024
        x = np.random.default_rng(4).standard_normal(1000)
        call(x * 1e-70)
        with pytest.raises(InputError) as caught:
            call(x * 1e-100)
        assert caught.value.code == "INPUT_RANGE"
        assert str(caught.value) == (
            "data too small: a sample moment underflows")

    @pytest.mark.parametrize("value", [0.1, 3.0, 1 / 3, 1e-5, 123456.789,
                                       0.0, 1e-200, 4.1e46, 1e250])
    def test_constant_sample_is_a_point_mass(self, value):
        # the moments about the float mean are its rounding: standardised,
        # they read as a spread at some sizes, and past order 2 they may
        # underflow or, far from 0, overflow
        for count in (3, 7, 10, 1000):
            for order in (2, 10, 20):
                form = ranktest.sample_normal_form(np.full(count, value),
                                                   order)
                assert form == ranktest.NormalForm(value, 1.0, [0.0] * order)
        est = estimate.fit_univariate(
            ranktest.sample_normal_form(np.full(1000, value), 2), 1)
        assert est.params.cov == ((0.0,),)
        assert est.params.means == ((value,),)

    @pytest.mark.parametrize("value", [0.1, 4.1e46, 1.7e18])
    def test_constant_column_is_a_point_mass(self, value):
        # beside a column that varies, a constant one read its mean's
        # rounding as its mean and as tiny cumulants of every order
        other = np.random.default_rng(0).standard_normal(1000)
        data = np.column_stack([other, np.full(1000, value)])
        k = estimate.sample_cumulants(data, 4)
        assert k.moment((0, 1)) == value
        for a in ts.multi_indices(2, 4):
            if a[1] and sum(a) > 1:
                assert k.moment(a) == 0, a

    def test_one_ulp_column_is_shifted_exactly(self):
        # half of 0.1 one ulp (2^-56) above the rest: about the float
        # mean its cumulants cancelled; the exact shift reads the two
        # atoms 2^-57 either side of the mean, whose rounding is 0.1
        other = np.random.default_rng(0).standard_normal(1000)
        column = np.full(1000, 0.1)
        column[::2] = np.nextafter(0.1, np.inf)
        k = estimate.sample_cumulants(np.column_stack([other, column]), 4)
        s = 2.0 ** -57
        assert [k.moment((0, j)) for j in range(1, 5)] == [
            0.1, s * s, 0.0, -2 * s ** 4]

    def test_stamp_column_cumulants_are_exact(self):
        # nanosecond stamps beside a mixture: the row-by-row float mean
        # was 6500 sigma off at 100k rows, and kappa_5 read -1.6e17
        # for -4.8e8; re-centred at centre + m1 and shifted exactly, the
        # column has the cumulants of its values
        p = models.HomoscedasticParams(means=[[0.0], [3.0]],
                                       weights=[0.3, 0.7], cov=[[1.0]])
        count = 20_000
        x = models.sample_mixture(p, count, seed=1)[:, 0]
        stamps = 1.7e18 + np.random.default_rng(2).integers(0, 1000, count)
        k = estimate.sample_cumulants(np.column_stack([x, stamps]), 5)
        # the exact central moments of the stamps, from integer power sums
        y = [int(v) - int(stamps[0]) for v in stamps.tolist()]
        mean = Fraction(sum(y), count)
        sums = [sum(v ** j for v in y) for j in range(6)]
        mu = [sum(math.comb(j, i) * Fraction(sums[i], count)
                  * (-mean) ** (j - i) for i in range(j + 1))
              for j in range(6)]
        exact = [mu[2], mu[3], mu[4] - 3 * mu[2] ** 2,
                 mu[5] - 10 * mu[3] * mu[2]]
        got = [k.moment((0, j)) for j in range(2, 6)]
        assert got == pytest.approx([float(e) for e in exact], rel=1e-9)

    def test_order_one_cumulant_is_the_mean(self):
        # a 2-D mean adds the rows one after another; the pass's own m1
        # puts the order-1 cumulant back on the mean, rounded once (it
        # was 11 ulps off)
        rng = np.random.default_rng(0)
        column = 5.0 + rng.random(100_000)
        data = np.column_stack([column, rng.standard_normal(100_000)])
        got = estimate.sample_cumulants(data, 4).moment((1, 0))
        want = math.fsum(column) / len(column)
        assert abs(got - want) <= math.ulp(want)

    @pytest.mark.parametrize("call", [
        lambda: estimate.sample_cumulants(np.arange(10.0), 4.0),
        lambda: ranktest.raw_moments(np.arange(10.0), 3.0),
        lambda: ranktest.sample_normal_form(np.arange(10.0), "4")],
        ids=["sample_cumulants", "raw_moments", "sample_normal_form"])
    def test_order_not_an_integer(self, call):
        # a float order raised a bare TypeError
        with pytest.raises(InputError) as caught:
            call()
        assert caught.value.code == "PRECONDITION"
        assert str(caught.value).startswith("order must be an integer, got")

    def test_complex_data_rejected(self):
        # numpy read the real parts only, with a ComplexWarning
        with pytest.raises(InputError) as caught:
            estimate.sample_cumulants(np.array([[1 + 1j, 2.0], [0.5, 1.0]]), 2)
        assert caught.value.code == "INPUT_PARSE"

    def test_fit_is_shift_equivariant(self):
        # uncentred, the sample moved to 10000 was fitted with weights
        # 0.49/0.51 and a negative variance (-2.81)
        params = models.HomoscedasticParams(
            means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.0], [0.0, 1.0]])
        sample = models.sample_mixture(params, 100_000, seed=5)
        fits = []
        for c in (0.0, 10.0, 100.0, 1000.0, 10000.0):
            est = estimate.fit_two_gaussians(
                estimate.sample_cumulants(sample + c, 5))
            fit = est.params
            fits.append([float(x) for x in fit.weights]
                        + [float(x) - c for mean in fit.means for x in mean]
                        + [float(x) for row in fit.cov for x in row])
        assert fits[0][:2] == pytest.approx([0.3, 0.7], abs=0.02)
        for fit in fits[1:]:
            assert fit == pytest.approx(fits[0], abs=1e-8)

    @pytest.mark.parametrize("order", [4, 5])
    def test_fit_is_scale_equivariant(self, order):
        # an absolute pivot tolerance below unit covariance refused the
        # sample as SYMMETRIC_MIXTURE from a scale of 3e-4 down
        params = models.HomoscedasticParams(
            means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.0], [0.0, 1.0]])
        sample = models.sample_mixture(params, 100_000, seed=3)

        def fit(t):
            est = estimate.fit_two_gaussians(
                estimate.sample_cumulants(sample * t, order), order)
            return ([float(x) for x in est.params.weights]
                    + [float(x) / t for mean in est.params.means for x in mean]
                    + [float(x) / t ** 2 for row in est.params.cov for x in row])

        unit = fit(1.0)
        for t in (1e-6, 1e-3, 1e3):
            assert fit(t) == pytest.approx(unit, rel=1e-12), t
        # a moment or a pivot ratio's power underflows: never a bare
        # ZeroDivisionError
        with pytest.raises(InputError) as caught:
            fit(1e-90)
        assert caught.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("params,order", [
        (models.HomoscedasticParams(
            means=[[0.0, 0.0], [2.5, 1.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.3], [0.3, 0.8]]), 5),
        (models.HomoscedasticParams(
            means=[[1.2, -0.8, 0.5], [-0.6, 0.4, -0.25]],
            weights=[0.35, 0.65],
            cov=[[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.6]]), 4),
    ], ids=["2d-fifth-order", "3d-fourth-order"])
    def test_fit_is_column_scale_equivariant(self, params, order):
        # the raw largest |kappa_iii| moved the pivot under a unit change
        # of one column: the weight moved by up to 0.016 and a mean by up
        # to 0.22 standard deviations
        sample = models.sample_mixture(params, 20_000, seed=7)
        sd = sample.std(axis=0)
        unit = estimate.fit_two_gaussians(
            estimate.sample_cumulants(sample, order), order)
        rng = np.random.default_rng(28)
        for _ in range(20):
            # powers of two scale every float exactly
            scale = 2.0 ** rng.integers(-40, 40, size=sample.shape[1])
            est = estimate.fit_two_gaussians(
                estimate.sample_cumulants(sample * scale, order), order)
            assert est.diagnostics["pivot"] == unit.diagnostics["pivot"]
            assert est.params.weights == pytest.approx(unit.params.weights,
                                                       abs=1e-12)
            gaps = (np.asarray(est.params.means) / scale
                    - np.asarray(unit.params.means)) / sd
            assert np.abs(gaps).max() <= 1e-12, scale


class TestTwoPointCoefficients:
    def test_equal_weights_kill_odd_orders(self):
        assert estimate.two_point_cumulant_coeff(Fraction(1, 2), 3) == 0
        assert estimate.two_point_cumulant_coeff(Fraction(1, 2), 5) == 0

    def test_fourth_order_zero_locus(self):
        lam = (3 - math.sqrt(3)) / 6  # lam (1 - lam) = 1/6
        assert abs(estimate.two_point_cumulant_coeff(lam, 4)) < 1e-15

    def test_matches_two_atom_log_expansion(self):
        rng = random.Random(1)
        for _ in range(20):
            lam = Fraction(rng.randint(1, 99), 100)
            atoms = dirac_params(
                points=((1,), (-lam / (1 - lam),)), weights=(lam, 1 - lam))
            assert sum(w * p for w, (p,) in zip(atoms.weights,
                                                atoms.means)) == 0
            series = models.homoscedastic_cumulants(atoms, 5)
            for order in (3, 4, 5):
                assert (series.coeff((order,))
                        == estimate.two_point_cumulant_coeff(lam, order))

    @pytest.mark.parametrize("weight,order,message", [
        (Fraction(1, 3), 6, "order must be 3, 4, or 5"),
        (1, 3, "weight 1 is outside [0, 1)"),
        (2, 3, "weight 2 is outside [0, 1)"),
        (-0.25, 4, "weight -0.25 is outside [0, 1)"),
        (math.nan, 5, "weight nan is outside [0, 1)"),
        (Fraction(1, 3), 3.0, "order must be an integer, got 3.0")],
        ids=["order-6", "weight-1", "weight-2", "negative", "nan",
             "order-float"])
    def test_order_or_weight_out_of_range(self, weight, order, message):
        # at w = 1 this was a bare ZeroDivisionError, and at w = 2 the
        # third-order coefficient came back as -1
        with pytest.raises(PreconditionError) as caught:
            estimate.two_point_cumulant_coeff(weight, order)
        assert caught.value.code == "PRECONDITION"
        assert str(caught.value) == message


class TestWeightProduct:
    @staticmethod
    def product(ratio):
        w = estimate.solve_smaller_weight(ratio)
        return w * (1 - w)

    def test_cubic_root_at_zero_ratio(self):
        coeffs = weight_product_cubic(0)
        assert poly_eval(coeffs, Fraction(1, 6)) == 0
        assert self.product(0.0) == pytest.approx(1 / 6, abs=1e-14)

    @pytest.mark.parametrize("q", [0.05, 0.10, 0.20])
    def test_round_trip(self, q):
        ratio = cumulant_ratio_from_weight_product(q)
        assert self.product(ratio) == pytest.approx(q, abs=1e-12)

    def test_interval_end_behavior(self):
        # small products force large positive ratios and conversely
        tiny = self.product(cumulant_ratio_from_weight_product(1e-4))
        assert tiny == pytest.approx(1e-4, rel=1e-9)
        assert cumulant_ratio_from_weight_product(1e-4) > 5
        near_quarter = self.product(
            cumulant_ratio_from_weight_product(0.2499))
        assert near_quarter == pytest.approx(0.2499, rel=1e-9)
        assert cumulant_ratio_from_weight_product(0.2499) < -10

    def test_relative_error_on_grid(self):
        # both ends of the bracket: tiny weights and nearly equal ones
        grid = np.concatenate([np.geomspace(1e-12, 0.25, 2000, endpoint=False),
                               0.25 - np.geomspace(1e-12, 0.25, 2000,
                                                   endpoint=False)])
        worst = max(
            abs(self.product(cumulant_ratio_from_weight_product(q))
                - q) / q for q in grid.tolist())
        assert worst <= 1e-14

    @pytest.mark.parametrize("ratio", [1e103, -1e103, math.inf, -math.inf,
                                       math.nan])
    def test_ratio_without_finite_cube_rejected(self, ratio):
        with pytest.raises(InconsistentMomentsError):
            estimate.solve_smaller_weight(ratio)

    def test_strictly_decreasing_on_grid(self):
        grid = np.linspace(1e-4, 0.25 - 1e-4, 1000)
        values = [cumulant_ratio_from_weight_product(q) for q in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_unique_interior_root(self):
        rng = random.Random(2)
        for _ in range(50):
            q = rng.uniform(1e-3, 0.25 - 1e-3)
            ratio = cumulant_ratio_from_weight_product(q)
            coeffs = [float(c) for c in weight_product_cubic(ratio)]
            roots = np.roots(coeffs[::-1])
            interior = [r for r in roots
                        if abs(r.imag) < 1e-9 and 0 < r.real < 0.25]
            assert len(interior) == 1


class TestFitTwoGaussians:
    def test_exact_recovery_order_five(self):
        rng = random.Random(3)
        p = rand_two_mixture(rng, 2)
        cum = models.homoscedastic_cumulants(p, 5)
        est = estimate.fit_two_gaussians(cum, order=5)
        assert match_two_components(est.params, p) < 1e-8
        assert est.diagnostics["residual"] < 1e-8
        assert est.diagnostics["order_used"] == 5

    def test_order_four_candidate_pair(self):
        rng = random.Random(4)
        p = rand_two_mixture(rng, 3)
        cum = models.homoscedastic_cumulants(p, 4)
        est = estimate.fit_two_gaussians(cum, order=4)
        assert est.params.weights[0] <= 0.5
        assert match_two_components(est.params, p) < 1e-8
        assert est.diagnostics["order_used"] == 4

    @pytest.mark.parametrize("eps", [Fraction(1, 10**6), Fraction(1, 10**9),
                                     Fraction(1, 10**10)], ids=str)
    def test_near_symmetric_weights(self, eps):
        # the weight is solved for directly: recovering it from the weight
        # product as 0.5 (1 - sqrt(1 - 4q)) cancels as q nears 1/4
        p = models.HomoscedasticParams(
            means=[[2], [-2]],
            weights=[Fraction(1, 2) - eps, Fraction(1, 2) + eps], cov=[[1]])
        est = estimate.fit_two_gaussians(models.homoscedastic_cumulants(p, 5))
        assert est.params.weights[0] == pytest.approx(float(p.weights[0]),
                                                      abs=1e-12)
        assert [m[0] for m in est.params.means] == pytest.approx([2, -2],
                                                                 abs=1e-6)
        assert est.diagnostics["near_symmetric"]

    def test_symmetric_mixture_rejected(self):
        p = models.HomoscedasticParams(
            means=((1, 0), (-1, 0)), weights=(Fraction(1, 2), Fraction(1, 2)),
            cov=((1, 0), (0, 1)))
        cum = models.homoscedastic_cumulants(p, 5)
        with pytest.raises(SymmetricMixtureError):
            estimate.fit_two_gaussians(cum)

    def test_off_axis_cumulants_consistent(self):
        rng = random.Random(5)
        p = rand_two_mixture(rng, 2)
        cum = models.homoscedastic_cumulants(p, 5)
        est = estimate.fit_two_gaussians(cum)
        # residual covers every mixed monomial the pivot did not use
        assert est.diagnostics["residual"] < 1e-8

    @pytest.mark.parametrize("order", [4, 5])
    def test_constant_column_does_not_pivot(self, order):
        # a nanosecond timestamp beside a mixture: the constant column's
        # rounding was the largest third cumulant, and the fit gave weight
        # 0.211, both means 2.099 and a variance of -168
        p = models.HomoscedasticParams(means=[[0.0], [3.0]],
                                       weights=[0.3, 0.7], cov=[[1.0]])
        x = models.sample_mixture(p, 100_000, seed=1)
        data = np.column_stack([x, np.full(len(x), 1.7e18)])
        est = estimate.fit_two_gaussians(estimate.sample_cumulants(data,
                                                                   order))
        assert est.diagnostics["pivot"] == 0
        assert est.params.weights[0] == pytest.approx(0.3, abs=0.01)
        assert [m[1] for m in est.params.means] == [1.7e18, 1.7e18]
        assert est.params.cov[1] == (0.0, 0.0)

    @pytest.mark.parametrize("order", [4, 5])
    def test_residual_does_not_move_with_the_origin(self, order):
        # rebuilt from the uncentred means, the fitted cumulants cancelled
        # in the float log: 0.0072 read 0.668 at +1e3 and 1.0 at +1e5
        p = models.HomoscedasticParams(
            means=[[0.0, 0.0], [2.5, 1.0]], weights=[0.3, 0.7],
            cov=[[1.0, 0.3], [0.3, 0.8]])
        sample = models.sample_mixture(p, 100_000, seed=3)
        residuals = [estimate.fit_two_gaussians(
            estimate.sample_cumulants(sample + c, order),
            order).diagnostics["residual"] for c in (0.0, 1e3, 1e5)]
        assert residuals[0] == pytest.approx(0.0072, abs=1e-4)
        assert residuals[1:] == pytest.approx(residuals[:1] * 2, rel=1e-9)

    def test_pivot_ratio_underflow(self):
        # the README mixture at 1e-70 of unit scale: the fourth power of
        # the pivot cube root is a normal float, the fifth underflows
        t = Fraction(1, 10**70)
        p = models.HomoscedasticParams(
            means=[[t, 0], [Fraction(-43, 100) * t, 0]],
            weights=[Fraction(3, 10), Fraction(7, 10)],
            cov=[[t * t, 0], [0, t * t]])
        cum = models.homoscedastic_cumulants(p, 5)
        est = estimate.fit_two_gaussians(cum, order=4)
        assert est.params.weights[0] == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(cum, order=5)
        assert caught.value.code == "INPUT_RANGE"
        assert str(caught.value) == (
            "cumulants too small: a pivot ratio underflows")

    def test_univariate_input(self):
        rng = random.Random(6)
        p = rand_two_mixture(rng, 1)
        cum = models.homoscedastic_cumulants(p, 5)
        est = estimate.fit_two_gaussians(cum)
        assert match_two_components(est.params, p) < 1e-8

    README = models.HomoscedasticParams(
        means=[[1.0, 0.0], [-0.43, 0.0]], weights=[0.3, 0.7],
        cov=[[1.0, 0.0], [0.0, 1.0]])

    def test_order_five_presentation_ignores_last_digits(self):
        cum = estimate.sample_cumulants(
            models.sample_mixture(self.README, 100_000, seed=7), 5)
        first, *perturbed = [
            estimate.fit_two_gaussians(cum * (1 + e), order=5)
            for e in (0.0, 1e-15, -1e-15)]
        assert first.params.weights[0] < 0.5
        for est in perturbed:
            # the same labels, so each component moves by rounding only
            assert est.params.weights == pytest.approx(first.params.weights,
                                                       rel=1e-12)
            for mean, want in zip(est.params.means, first.params.means):
                assert mean == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("percent", [20, 25, 35, 65, 75, 80])
    def test_order_five_puts_smaller_weight_first(self, percent):
        # lam and 1 - lam predict the same fifth-order ratio to the last
        # digit; choosing by it put 0.8, 0.75 and 0.65 first here
        lam = Fraction(percent, 100)
        p = models.HomoscedasticParams(
            means=[[1, 0], [-2, Fraction(1, 2)]], weights=[lam, 1 - lam],
            cov=[[1, 0], [0, 1]])
        est = estimate.fit_two_gaussians(models.homoscedastic_cumulants(p, 5),
                                         order=5)
        assert est.params.weights[0] == pytest.approx(min(lam, 1 - lam),
                                                      abs=1e-9)
        diag = est.diagnostics
        assert diag["ratio_b_residual"] == pytest.approx(
            abs(diag["ratio_b_predicted"] - diag["ratio_b"])
            / abs(diag["ratio_b"]), abs=0)
        assert diag["ratio_b_residual"] < 1e-9

    @pytest.mark.parametrize("digits", [3, 6, 9])
    def test_fifth_order_residual_is_relative(self, digits):
        # near equal weights the pivot ratios grow as eps^(-2/3): the
        # absolute residual of an exact fit reached 1e-2 at eps = 1e-9
        half, eps = Fraction(1, 2), Fraction(1, 10 ** digits)
        p = models.HomoscedasticParams(
            means=[[2], [-2]], weights=[half - eps, half + eps], cov=[[1]])
        est = estimate.fit_two_gaussians(models.homoscedastic_cumulants(p, 5),
                                         order=5)
        assert est.diagnostics["near_symmetric"]
        assert est.diagnostics["ratio_b_residual"] < 1e-7
        assert "cubic_roots" not in est.diagnostics

    @staticmethod
    def _edited(params, index, value):
        """The order-5 cumulants of ``params`` with the coefficient at
        ``index`` replaced by ``value``."""
        cum = models.homoscedastic_cumulants(params, 5)
        return ts.TruncatedSeries(2, 5, {**dict(cum.items()), index: value})

    # pivot 0: the second coordinate separates nothing
    EXACT = models.HomoscedasticParams(
        means=[[1, 0], [Fraction(-43, 100), 0]],
        weights=[Fraction(3, 10), Fraction(7, 10)], cov=[[1, 0], [0, 1]])

    @pytest.mark.parametrize("index", [(1, 0), (2, 0), (3, 0), (4, 0),
                                       (0, 3), (1, 4)],
                             ids=lambda a: "k%d%d" % a)
    def test_cumulant_out_of_float_range(self, index):
        # each of the first five ended in a bare OverflowError; (1, 4) is
        # read only by the residual
        with pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(
                self._edited(self.EXACT, index, Fraction(10**400)))
        assert caught.value.code == "INPUT_RANGE"
        assert str(caught.value) == (
            "cumulants too large: a cumulant is not a finite float")

    @pytest.mark.parametrize("index,value", [((2, 0), 1e308),
                                             ((1, 1), 1.7e308)],
                             ids=["moment-k20", "scale-k11"])
    def test_finite_cumulant_overflows(self, index, value):
        # the moment 2! c of (2, 0) is not a float, and read as inf it
        # ended in SYMMETRIC_MIXTURE; (1, 1) sets the covariance scale,
        # whose power 1.5 ended in a bare OverflowError
        with pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(
                self._edited(self.README, index, value))
        assert caught.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("third,order", [(1e300, 4), (1e300, 5),
                                             (1e210, 5)])
    def test_pivot_ratio_overflow(self, third, order):
        # 1e300 overflows t3 ** 4; 1e210 passes it and overflows t3 ** 5
        cum = self._edited(self.README, (3, 0), third)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(cum, order=order)
        assert caught.value.code == "INPUT_RANGE"
        assert str(caught.value) == (
            "cumulants too large: a pivot ratio overflows")

    @pytest.mark.parametrize("swap,index,value", [
        (False, (4, 0), math.inf), (False, (2, 0), -math.inf),
        (False, (1, 0), math.nan), (True, (2, 1), math.nan),
        (True, (0, 5), math.inf), (False, (2, 0), 1 + 1j)],
        ids=["inf-k40", "-inf-k20", "nan-k10", "nan-k21-pivot1",
             "inf-k05-pivot1", "complex-k20"])
    def test_non_finite_cumulant(self, swap, index, value):
        # with pivot 1 the closed form never reads (2, 1): its NaN was
        # dropped by the residual's max, and the fit reported 3.6e-15
        params = self.README
        if swap:
            params = models.HomoscedasticParams(
                means=[m[::-1] for m in params.means],
                weights=params.weights, cov=params.cov)
            assert estimate.fit_two_gaussians(
                models.homoscedastic_cumulants(params, 5)).diagnostics[
                    "pivot"] == 1
        with pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(self._edited(params, index, value))
        assert caught.value.code == "INPUT_PARSE"
        assert str(caught.value) == "cumulants must be finite"

    def test_insufficient_order(self):
        rng = random.Random(7)
        p = rand_two_mixture(rng, 2)
        with pytest.raises(InsufficientOrderError):
            estimate.fit_two_gaussians(models.homoscedastic_cumulants(p, 4),
                                       order=5)

    @pytest.mark.parametrize("order", [4.0, 4.5, "5"])
    def test_order_not_an_integer(self, order):
        # 4.0 passed "order in (4, 5)" and raised a bare TypeError later
        p = rand_two_mixture(random.Random(7), 2)
        with pytest.raises(InputError) as caught:
            estimate.fit_two_gaussians(models.homoscedastic_cumulants(p, 5),
                                       order=order)
        assert caught.value.code == "PRECONDITION"
        assert str(caught.value) == f"order must be an integer, got {order}"

    @pytest.mark.parametrize("moment_space,order,message", [
        (True, None, "expected a cumulant-space series (zero constant term)"),
        (False, 3, "order must be 4 or 5")], ids=["moment-space", "order-3"])
    def test_precondition(self, moment_space, order, message):
        series = (ts.TruncatedSeries.one(2, 4) if moment_space else
                  models.homoscedastic_cumulants(
                      rand_two_mixture(random.Random(7), 2), 5))
        with pytest.raises(PreconditionError) as caught:
            estimate.fit_two_gaussians(series, order=order)
        assert str(caught.value) == message

    def test_numpy_integer_order(self):
        cumulants = models.homoscedastic_cumulants(
            rand_two_mixture(random.Random(7), 2), 5)
        got = estimate.fit_two_gaussians(cumulants, order=np.int64(4))
        assert got.as_dict() == estimate.fit_two_gaussians(cumulants,
                                                           4).as_dict()


class TestDeconvolve:
    def test_zero_variance_is_identity(self):
        m = [Fraction(1), Fraction(2), Fraction(3)]
        assert ranktest.deconvolve_moments(m, 0) == m

    # the exact cases run on the oracle over Q (conftest); the library
    # deconvolves in floats and is held to it
    def test_low_order_forms(self):
        m1, m2, m3 = Fraction(2), Fraction(5), Fraction(11)
        s = Fraction(1, 3)
        mt = exact_deconvolve_moments([m1, m2, m3], s)
        assert mt[0] == m1
        assert mt[1] == m2 - s
        assert mt[2] == m3 - 3 * s * m1

    def test_gaussian_reduces_to_point(self):
        mu, s = Fraction(3, 2), Fraction(2, 5)
        g = models.homoscedastic_moments(gaussian_params((mu,), ((s,),)), 6)
        m = [g.moment((j,)) for j in range(1, 7)]
        assert exact_deconvolve_moments(m, s) == [mu ** j for j in range(1, 7)]

    def test_fractions_match_the_oracle_to_rounding(self):
        # Fraction entries are read as floats, and each float mt_j is
        # within rounding of the exact one: a few ulps of the sum of its
        # terms' magnitudes, which the oracle gives on |m| at -|s|
        rng = random.Random(33)
        for d in range(1, 9):
            m = [rand_fraction(rng) for _ in range(d)]
            s = rand_fraction(rng, num=20)
            got = ranktest.deconvolve_moments(m, s)
            want = exact_deconvolve_moments(m, s)
            sizes = exact_deconvolve_moments([abs(x) for x in m], -abs(s))
            assert all(type(x) is float for x in got)
            for x, y, size in zip(got, want, sizes):
                assert abs(x - float(y)) <= 1e-14 * float(size)

    @pytest.mark.parametrize("moments,variance", [
        ([Fraction(10) ** 400, 1], 0.5), ([0.0, 1.0], Fraction(10) ** 400),
        ([1e200, 1e300, 1e300, 1e300], 1e200)],
        ids=["moment", "variance", "deconvolved"])
    def test_out_of_float_range_is_range_error(self, moments, variance):
        with pytest.raises(InputError) as exc:
            ranktest.deconvolve_moments(moments, variance)
        assert exc.value.code == "INPUT_RANGE"


class TestQuadrature:
    def test_two_atom_hand_determinant(self):
        nodes = ranktest.quadrature_nodes([1, 2, 4], 2)
        assert nodes == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_single_atom(self):
        assert ranktest.quadrature_nodes([Fraction(7, 2)], 1) == \
            pytest.approx([3.5])

    def test_three_atom_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            atoms = sorted(rng.sample(range(-6, 7), 3))
            free = [Fraction(rng.randint(1, 5), 10) for _ in range(2)]
            weights = free + [1 - sum(free)]
            p = dirac_params(points=[(a,) for a in atoms], weights=weights)
            series = models.homoscedastic_moments(p, 5)
            m = [series.moment((j,)) for j in range(1, 6)]
            nodes = ranktest.quadrature_nodes(m, 3)
            assert nodes == pytest.approx(atoms, abs=1e-8)
            got = ranktest.quadrature_weights(nodes, m)
            assert got == pytest.approx([float(w) for w in weights], abs=1e-8)

    def test_rank_deficiency_detected(self):
        # two atoms offered as three
        p = dirac_params(points=((0,), (2,)),
                         weights=(Fraction(1, 2), Fraction(1, 2)))
        series = models.homoscedastic_moments(p, 5)
        m = [series.moment((j,)) for j in range(1, 6)]
        with pytest.raises(RankDeficientMomentsError):
            ranktest.quadrature_nodes(m, 3)
        # a negative variance: the lead minor is -1, and no root is real
        with pytest.raises(RankDeficientMomentsError) as caught:
            ranktest.quadrature_nodes([0, -1, 0], 2)
        assert str(caught.value) == "expected 2 real atom locations, found 0"

    def test_weights_for_two_known_atoms(self):
        assert ranktest.quadrature_weights([0.0, 2.0], [1, 2, 4]) == \
            pytest.approx([0.5, 0.5])
        assert ranktest.quadrature_weights([3.5], [Fraction(7, 2)]) == \
            pytest.approx([1.0])

    def test_repeated_locations_rejected(self):
        with pytest.raises(SingularSystemError):
            ranktest.quadrature_weights([1.0, 1.0 + 1e-14], [1, 1])

    @pytest.mark.parametrize("node,code", [
        (math.nan, "INPUT_PARSE"), (math.inf, "INPUT_PARSE"),
        ("1", "INPUT_PARSE"), (10 ** 400, "INPUT_RANGE")],
        ids=["nan", "inf", "string", "10**400"])
    def test_node_not_a_finite_float_rejected(self, node, code):
        # a NaN gave NaN weights, an infinity "repeated atom locations"
        # and a string a bare ValueError
        with pytest.raises(InputError) as caught:
            ranktest.quadrature_weights([node, 2.0], [1.0])
        assert caught.value.code == code

    def test_nonnegative_weights_on_valid_mixtures(self):
        rng = random.Random(9)
        for _ in range(20):
            atoms = sorted(rng.sample(range(-9, 10), 2))
            lam = Fraction(rng.randint(5, 95), 100)
            p = dirac_params(points=[(a,) for a in atoms],
                             weights=(lam, 1 - lam))
            series = models.homoscedastic_moments(p, 3)
            m = [series.moment((j,)) for j in range(1, 4)]
            got = ranktest.quadrature_weights(
                ranktest.quadrature_nodes(m, 2), m)
            assert all(w > 0 for w in got)


class TestVariancePolynomial:
    # exact coefficients come from the test oracle (conftest); the
    # library's polynomial is float and is held to them

    def test_single_component_closed_form(self):
        m1, m2 = Fraction(2), Fraction(9, 2)
        coeffs = exact_variance_polynomial([m1, m2], 1)
        roots = [-coeffs[0] / coeffs[1]]
        assert roots[0] == m2 - m1 ** 2
        floats = ranktest.variance_polynomial([m1, m2], 1)
        assert -floats[0] / floats[1] == pytest.approx(0.5, rel=1e-14)

    def test_degree_is_triangular_number(self):
        rng = random.Random(10)
        for k in (1, 2, 3):
            p = models.HomoscedasticParams(
                means=[[j * 2] for j in range(k)],
                weights=[Fraction(1, k)] * k,
                cov=[[Fraction(1, 4)]])
            m = univariate_moments(p, 2 * k)
            coeffs = exact_variance_polynomial(m, k)
            assert poly_degree(coeffs) == k * (k + 1) // 2
            floats = ranktest.variance_polynomial(m, k)
            assert poly_degree(floats, rel_tol=1e-6) == k * (k + 1) // 2

    def test_true_variance_is_a_root(self):
        rng = random.Random(11)
        for k in (2, 3):
            atoms = rng.sample(range(-5, 6), k)
            free = [Fraction(rng.randint(1, 4), 10) for _ in range(k - 1)]
            weights = free + [1 - sum(free)]
            s = Fraction(rng.randint(1, 8), 8)
            p = models.HomoscedasticParams(means=[[a] for a in atoms],
                                           weights=weights, cov=[[s]])
            m = univariate_moments(p, 2 * k)
            coeffs = exact_variance_polynomial(m, k)
            assert poly_eval(coeffs, s) == 0
            floats = ranktest.variance_polynomial(m, k)
            top = max(abs(float(c)) * float(s) ** i
                      for i, c in enumerate(coeffs))
            assert abs(poly_eval(floats, float(s))) <= 1e-9 * top

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ignores_moments_past_order_2k(self, k):
        # float coefficients included: higher moments must not move the
        # interpolation nodes
        rng = random.Random(12)
        m = [rng.uniform(-3.0, 3.0) for _ in range(2 * k + 3)]
        assert (ranktest.variance_polynomial(m, k)
                == ranktest.variance_polynomial(m[:2 * k], k))


class TestFitUnivariate:
    def test_single_gaussian_exact(self):
        est = estimate.fit_univariate([Fraction(1), Fraction(3)], 1)
        assert float(est.params.means[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert float(est.params.cov[0][0]) == pytest.approx(2.0, abs=1e-12)

    def test_two_component_quarter_variance(self):
        p = models.HomoscedasticParams(
            means=[[0], [2]], weights=[Fraction(1, 2), Fraction(1, 2)],
            cov=[[Fraction(1, 4)]])
        est = estimate.fit_univariate(univariate_moments(p, 4), 2)
        assert est.diagnostics["selected_variance"] == pytest.approx(0.25, abs=1e-10)
        assert sorted(float(m[0]) for m in est.params.means) == \
            pytest.approx([0.0, 2.0], abs=1e-10)
        assert list(est.params.weights) == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_pure_atomic_input_gives_zero_variance(self):
        p = dirac_params(points=((-1,), (3,)),
                         weights=(Fraction(2, 5), Fraction(3, 5)))
        series = models.homoscedastic_moments(p, 4)
        m = [series.moment((j,)) for j in range(1, 5)]
        est = estimate.fit_univariate(m, 2)
        assert est.diagnostics["selected_variance"] == 0.0
        assert sorted(float(x[0]) for x in est.params.means) == \
            pytest.approx([-1.0, 3.0], abs=1e-9)

    def test_undercomplete_input_degrades_to_error(self):
        p = models.HomoscedasticParams(
            means=[[0], [3]], weights=[Fraction(1, 2), Fraction(1, 2)],
            cov=[[Fraction(1, 2)]])
        with pytest.raises((RankDeficientMomentsError, ModelMismatchError)):
            estimate.fit_univariate(univariate_moments(p, 6), 3)

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrderError):
            estimate.fit_univariate([1.0, 2.0, 3.0], 2)

    def test_root_helpers_at_their_edges(self):
        # a constant has no roots, and Newton stops where the derivative
        # of (x - 1)^2 vanishes, at its double root
        assert _poly.real_roots([3.0]) == []
        assert estimate._polish_root([1.0, -2.0, 1.0], 1.0) == 1.0

    @pytest.mark.parametrize("moments", [[1 + 1j, 2], [1.0, np.complex128(2)],
                                         [1.0, "2"]],
                             ids=["complex", "numpy-complex", "string"])
    def test_moment_not_a_real_number(self, moments):
        # math.isfinite raised a bare TypeError
        with pytest.raises(InputError) as caught:
            estimate.fit_univariate(moments, 1)
        assert caught.value.code == "INPUT_PARSE"


class TestNormalForm:
    def test_exact_shift_and_standardisation(self):
        # N(1, 2) moved to 10**6: its central moments are 0, 2, 0, 12
        p = models.HomoscedasticParams(means=[[10 ** 6 + 1]], weights=[1],
                                       cov=[[2]])
        form = ranktest.normal_form(univariate_moments(p, 4))
        assert form.mean == 10 ** 6 + 1
        assert form.variance == pytest.approx(2.0, rel=1e-12)
        assert form.moments[0] == 0.0
        assert form.moments == pytest.approx([0.0, 1.0, 0.0, 3.0],
                                             rel=1e-12, abs=1e-12)

    def test_float_entries_are_shifted_without_rounding(self):
        # in floats the central variance of (0.1, 0.1 * 0.1) is 0; the
        # floats as exact rationals leave the rounding of the square
        m1, m2 = 0.1, 0.1 * 0.1
        assert m2 - m1 * m1 == 0.0
        form = ranktest.normal_form([m1, m2])
        assert form.variance == float(Fraction(m2) - Fraction(m1) ** 2)
        assert 0.0 < form.variance < 1e-18

    def test_centred_moments_skip_the_shift(self, monkeypatch):
        # m_1 exactly 0: no exact arithmetic, as for sample moments
        def no_shift(*args):
            raise AssertionError("exact arithmetic on centred input")

        monkeypatch.setattr(ts, "exact_shift", no_shift)
        form = ranktest.normal_form([0.0, 4.0, 8.0, 48.0])
        assert (form.mean, form.variance) == (0.0, 4.0)
        assert form.moments == [0.0, 1.0, 1.0, 3.0]
        with pytest.raises(AssertionError):
            ranktest.normal_form([1.0, 4.0, 8.0, 48.0])

    def test_long_exact_vector(self):
        # 81 moments, past the size rule of series: 1/2 at 1 and 1/2 at 3
        # is 2 +- 1, with central moments 0 and 1 in turn
        m = [Fraction(1 + 3 ** j, 2) for j in range(1, 82)]
        form = ranktest.normal_form(m)
        assert (form.mean, form.variance) == (2.0, 1.0)
        assert form.moments == [float(j % 2 == 0) for j in range(1, 82)]

    def test_non_positive_variance_left_unscaled(self):
        form = ranktest.normal_form([1.0, 1.0, 5.0])
        assert form == ranktest.NormalForm(1.0, 1.0, [0.0, 0.0, 4.0])

    def test_idempotent(self):
        form = ranktest.normal_form([1, 3, 7])
        assert ranktest.normal_form(form) is form

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(InputError) as caught:
            ranktest.normal_form([1.0, bad, 3.0])
        assert caught.value.code == "INPUT_PARSE"
        assert str(caught.value) == "moments must be finite"

    def test_central_moment_out_of_float_range(self):
        # the central variance 1e200 - 1e400
        with pytest.raises(InputError) as caught:
            ranktest.normal_form([1e200, 1e200, 1e200])
        assert caught.value.code == "INPUT_RANGE"


class TestIdentifiabilityCurve:
    def test_exact_points_lie_on_curve(self):
        rng = random.Random(12)
        poles = {Fraction(1, 6), Fraction(1, 4), Fraction(1, 12), Fraction(1)}
        for _ in range(20):
            q = rand_fraction(rng, num=30, den=31)
            if q in poles:
                continue
            assert estimate.identifiability_curve_residual(q) == 0

    def test_every_term_vanishes_at_one_sixth(self):
        # x and y carry (1 - 6q), and every term has one of them
        assert estimate.identifiability_curve_residual(Fraction(1, 6)) == 0.0

    def test_float_points_stay_small(self):
        for q in np.linspace(0.02, 0.9, 15):
            assert estimate.identifiability_curve_residual(float(q)) < 1e-9
        # max(0.0, nan, ...) is 0.0, so an unchecked NaN would read as a
        # point on the curve
        for q, code in ((math.nan, "INPUT_PARSE"), (math.inf, "INPUT_PARSE"),
                        ("x", "INPUT_PARSE"), (1e200, "INPUT_RANGE"),
                        (Fraction(10**200), "INPUT_RANGE")):
            with pytest.raises(InputError) as caught:
                estimate.identifiability_curve_residual(q)
            assert caught.value.code == code, q
