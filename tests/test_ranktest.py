"""Secant membership, hypersurface polynomials, component counting."""

import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from conftest import (
    exact_hankel_pencil,
    exact_minor_values,
    lagrange_interpolate,
    rand_fraction,
    univariate_moments,
)
from homoment import _poly, estimate, models, ranktest
from homoment import series as ts
from homoment._poly import poly_eval
from homoment.errors import (DimensionMismatchError, InputError,
                             InsufficientOrderError, PreconditionError)


_SAMPLE = np.random.default_rng(1).normal(size=500)


def _two_mixture_cumulants(lam, t, order=5):
    """Raw cumulants 3..order of a centered two-atom part scaled by t."""
    return [math.factorial(j) * estimate.two_point_cumulant_coeff(lam, j) * t ** j
            for j in range(3, order + 1)]


class TestClosedForms:
    def test_k3_on_gaussian(self):
        # N(1, 2): m = (1, 3, 7)
        assert ranktest.cumulant_k3(1, 3, 7) == 0

    def test_k3_odd_symmetry(self):
        assert ranktest.cumulant_k3(0, Fraction(5, 3), 0) == 0

    def test_k3_detects_two_mixture(self):
        p = models.HomoscedasticParams(
            means=[[0], [2]], weights=[Fraction(3, 10), Fraction(7, 10)],
            cov=[[1]])
        m = univariate_moments(p, 3)
        assert ranktest.cumulant_k3(*m) != 0

    def test_k3_matches_log_transform_on_random_rationals(self):
        rng = random.Random(1)
        for _ in range(30):
            m1, m2, m3 = (rand_fraction(rng) for _ in range(3))
            series = ts.TruncatedSeries.from_moments(
                1, 3, {(1,): m1, (2,): m2, (3,): m3})
            assert (ranktest.cumulant_k3(m1, m2, m3)
                    == ts.log(series).moment((3,)))

    def test_invariant_zero_plane(self):
        assert ranktest.two_secant_invariant(0, 0, Fraction(7, 2)) == 0

    def test_invariant_vanishes_on_two_mixtures(self):
        rng = random.Random(2)
        for _ in range(20):
            lam = Fraction(rng.randint(1, 99), 100)
            t = rand_fraction(rng, nonzero=True)
            k3, k4, k5 = _two_mixture_cumulants(lam, t)
            assert ranktest.two_secant_invariant(k3, k4, k5) == 0

    def test_invariant_weighted_homogeneity(self):
        rng = random.Random(3)
        for _ in range(10):
            k3, k4, k5 = (rand_fraction(rng) for _ in range(3))
            t = rand_fraction(rng, nonzero=True)
            scaled = ranktest.two_secant_invariant(t ** 3 * k3, t ** 4 * k4,
                                                   t ** 5 * k5)
            assert scaled == t ** 18 * ranktest.two_secant_invariant(k3, k4, k5)


def assert_pencils_agree(pencil, exact):
    """The float ``pencil`` has the exact one's layout, and each of its
    coefficients is within 1e-12 of the largest exact coefficient."""
    assert (pencil.k, pencil.weights) == (exact.k, exact.weights)
    top = max(abs(c) for coeffs in exact.minors for c in coeffs)
    for coeffs, want in zip(pencil.minors, exact.minors):
        assert len(coeffs) == len(want)
        assert max(abs(a - b) for a, b in zip(coeffs, want)) <= 1e-12 * top


class TestPencil:
    # the exact pencil is a test oracle (conftest); the library's pencil
    # is float and is held to it

    def test_smallest_case_minors(self):
        # N(1, 2): minors 2 - s, 4 - 2s, -2 + 3s - s^2 share the root s = 2
        m = [Fraction(1), Fraction(3), Fraction(7)]
        pencil = exact_hankel_pencil(m, 1)
        assert pencil.nminors == 3
        assert pencil.minors[0] == (2, -1)
        assert pencil.minors[1] == (4, -2)
        assert pencil.minors[2] == (-2, 3, -1)
        for coeffs in pencil.minors:
            assert poly_eval(list(coeffs), Fraction(2)) == 0
        assert_pencils_agree(ranktest.hankel_pencil(m, 1), pencil)

    def test_two_mixture_minors_share_variance_root(self):
        p = models.HomoscedasticParams(
            means=[[-1], [2]], weights=[Fraction(2, 5), Fraction(3, 5)],
            cov=[[Fraction(3, 8)]])
        m = univariate_moments(p, 5)
        pencil = exact_hankel_pencil(m, 2)
        for coeffs in pencil.minors:
            assert poly_eval(list(coeffs), Fraction(3, 8)) == 0
        assert_pencils_agree(ranktest.hankel_pencil(m, 2), pencil)

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrderError):
            ranktest.hankel_pencil([1.0, 2.0, 3.0], 2)

    def test_polynomials_match_direct_evaluation(self):
        rng = random.Random(4)
        m = [rand_fraction(rng) for _ in range(5)]
        pencil = exact_hankel_pencil(m, 2)
        s = Fraction(5, 7)
        direct = exact_minor_values(m, 2, s)
        assert [poly_eval(list(c), s) for c in pencil.minors] == direct
        floats = ranktest.pencil_minor_values(m, 2, s)
        assert floats == pytest.approx([float(x) for x in direct],
                                       rel=1e-12, abs=1e-12)
        assert_pencils_agree(ranktest.hankel_pencil(m, 2), pencil)


class TestMembership:
    def test_gaussian_accepted_at_one(self):
        v = ranktest.secant_membership([1.0, 3.0, 7.0], 1)
        assert v.on_model
        assert v.witness_s == pytest.approx(2.0, abs=1e-9)

    def test_two_mixture_rejected_at_one(self):
        p = models.HomoscedasticParams(
            means=[[0], [2]], weights=[Fraction(3, 10), Fraction(7, 10)],
            cov=[[Fraction(1, 4)]])
        m = [float(x) for x in univariate_moments(p, 5)]
        assert not ranktest.secant_membership(m, 1).on_model

    def test_two_mixture_accepted_at_two_with_true_witness(self):
        p = models.HomoscedasticParams(
            means=[[0], [2]], weights=[Fraction(3, 10), Fraction(7, 10)],
            cov=[[Fraction(1, 4)]])
        m = [float(x) for x in univariate_moments(p, 5)]
        v = ranktest.secant_membership(m, 2)
        assert v.on_model
        assert v.witness_s == pytest.approx(0.25, abs=1e-6)

    def test_off_model_residual_bounded_away(self):
        rng = random.Random(5)
        for _ in range(10):
            m = [rng.uniform(-2, 2), rng.uniform(1, 4), rng.uniform(-4, 4),
                 rng.uniform(2, 20), rng.uniform(-20, 20)]
            v = ranktest.secant_membership(m, 1)
            assert v.residual > 1e-4

    def test_nesting(self):
        p = models.HomoscedasticParams(
            means=[[-2], [1]], weights=[Fraction(1, 3), Fraction(2, 3)],
            cov=[[Fraction(1, 2)]])
        m = univariate_moments(p, 7)
        assert ranktest.secant_membership(m, 2).on_model
        assert ranktest.secant_membership(m, 3).on_model


class TestNormalFormEntryPoints:
    """Every univariate entry point runs on the normal form."""

    # three moments each; with k = 1 the fit would read m_1 and m_2 only
    ENTRY_POINTS = {
        "secant_membership": lambda m: ranktest.secant_membership(m, 1),
        "component_ladder": lambda m: ranktest.component_ladder(m, 1),
        "estimate_components": lambda m: ranktest.estimate_components(m, 1),
        "fit_univariate": lambda m: estimate.fit_univariate(m + [1.0], 2),
    }

    # these read the moments as given, with the same finiteness check
    PENCIL_ENTRY_POINTS = {
        "hankel_pencil": lambda m: ranktest.hankel_pencil(m, 1),
        "variance_polynomial": lambda m: ranktest.variance_polynomial(m, 1),
        "pencil_minor_values":
            lambda m: ranktest.pencil_minor_values(m, 1, 0.5),
        "pencil_minor_values-stack":
            lambda m: ranktest.pencil_minor_values(np.array([m, m]), 1, 0.5),
        "quadrature_nodes": lambda m: ranktest.quadrature_nodes(m, 1),
        "quadrature_weights":
            lambda m: ranktest.quadrature_weights([0.0], m),
        "deconvolve_moments": lambda m: ranktest.deconvolve_moments(m, 0.5),
    }

    # the k axis: every univariate entry point as a call on (moments, k),
    # and the moment order it needs for k (None: it reads a sample)
    BY_K = {
        "secant_membership": (ranktest.secant_membership, lambda k: 2 * k),
        "component_ladder": (ranktest.component_ladder, lambda k: 2 * k + 1),
        "estimate_components":
            (ranktest.estimate_components, lambda k: 2 * k + 1),
        "fit_univariate": (estimate.fit_univariate, lambda k: 2 * k),
        "hankel_pencil": (ranktest.hankel_pencil, lambda k: 2 * k),
        "variance_polynomial":
            (ranktest.variance_polynomial, lambda k: 2 * k),
        "pencil_minor_values":
            (lambda m, k: ranktest.pencil_minor_values(m, k, 0.5),
             lambda k: 2 * k),
        "pencil_minor_values-stack":
            (lambda m, k: ranktest.pencil_minor_values(np.array([m, m]), k,
                                                       0.5),
             lambda k: 2 * k),
        "quadrature_nodes": (ranktest.quadrature_nodes, lambda k: 2 * k - 1),
        # k is the number of nodes: none at k = 0
        "quadrature_weights":
            (lambda m, k: ranktest.quadrature_weights([-1.0, 1.0, 2.0][:k], m),
             lambda k: k - 1),
        "estimate_components_from_data":
            (lambda m, k: ranktest.estimate_components_from_data(_SAMPLE, k),
             None),
    }
    # the entries whose k is a k_max, which they name so
    K_MAX = {"component_ladder", "estimate_components",
             "estimate_components_from_data"}
    # standard normal moments m_1..m_7
    NORMAL = [0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0]

    @pytest.mark.parametrize("entry,k", [
        (entry, k) for entry in sorted(BY_K) for k in (0, -1)
        if (entry, k) != ("quadrature_weights", -1)])
    def test_k_below_one(self, entry, k):
        call, _ = self.BY_K[entry]
        with pytest.raises(InputError) as exc:
            call(self.NORMAL, k)
        assert exc.value.code == "PRECONDITION"
        name = "k_max" if entry in self.K_MAX else "k"
        assert str(exc.value) == f"{name} must be at least 1, got {k}"

    # k is the number of nodes for quadrature_weights, not a rule's k
    @pytest.mark.parametrize("entry,k", [
        (entry, k) for entry in sorted(BY_K) for k in (1.5, 2.0)
        if entry != "quadrature_weights"])
    def test_k_not_an_integer(self, entry, k):
        call, _ = self.BY_K[entry]
        with pytest.raises(InputError) as exc:
            call(self.NORMAL, k)
        assert exc.value.code == "PRECONDITION"
        name = "k_max" if entry in self.K_MAX else "k"
        assert str(exc.value) == f"{name} must be an integer, got {k}"

    @pytest.mark.parametrize("entry", sorted(BY_K))
    def test_numpy_integer_k(self, entry):
        # operator.index takes numpy integers
        self.BY_K[entry][0](self.NORMAL, np.int64(1))

    @pytest.mark.parametrize("entry,k", [
        (entry, k) for entry, (_, need) in BY_K.items() for k in (1, 2, 3)
        if need is not None and need(k) >= 1])
    def test_one_moment_short(self, entry, k):
        call, need = self.BY_K[entry]
        with pytest.raises(InputError) as exc:
            call(self.NORMAL[:need(k) - 1], k)
        assert exc.value.code == "INSUFFICIENT_ORDER"
        assert str(exc.value) == (f"need moment order {need(k)}, "
                                  f"got {need(k) - 1}")

    @pytest.mark.parametrize("entry", [
        "secant_membership", "component_ladder", "estimate_components"])
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0,
                                           "a", None])
    def test_threshold_must_be_finite_and_positive(self, entry, threshold):
        # the CLI's --threshold refuses these too; a string or None raised
        # a bare TypeError
        with pytest.raises(InputError) as exc:
            self.BY_K[entry][0](self.NORMAL[:5], 2, threshold=threshold)
        assert exc.value.code == "PRECONDITION"
        assert str(exc.value) == ("threshold must be finite and above 0, "
                                  f"got {threshold}")

    @pytest.mark.parametrize("call", [
        lambda s: ranktest.deconvolve_moments([0.0, 1.0, 0.0], s),
        lambda s: ranktest.pencil_minor_values([0.0, 1.0, 0.0], 1, s),
        lambda s: ranktest.pencil_minor_values([0.0, 1.0, 0.0], 1, [0.5, s]),
        lambda s: ranktest.pencil_minor_values(
            np.array([[0.0, 1.0, 0.0]] * 2), 1, s)],
        ids=["deconvolve", "minors", "minors-at-many", "minors-stack"])
    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_variance_must_be_finite(self, call, variance):
        with pytest.raises(InputError) as exc:
            call(variance)
        assert exc.value.code == "INPUT_PARSE"
        assert str(exc.value) == "variance must be finite"

    @pytest.mark.parametrize("entry",
                             sorted(ENTRY_POINTS) + sorted(PENCIL_ENTRY_POINTS))
    @pytest.mark.parametrize("moments", [
        [math.nan, 2.0, 3.0], [1.0, math.inf, 3.0], [1.0, 2.0, -math.inf]],
        ids=["nan", "inf", "-inf"])
    def test_non_finite_moments(self, entry, moments):
        with pytest.raises(InputError) as exc:
            {**self.ENTRY_POINTS, **self.PENCIL_ENTRY_POINTS}[entry](moments)
        assert exc.value.code == "INPUT_PARSE"
        assert str(exc.value) == "moments must be finite"

    @pytest.mark.parametrize("entry",
                             sorted(ENTRY_POINTS) + sorted(PENCIL_ENTRY_POINTS))
    @pytest.mark.parametrize("moments", [
        [Fraction(10**400), 1, 2], [1, Fraction(10**400), 2],
        [-10**400, 1, 2]], ids=["m1", "m2", "int"])
    def test_moments_out_of_float_range(self, entry, moments):
        # finite, so past the finiteness check, but not a float: every
        # entry point converts through one helper that says so
        with pytest.raises(InputError) as exc:
            {**self.ENTRY_POINTS, **self.PENCIL_ENTRY_POINTS}[entry](moments)
        assert exc.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("call", [
        lambda s: ranktest.pencil_minor_values([0.0, 1.0, 0.0], 1, s),
        lambda s: ranktest.pencil_minor_values([0.0, 1.0, 0.0], 1, [0.5, s]),
        lambda s: ranktest.pencil_minor_values(
            np.array([[0.0, 1.0, 0.0]] * 2), 1, s)],
        ids=["minors", "minors-at-many", "minors-stack"])
    def test_variance_out_of_float_range(self, call):
        with pytest.raises(InputError) as exc:
            call(Fraction(10**400))
        assert exc.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_standardised_overflow(self, entry):
        # finite, but m_3 / sd**3 is not a float: out of range, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as exc:
                self.ENTRY_POINTS[entry]([0.0, 1e-300, 1e100])
        assert exc.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("scale", [1e20, 1e40])
    def test_huge_scale_is_standardised(self, scale):
        # raw, these moments raised numpy's RankWarning and rejected k = 2
        # at 1e20 and gave INPUT_RANGE at 1e40
        p = models.HomoscedasticParams(
            means=[[0], [3]], weights=[Fraction(2, 5), Fraction(3, 5)],
            cov=[[Fraction(1, 2)]])
        m = [float(x) * scale ** j
             for j, x in enumerate(univariate_moments(p, 5), start=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder = ranktest.component_ladder(m, 2)
            est = estimate.fit_univariate(m[:4], 2)
        assert [v.on_model for v in ladder] == [False, True]
        assert ladder[1].witness_s / scale ** 2 == pytest.approx(0.5, rel=1e-9)
        assert list(est.params.weights) == pytest.approx([0.4, 0.6], abs=1e-9)
        assert [x / scale for x, in est.params.means] == pytest.approx(
            [0.0, 3.0], abs=1e-9)
        assert est.params.cov[0][0] / scale ** 2 == pytest.approx(0.5,
                                                                  rel=1e-9)


class TestComponentCount:
    def test_gaussian(self):
        g = models.HomoscedasticParams(means=[[Fraction(3, 4)]], weights=[1],
                                       cov=[[Fraction(5, 4)]])
        assert ranktest.estimate_components(univariate_moments(g, 5), 2) == 1

    def test_separated_two_mixture(self):
        p = models.HomoscedasticParams(
            means=[[0], [3]], weights=[Fraction(2, 5), Fraction(3, 5)],
            cov=[[Fraction(1, 2)]])
        assert ranktest.estimate_components(univariate_moments(p, 7), 3) == 2

    def test_sentinel_when_nothing_fits(self):
        rng = random.Random(6)
        m = [rng.uniform(-1, 1), rng.uniform(2, 3), rng.uniform(-5, 5),
             rng.uniform(8, 30), rng.uniform(-60, 60)]
        assert ranktest.estimate_components(m, 1) == 2

    def test_needs_enough_moments(self):
        with pytest.raises(InsufficientOrderError):
            ranktest.estimate_components([1.0, 2.0, 3.0], 2)

    def test_consistency_with_univariate_fit(self):
        p = models.HomoscedasticParams(
            means=[[-1], [2]], weights=[Fraction(1, 4), Fraction(3, 4)],
            cov=[[Fraction(1, 3)]])
        m = univariate_moments(p, 5)
        v = ranktest.secant_membership(m, 2)
        assert v.on_model
        est = estimate.fit_univariate(m[:4], 2)
        assert est.diagnostics["selected_variance"] == pytest.approx(
            v.witness_s, abs=1e-6)

    def test_noisy_counts(self):
        p = models.HomoscedasticParams(means=[[0.0], [2.5]],
                                       weights=[0.35, 0.65], cov=[[0.5]])
        data = models.sample_mixture(p, 100_000, seed=11)
        k_hat, verdicts = ranktest.estimate_components_from_data(data, 3)
        assert k_hat == 2
        assert [v.on_model for v in verdicts[:2]] == [False, True]

        g = models.HomoscedasticParams(means=[[1.0]], weights=[1.0],
                                       cov=[[2.0]])
        gdata = models.sample_mixture(g, 100_000, seed=12)
        assert ranktest.estimate_components_from_data(gdata, 3)[0] == 1

    def test_count_is_shift_invariant(self):
        # uncentred, this sample counted 2, 2, 1, 1 components
        p = models.HomoscedasticParams(means=[[0.0], [2.0]],
                                       weights=[0.3, 0.7], cov=[[0.25]])
        data = models.sample_mixture(p, 100_000, seed=5)
        counts = [ranktest.estimate_components_from_data(data + c, 3)[0]
                  for c in (0.0, 10.0, 100.0, 1000.0)]
        assert counts == [2, 2, 2, 2]

    def test_count_is_scale_invariant(self):
        # unstandardised, this sample counted 3, 2, 2, 3, 3, 3 components
        p = models.HomoscedasticParams(means=[[0.0], [2.0]],
                                       weights=[0.3, 0.7], cov=[[0.25]])
        data = models.sample_mixture(p, 100_000, seed=5)
        scales = (1e-3, 1.0, 10.0, 100.0, 1e4, 1e6)
        runs = [ranktest.estimate_components_from_data(c * data, 2)
                for c in scales]
        assert [k_hat for k_hat, _ in runs] == [2] * len(scales)
        # the witness variances come back in data units
        _, unit = runs[1]
        for c, (_, verdicts) in zip(scales, runs):
            for v, w in zip(verdicts, unit):
                assert v.residual == pytest.approx(w.residual, rel=1e-6)
                assert v.witness_s == pytest.approx(c * c * w.witness_s,
                                                    rel=1e-6)

    def test_constant_sample_counts_one(self):
        # the moments about the float mean are its rounding, and
        # standardised they counted k_max + 1 at some sizes
        for value in (0.1, 3.0, 1 / 3, 1e-5, 123456.789, 4.1e46, 1e250):
            counts = [ranktest.estimate_components_from_data(
                np.full(count, value), 2)[0] for count in (3, 7, 10, 1000)]
            assert counts == [1, 1, 1, 1], value

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 123456.789])
    def test_one_ulp_spread_is_two_atoms(self, value):
        # half the sample one ulp above the rest: its mean is not a float,
        # so only an exact shift to it reads the true central moments
        for count in (10, 1000, 100_000):
            x = np.full(count, value)
            x[::2] = np.nextafter(value, np.inf)
            assert ranktest.sample_normal_form(x, 4).moments == [
                0.0, 1.0, 0.0, 1.0]
            assert ranktest.estimate_components_from_data(x, 2)[0] == 1

    def test_timestamp_gaussian_counts_one(self):
        # the float mean of stamps near 1.7e18 is off by up to half their
        # 256 ulp, and dropping that m1 read a skewness of -0.085 for
        # -0.004 and counted 2; the pass flags such a column and shifts it
        # exactly to its mean
        x = 1.7e18 + 1e4 * np.random.default_rng(2).standard_normal(100_000)
        assert ranktest.estimate_components_from_data(x, 2)[0] == 1
        skew = ranktest.sample_normal_form(x, 3).moments[2]
        assert skew == pytest.approx(-0.00415, abs=1e-4)

    def test_underflowing_moments_are_refused(self):
        # at 1e-33 the count read its high moments as 0 and returned 3
        # with infinite residuals; the sample counts 2 in unit scale
        p = models.HomoscedasticParams(means=[[-1.0], [2.0]],
                                       weights=[0.4, 0.6], cov=[[0.6]])
        data = models.sample_mixture(p, 100_000, seed=12)
        assert ranktest.estimate_components_from_data(data * 1e-31, 2)[0] == 2
        with pytest.raises(InputError) as caught:
            ranktest.estimate_components_from_data(data * 1e-33, 2)
        assert caught.value.code == "INPUT_RANGE"

    @staticmethod
    def _direct_residuals(data, verdicts):
        """Each verdict's whitened minors, evaluated directly at its
        witness, squared and summed."""
        arr = data.ravel() - ranktest.sample_normal_form(data, 1).mean
        m = ranktest.raw_moments(arr, 5)
        first = {k: ranktest.secant_membership(m, k).witness_s
                 for k in (1, 2)}
        scales = ranktest._delta_scales(ranktest.raw_moments(arr, 10),
                                        arr.size, first, 5)
        return [sum((x / s) ** 2 for x, s in zip(
                    ranktest.pencil_minor_values(m, v.k, v.witness_s),
                    scales[v.k]))
                for v in verdicts]

    def test_residual_is_sum_of_squared_whitened_minors(self):
        # the expanded sum of squares loses digits to cancellation; the
        # reported residual must equal the minors squared and summed
        p = models.HomoscedasticParams(means=[[0.0], [2.5]],
                                       weights=[0.35, 0.65], cov=[[0.5]])
        data = models.sample_mixture(p, 20_000, seed=0)
        _, verdicts = ranktest.estimate_components_from_data(data, 2)
        for v, direct in zip(verdicts,
                             self._direct_residuals(data, verdicts)):
            assert v.residual == pytest.approx(direct, rel=1e-9)

    def test_residual_is_directly_evaluated_to_twelve_digits(self):
        p = models.HomoscedasticParams(means=[[0.0], [2.5]],
                                       weights=[0.35, 0.65], cov=[[0.5]])
        data = models.sample_mixture(p, 20_000, seed=3)
        _, verdicts = ranktest.estimate_components_from_data(data, 2)
        for v, direct in zip(verdicts,
                             self._direct_residuals(data, verdicts)):
            assert v.residual == pytest.approx(direct, rel=1e-12, abs=0)

    @pytest.mark.parametrize("call", [
        lambda: ranktest.estimate_components_from_data(_SAMPLE, 0),
        lambda: ranktest.estimate_components_from_data(_SAMPLE, -1),
        lambda: ranktest.estimate_components([1.0, 3.0, 7.0], 0),
        lambda: ranktest.estimate_components([1.0, 3.0, 7.0], -1),
        lambda: ranktest.component_ladder([1.0, 3.0, 7.0], 0),
        lambda: ranktest.secant_membership([1.0, 3.0, 7.0], 0),
        lambda: ranktest.raw_moments(_SAMPLE, 0)],
        ids=["k-max-0", "k-max-negative", "moments-k-max-0",
             "moments-k-max-negative", "ladder-k-max-0", "membership-k-0",
             "moments-order-0"])
    def test_bad_count_arguments_fail_fast(self, call):
        with pytest.raises(PreconditionError):
            call()

    @pytest.mark.parametrize("n_boot", [1, 0, -3])
    def test_bootstrap_needs_two_resamples(self, n_boot):
        data = np.random.default_rng(1).normal(size=500)
        with pytest.raises(PreconditionError):
            ranktest.bootstrap_minor_scales(data, {1: 1.0}, 3, n_boot, 0)

    @pytest.mark.parametrize("argument,message", [
        ({"n_boot": 2.5}, "n_boot must be an integer, got 2.5"),
        ({"d": 5.0}, "d must be an integer, got 5.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"d": -3}, "d must be at least 1, got -3")],
        ids=["float-n-boot", "float-d", "float-seed", "negative-seed",
             "negative-d"])
    def test_bootstrap_arguments_are_checked(self, argument, message):
        # each ended in a bare TypeError or ValueError, from Python or
        # from numpy's generator and allocator
        data = np.random.default_rng(0).normal(size=300)
        with pytest.raises(PreconditionError) as caught:
            ranktest.bootstrap_minor_scales(data, {1: 0.5},
                                            **{"d": 5, **argument})
        assert str(caught.value) == message

    def test_oversized_count_refused_before_any_pencil(self):
        # k_max = 12 takes 25 moments, and the pencils at k = 6..9 would
        # stack 157M to 353M floats; k = 5 (119M) would run first
        with pytest.raises(PreconditionError) as caught:
            ranktest.estimate_components_from_data(_SAMPLE[:50], 12)
        assert str(caught.value) == (
            "the pencil of 25 moments at k=6 is too large to evaluate "
            "(77520 minors of order 7)")

    @pytest.mark.parametrize("d,k_max,largest", [(23, 11, 101129600),
                                                 (81, 2, 87993360),
                                                 (21, 10, 29709680)])
    def test_pencil_limit_admits_these_ladders(self, d, k_max, largest):
        # nodes x minors x (k + 1)^2, the stack one pencil evaluates; the
        # limit is checked by arithmetic alone, so no pencil runs here
        def stack(k):
            nodes = (k + 1) * (d - k) // 2 + 1
            return nodes * math.comb(d - k + 1, k + 1) * (k + 1) ** 2

        assert max(map(stack, range(1, k_max + 1))) == largest
        for k in range(1, k_max + 1):
            assert ranktest._check_pencil(d, k) == k
        with pytest.raises(PreconditionError):
            ranktest._check_pencil(81, 3)


def _loop_minors(row, k, s):
    """Float maximal minors of one moment vector at one variance, the
    per-minor way: Python deconvolution and one determinant each."""
    full = [1.0] + ranktest.deconvolve_moments(list(row), s)
    d = len(row)
    return [float(np.linalg.det(np.asarray(
                [[full[i + j] for j in sel] for i in range(k + 1)])))
            for sel in itertools.combinations(range(d - k + 1), k + 1)]


class TestBatchedMinors:
    CASES = [(k, d) for k in (1, 2, 3) for d in range(2 * k, 2 * k + 3)]

    @pytest.mark.parametrize("k,d", CASES)
    def test_stack_matches_per_row_loop(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        rows = rng.normal(size=(7, d)) * rng.uniform(0.5, 3.0, size=(7, 1))
        shared = 0.8
        per_row = rng.uniform(0.0, 2.0, size=7)
        for s, variances in ((shared, [shared] * 7), (per_row, per_row)):
            got = ranktest.pencil_minor_values(rows, k, s)
            assert got.shape == (7, math.comb(d - k + 1, k + 1))
            for row, t, values in zip(rows, variances, got):
                one = ranktest.pencil_minor_values(list(row), k, float(t))
                assert values.tolist() == pytest.approx(one, rel=1e-12, abs=0)
                assert values.tolist() == pytest.approx(
                    _loop_minors(row, k, float(t)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k,d", CASES)
    def test_one_vector_at_many_variances(self, k, d):
        rng = np.random.default_rng(d - k)
        m = list(rng.normal(size=d))
        variances = list(rng.uniform(0.0, 2.0, size=5))
        got = ranktest.pencil_minor_values(m, k, variances)
        for s, values in zip(variances, got):
            assert values.tolist() == pytest.approx(
                _loop_minors(m, k, s), rel=1e-12, abs=0)

    def test_rows_and_variances_broadcast(self):
        rows = np.random.default_rng(3).normal(size=(3, 5))
        shared = ranktest.pencil_minor_values(rows, 1, 0.4)
        assert ranktest.pencil_minor_values(rows, 1, [0.4]).tolist() == (
            shared.tolist())
        with pytest.raises(DimensionMismatchError) as exc:
            ranktest.pencil_minor_values(rows, 1, [0.4, 0.5])
        assert exc.value.code == "DIMENSION_MISMATCH"

    def test_overflowing_row_is_range_error(self):
        rows = np.random.default_rng(2).normal(size=(4, 5))
        rows[2] = 1e200
        with pytest.raises(InputError) as exc:
            ranktest.pencil_minor_values(rows, 2, 0.5)
        assert exc.value.code == "INPUT_RANGE"


class TestBatchedPencil:
    CASES = [(k, d) for k in (1, 2, 3) for d in range(2 * k, 2 * k + 4)]

    @pytest.mark.parametrize("k,d", CASES)
    def test_grouped_fit_matches_per_minor_fit(self, k, d):
        # sample-like moments: those of a two-point mixture plus noise
        rng = np.random.default_rng(100 * k + d)
        atoms = np.array([-0.8, 1.3])
        m = [float(np.dot([0.4, 0.6], atoms ** j)) + 0.01 * rng.normal()
             for j in range(1, d + 1)]
        pencil = ranktest.hankel_pencil(m, k)
        nodes = np.asarray(_poly.interpolation_nodes(
            max(w // 2 for w in pencil.weights) + 1, max(abs(m[1]), 1.0)))
        values = ranktest.pencil_minor_values(m, k, nodes)
        assert len(pencil.minors) == values.shape[1]
        for idx, (coeffs, w) in enumerate(zip(pencil.minors,
                                              pencil.weights)):
            deg = w // 2
            want = P.polyfit(nodes[:deg + 1], values[:deg + 1, idx], deg)
            assert len(coeffs) == deg + 1
            # past degree 8 (k = 3, d >= 8) the scaled Vandermonde has
            # condition number 1e7 and more, and the per-minor fit itself
            # is off the exact interpolant by more than 1e-12: there the
            # two fits may differ by that much
            exact = lagrange_interpolate(
                [Fraction(x) for x in nodes[:deg + 1]],
                [Fraction(y) for y in values[:deg + 1, idx]])
            own = np.max(np.abs(np.asarray(exact, dtype=float) - want))
            top = max(abs(want))
            assert (np.max(np.abs(np.asarray(coeffs) - want))
                    <= max(1e-12 * top, own))

    @pytest.mark.parametrize("k,d", CASES)
    def test_fit_is_polyfit_to_the_bit(self, k, d):
        # each degree's minors are fitted by one solve on polyfit's own
        # cached system, so they equal polyfit on the same columns exactly
        rng = np.random.default_rng(100 * k + d)
        atoms = np.array([-0.8, 1.3])
        m = [float(np.dot([0.4, 0.6], atoms ** j)) + 0.01 * rng.normal()
             for j in range(1, d + 1)]
        pencil = ranktest.hankel_pencil(m, k)
        degrees = [w // 2 for w in pencil.weights]
        nodes = np.asarray(_poly.interpolation_nodes(
            max(degrees) + 1, max(abs(m[1]), 1.0)))
        values = ranktest.pencil_minor_values(m, k, nodes)
        for deg in set(degrees):
            idx = [i for i, other in enumerate(degrees) if other == deg]
            want = P.polyfit(nodes[:deg + 1], values[:deg + 1, idx], deg)
            assert [pencil.minors[i] for i in idx] == [
                tuple(column) for column in want.T.tolist()]

    def test_cached_arrays_are_read_only(self):
        # every caller shares them
        layout = ranktest._minor_layout(7, 2)
        nodes, systems = ranktest._fit_systems(7, 2, 1.0)
        arrays = [layout.index, nodes]
        arrays += [index for _, index in layout.groups]
        arrays += [a for matrix, scl, _ in systems for a in (matrix, scl)]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_groups_are_the_minors_of_each_degree(self):
        # one stable sort and a split give each degree the minors that
        # np.flatnonzero(degrees == deg) lists, in the same order, for
        # every pencil with d <= 30 that the stack limit admits
        for d in range(2, 31):
            for k in range(1, d // 2 + 1):
                try:
                    ranktest._check_pencil(d, k)
                except PreconditionError:
                    continue
                layout = ranktest._minor_layout.__wrapped__(d, k)
                degrees = [w // 2 for w in layout.weights]
                want = [(deg, np.flatnonzero(np.equal(degrees, deg)))
                        for deg in sorted(set(degrees))]
                assert [deg for deg, _ in layout.groups] == [
                    deg for deg, _ in want]
                for (_, got), (_, index) in zip(layout.groups, want):
                    assert got.dtype == index.dtype
                    assert np.array_equal(got, index)
                assert layout.nodes == max(degrees) + 1

    @pytest.mark.parametrize("d,k,scale", [
        (d, k, scale) for d in range(2, 16) for k in range(1, d // 2 + 1)
        for scale in (1.0, 7.3)] + [(40, 20, 1.0)])
    def test_systems_are_polyfits(self, d, k, scale):
        # the Vandermonde matrix, its column norms and rcond exactly as
        # polyfit builds them on the same nodes; (40, 20) is the variance
        # polynomial at k = 20
        nodes, systems = ranktest._fit_systems(d, k, scale)
        groups = ranktest._minor_layout(d, k).groups
        assert len(systems) == len(groups)
        for (deg, _), (matrix, scl, rcond) in zip(groups, systems):
            x = nodes[:deg + 1]
            lhs = P.polyvander(x, deg).T
            want = np.sqrt(np.square(lhs).sum(1))
            want[want == 0] = 1
            assert np.array_equal(scl, want)
            assert np.array_equal(matrix, lhs.T / want)
            assert rcond == len(x) * np.finfo(float).eps

    def test_builds_only_the_solved_systems(self):
        # at k = 20 the one minor has degree 210: one system of 211
        # nodes, not one per degree below 211 (about 26 MB)
        m = list(np.random.default_rng(20).normal(size=40))
        ranktest._fit_systems.cache_clear()
        ranktest._minor_layout.cache_clear()
        tracemalloc.start()
        try:
            ranktest.variance_polynomial(m, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        _, systems = ranktest._fit_systems(40, 20, 1.0)
        assert len(systems) == 1

    @pytest.mark.parametrize("k,d", [(1, 3), (1, 5), (2, 5), (3, 7)])
    def test_gram_objective_matches_polynomial_products(self, k, d):
        rng = np.random.default_rng(d - k)
        m = list(rng.normal(size=d))
        pencil = ranktest.hankel_pencil(m, k)
        scales = list(rng.uniform(0.1, 10.0, size=pencil.nminors))
        want = np.zeros(1)
        for coeffs, scale in zip(pencil.minors, scales):
            scaled = [c / scale for c in coeffs]
            want = P.polyadd(want, P.polymul(scaled, scaled))
        got = ranktest._sum_of_squares(pencil.minors, scales)
        want = np.pad(want, (0, len(got) - len(want)))
        assert got == pytest.approx(want, rel=1e-12,
                                    abs=1e-12 * np.max(np.abs(want)))


class TestBlockwiseMoments:
    B = ts._BLOCK
    SIZES = [1, B - 1, B, B + 1, 3 * B + 7]

    @staticmethod
    def _check(got, x, c, counts):
        for j, value in enumerate(got, start=1):
            powers = (x - c) ** j
            want = np.sum(counts * powers)
            # rounding grows with the sum of magnitudes, not the sum
            assert abs(value - want) <= 1e-12 * np.sum(counts * np.abs(powers))

    @staticmethod
    def _block_rows(n, degree):
        # a block holds at most B values of the widest order
        return TestBlockwiseMoments.B // math.comb(n + degree - 1, degree)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("c", [0.0, 10.0, 1000.0])
    def test_moments_about_centre_match_powers(self, size, c):
        x = np.random.default_rng(size).normal(0.4, 1.5, size)
        got = ts.moment_sums(x, 7, c)
        self._check(got, x, c, 1)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("c", [0.0, 10.0, 1000.0])
    def test_weighted_sums_match_powers(self, size, c):
        # a gathered resample, as the bootstrap takes it: its moment sums
        # are the power sums weighted by each value's multiplicity
        rng = np.random.default_rng(size + 1)
        x = rng.normal(0.4, 1.5, size)
        pick = rng.integers(0, size, size)
        got = ts.moment_sums(x[pick], 7, c)
        self._check(got, x, c,
                    np.bincount(pick, minlength=size))

    @pytest.mark.parametrize("n,degree", [(2, 5), (3, 4), (3, 5)])
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_monomial_sums_match_products(self, n, degree, blocks, extra):
        size = blocks * self._block_rows(n, degree) + extra
        rng = np.random.default_rng(10 * n + degree)
        x = rng.normal(0.4, 1.5, (size, n)) + [0.0, 10.0, -3.0][:n]
        c = x.mean(axis=0)
        got = ts.moment_sums(x, degree, c)
        monomials = ts.multi_indices(n, degree)[1:]
        assert got.shape == (len(monomials),)
        for a, value in zip(monomials, got):
            products = np.prod((x - c) ** np.asarray(a), axis=1)
            assert abs(value - products.sum()) <= 1e-12 * np.sum(
                np.abs(products))

    @pytest.mark.parametrize("size", SIZES)
    def test_one_column_is_a_running_product(self, size):
        # bit for bit the blockwise running product, and a flat vector
        # is its one-column matrix
        x = np.random.default_rng(4).normal(0.4, 1.5, size)
        want = np.zeros(6)
        for start in range(0, size, self.B):
            centred = x[start:start + self.B] - 0.3
            term = centred.copy()
            want[0] += term.sum()
            for j in range(1, 6):
                term *= centred
                want[j] += term.sum()
        for arr, c in ((x, 0.3), (x.reshape(-1, 1), [0.3])):
            assert ts.moment_sums(arr, 6, c).tolist() == want.tolist()

    def test_wide_pass_needs_no_index_keys(self):
        # 4 ** 33 is past the int64 range that base-4 keys of the indices
        # took: the pass runs on the table, and the size rule alone
        # refuses a series or sample of that shape
        sums = ts.moment_sums(np.ones((4, 33)), 3, 0.0)
        assert sums.tolist() == [4.0] * (math.comb(36, 3) - 1)
        with pytest.raises(DimensionMismatchError):
            estimate.sample_cumulants(np.ones((4, 33)), 3)
        assert len(ts.index_table(24, 2).indices) == math.comb(26, 2)

    def test_parents_never_follow_their_children(self):
        for n in range(1, 9):
            for degree in range(1, 9):
                sizes, steps = ts._moment_steps(n, degree)
                assert sizes == tuple(math.comb(n + j - 1, j)
                                      for j in range(1, degree + 1))
                for size, order in zip(sizes[1:], steps):
                    children = [child for child, _, _ in order]
                    assert children == list(range(size))[::-1]
                    assert all(parent <= child for child, parent, _ in order)

    def test_count_allocates_no_sample_sized_temporary(self):
        p = models.HomoscedasticParams(means=[[0.0], [2.5]],
                                       weights=[0.35, 0.65], cov=[[0.5]])
        data = models.sample_mixture(p, 100_000, seed=6)
        ranktest.estimate_components_from_data(data, 2)
        tracemalloc.start()
        try:
            ranktest.estimate_components_from_data(data, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.nbytes

    def test_cumulants_allocate_no_sample_sized_temporary(self):
        data = models.sample_mixture(models.HomoscedasticParams(
            means=[[1.2, -0.8, 0.5], [-0.6, 0.4, -0.25]], weights=[0.35, 0.65],
            cov=np.eye(3).tolist()), 100_000, seed=2)
        estimate.sample_cumulants(data, 5)
        tracemalloc.start()
        try:
            estimate.sample_cumulants(data, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.nbytes


def _gathered_scales(arr, k, witness_s, n_boot, seed, d):
    """Bootstrap noise levels computed the direct way: gather each
    resample and take its moments with ``raw_moments``."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_boot):
        pick = rng.integers(0, arr.size, arr.size)
        m_b = ranktest.raw_moments(arr[pick], d)
        samples.append(ranktest.pencil_minor_values(m_b, k, witness_s))
    return list(np.std(np.asarray(samples, dtype=float), axis=0, ddof=1))


class TestSampleMoments:
    DATA = np.random.default_rng(3).normal(0.4, 1.5, 2_000)

    def test_raw_moments_match_powers_on_mixed_signs(self):
        got = ranktest.raw_moments(self.DATA, 7)
        want = [float(np.mean(self.DATA ** j)) for j in range(1, 8)]
        assert got == pytest.approx(want, rel=1e-12)

    def test_bootstrap_matches_gathered_resamples(self):
        arr = self.DATA[:300]
        scales = ranktest.bootstrap_minor_scales(arr, {2: 0.5}, n_boot=8,
                                                 seed=2, d=5)
        assert scales[2] == pytest.approx(
            _gathered_scales(arr, 2, 0.5, 8, 2, 5), rel=1e-9)

    def test_shared_resamples_match_single_k(self):
        arr = self.DATA[:500]
        both = ranktest.bootstrap_minor_scales(arr, {1: 1.2, 2: 0.7},
                                               n_boot=6, seed=9, d=5)
        for k, witness_s in ((1, 1.2), (2, 0.7)):
            alone = ranktest.bootstrap_minor_scales(arr, {k: witness_s},
                                                    n_boot=6, seed=9, d=5)
            assert both[k] == alone[k]

    def test_count_repeats(self):
        # nothing in the count is random: two calls give the same verdicts
        p = models.HomoscedasticParams(means=[[0.0], [2.5]],
                                       weights=[0.35, 0.65], cov=[[0.5]])
        data = models.sample_mixture(p, 20_000, seed=4)
        first = ranktest.estimate_components_from_data(data, 2)
        again = ranktest.estimate_components_from_data(data, 2)
        assert first == again

    # a Gaussian and two mixtures, the last far from the origin
    PINNED = [([[0.3]], [1.0], 1.7, 11),
              ([[-1.0], [2.0]], [0.4, 0.6], 0.6, 12),
              ([[500.0], [502.5]], [0.7, 0.3], 0.3, 13)]

    def test_verdicts_are_pinned(self):
        # k_hat and every verdict's residual and witness, to the bit
        got = []
        for means, weights, variance, seed in self.PINNED:
            p = models.HomoscedasticParams(means=means, weights=weights,
                                           cov=[[variance]])
            data = models.sample_mixture(p, 100_000, seed)
            k_hat, verdicts = ranktest.estimate_components_from_data(data, 2)
            got.append((k_hat, [(v.residual, v.witness_s) for v in verdicts]))
        assert [k_hat for k_hat, _ in got] == [1, 2, 2]
        assert hashlib.sha256(repr(got).encode()).hexdigest() == (
            "bb6268ed367e4c5674d5ed5a218cb0a7bfef1785786dcbc062b8768e4f43d678")

    def test_normal_form_is_raw_moments_about_the_mean(self):
        data = 1e3 + self.DATA
        form = ranktest.sample_normal_form(data, 6)
        m = (ts.moment_sums(data, 6, form.mean) / len(data)).tolist()
        assert form == replace(ranktest.normal_form([0.0] + m[1:]),
                               mean=float(np.mean(data)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_only_a_non_finite_mean_is_scanned(self, monkeypatch, bad):
        # a sum with a term that is not finite is not finite either, so
        # finite data are never scanned, and non-finite data still fail
        # as INPUT_PARSE
        scans = []
        observations = ts._observations
        monkeypatch.setattr(ts, "_observations",
                            lambda data: scans.append(1) or observations(data))
        ranktest.sample_normal_form(self.DATA, 4)
        assert scans == []
        data = self.DATA.copy()
        data[17] = bad
        with pytest.raises(InputError) as exc:
            ranktest.sample_normal_form(data, 4)
        assert exc.value.code == "INPUT_PARSE"
        assert scans == [1]
        with pytest.raises(InputError) as exc:
            ranktest.sample_normal_form([], 4)
        assert exc.value.code == "INPUT_EMPTY"

    def test_complex_data_rejected(self):
        # numpy read the real parts only, with a ComplexWarning
        for data in (np.array([1 + 1j, 2.0]), [1 + 1j, 2.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError) as exc:
                    ranktest.estimate_components_from_data(data, 1)
            assert exc.value.code == "INPUT_PARSE"

    @pytest.mark.parametrize("data,code", [
        (np.array([["a", "b"]]), "INPUT_PARSE"), (["a", "b"], "INPUT_PARSE"),
        ([[1, 2], [3]], "DIMENSION_MISMATCH")],
        ids=["string-array", "string-list", "ragged-rows"])
    def test_unreadable_data_rejected(self, data, code):
        # numpy's conversion ended in a bare ValueError
        for call in (lambda: estimate.sample_cumulants(data, 4),
                     lambda: ranktest.estimate_components_from_data(data, 1)):
            with pytest.raises(InputError) as exc:
                call()
            assert exc.value.code == code

    def test_none_entry_is_unreadable(self):
        # numpy's conversion read None as NaN: "non-finite values"
        for call in (lambda: ranktest.raw_moments([None, 1.0], 2),
                     lambda: estimate.sample_cumulants(
                         [[None, 1.0], [2.0, 3.0]], 4),
                     lambda: ranktest.estimate_components_from_data(
                         [None, 1.0, 2.0], 1)):
            with pytest.raises(InputError) as exc:
                call()
            assert exc.value.code == "INPUT_PARSE"
            assert str(exc.value) == "data must be real numbers"

    def test_numeric_strings_read_as_numbers(self):
        assert ranktest.raw_moments(["1.5", "-2"], 3) == ranktest.raw_moments(
            [1.5, -2.0], 3)

    def test_float_data_are_not_copied(self):
        arr, _, _ = ts.sample_moments(self.DATA, 2)
        assert np.shares_memory(arr, self.DATA)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        data = self.DATA.copy()
        data[17] = bad
        for call in (lambda: ranktest.raw_moments(data, 3),
                     lambda: ranktest.estimate_components_from_data(data, 1)):
            with pytest.raises(InputError) as exc:
                call()
            assert exc.value.code == "INPUT_PARSE"

    def test_overflowing_sample_moment(self):
        # the mean is 0, the squares are not floats: the sample pass says
        # so, in the words of sample_cumulants
        data = np.tile([1e300, -1e300], 20)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InputError) as exc:
            ranktest.sample_normal_form(data, 2)
        assert exc.value.code == "INPUT_RANGE"
        assert str(exc.value) == (
            "data too large: a sample moment is not a finite float")

    def test_huge_data_rejected(self):
        # centred, the data still spread over 1e119, so their third
        # moment is not a float
        data = 1e120 + 1e119 * self.DATA
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InputError) as exc:
            ranktest.estimate_components_from_data(data, 2)
        assert exc.value.code == "INPUT_RANGE"

    @pytest.mark.parametrize("data", [1e55 * DATA, np.full(10, 1.5e308)],
                             ids=["covariance-overflows", "mean-overflows"])
    def test_noise_levels_need_finite_moments(self, data):
        # the moments to order 3 are floats but those to order 6 (the
        # moment covariance) are not, which would give NaN noise levels;
        # or the sum giving the mean overflows, which would read as
        # non-finite data (INPUT_PARSE)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InputError) as exc:
            ranktest.estimate_components_from_data(data, 1)
        assert exc.value.code == "INPUT_RANGE"


# every sample entry point reads its data through one checked pass, so
# each bad sample fails with the same code at each of them
_ENTRY_POINTS = {
    "raw_moments": lambda data: ranktest.raw_moments(data, 3),
    "sample_normal_form": lambda data: ranktest.sample_normal_form(data, 4),
    "count": lambda data: ranktest.estimate_components_from_data(data, 1),
    "sample_cumulants": lambda data: estimate.sample_cumulants(data, 3),
}
_BAD_SAMPLES = {
    "empty": ([], "INPUT_EMPTY"),
    "nan": ([1.0, math.nan, 2.0], "INPUT_PARSE"),
    "inf": ([1.0, math.inf, 2.0], "INPUT_PARSE"),
    "-inf": ([1.0, -math.inf, 2.0], "INPUT_PARSE"),
    "overflow": ([1e200, -1e200, 3e200], "INPUT_RANGE"),
    # exact entries beyond float range, on which astype raises
    # OverflowError
    "huge-int": ([10 ** 400, 1.0, 2.0], "INPUT_RANGE"),
    "huge-fraction": ([Fraction(10 ** 400), 1], "INPUT_RANGE"),
    "huge-fraction-column": ([[1, Fraction(-10 ** 400)], [1, 2]],
                             "INPUT_RANGE"),
    "three-axes": (np.ones((4, 1, 1)), "DIMENSION_MISMATCH"),
    "two-columns": (np.random.default_rng(2).normal(size=(500, 2)) + [0, 3],
                    "DIMENSION_MISMATCH"),
}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in _ENTRY_POINTS for case in _BAD_SAMPLES
    # fit2's cumulants take any number of columns
    if (entry, case) != ("sample_cumulants", "two-columns")])
def test_sample_error_contract(entry, case):
    data, code = _BAD_SAMPLES[case]
    with pytest.raises(InputError) as exc:
        _ENTRY_POINTS[entry](data)
    assert exc.value.code == code
