"""Secant membership, hypersurface polynomials, component counting."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_fraction, univariate_moments
from homoment import estimate, models, ranktest
from homoment import series as ts
from homoment._poly import poly_eval
from homoment.errors import (InputError, InsufficientOrderError,
                             PreconditionError)


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


class TestPencil:
    def test_smallest_case_minors(self):
        # N(1, 2): minors 2 - s, 4 - 2s, -2 + 3s - s^2 share the root s = 2
        pencil = ranktest.hankel_pencil([Fraction(1), Fraction(3), Fraction(7)], 1)
        assert pencil.nminors == 3
        assert pencil.minors[0] == (2, -1)
        assert pencil.minors[1] == (4, -2)
        assert pencil.minors[2] == (-2, 3, -1)
        for coeffs in pencil.minors:
            assert poly_eval(list(coeffs), Fraction(2)) == 0

    def test_two_mixture_minors_share_variance_root(self):
        p = models.HomoscedasticParams(
            means=[[-1], [2]], weights=[Fraction(2, 5), Fraction(3, 5)],
            cov=[[Fraction(3, 8)]])
        pencil = ranktest.hankel_pencil(univariate_moments(p, 5), 2)
        for coeffs in pencil.minors:
            assert poly_eval(list(coeffs), Fraction(3, 8)) == 0

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrderError):
            ranktest.hankel_pencil([1.0, 2.0, 3.0], 2)

    def test_polynomials_match_direct_evaluation(self):
        rng = random.Random(4)
        m = [rand_fraction(rng) for _ in range(5)]
        pencil = ranktest.hankel_pencil(m, 2)
        s = Fraction(5, 7)
        direct = ranktest.pencil_minor_values(m, 2, s)
        assert [poly_eval(list(c), s) for c in pencil.minors] == direct


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

    @staticmethod
    def _direct_residuals(data, verdicts):
        """Each verdict's whitened minors, evaluated directly at its
        witness, squared and summed."""
        arr, _ = ranktest.centred(data)
        m = ranktest.raw_moments(arr, 5)
        first = {k: ranktest.secant_membership(m, k).witness_s
                 for k in (1, 2)}
        scales = ranktest.delta_minor_scales(arr, first, 5)
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
        lambda: ranktest.secant_membership([1.0, 3.0, 7.0], 0)],
        ids=["k-max-0", "k-max-negative", "moments-k-max-0",
             "moments-k-max-negative", "ladder-k-max-0", "membership-k-0"])
    def test_bad_count_arguments_fail_fast(self, call):
        with pytest.raises(PreconditionError):
            call()

    @pytest.mark.parametrize("n_boot", [1, 0, -3])
    def test_bootstrap_needs_two_resamples(self, n_boot):
        data = np.random.default_rng(1).normal(size=500)
        with pytest.raises(PreconditionError):
            ranktest.bootstrap_minor_scales(data, {1: 1.0}, 3, n_boot, 0)


def _loop_minors(row, k, s):
    """Float maximal minors of one moment vector at one variance, the
    per-minor way: Python deconvolution and one determinant each."""
    full = [1.0] + estimate.deconvolve_moments(list(row), s)
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

    def test_overflowing_row_is_range_error(self):
        rows = np.random.default_rng(2).normal(size=(4, 5))
        rows[2] = 1e200
        with pytest.raises(InputError) as exc:
            ranktest.pencil_minor_values(rows, 2, 0.5)
        assert exc.value.code == "INPUT_RANGE"


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

    def test_resample_moments_match_gathered(self):
        arr = self.DATA[:300]
        rng = np.random.default_rng(5)
        for _ in range(4):
            pick = rng.integers(0, arr.size, arr.size)
            counts = np.bincount(pick, minlength=arr.size)
            weighted = [s / arr.size
                        for s in ranktest._power_sums(arr, 5, counts)]
            assert weighted == pytest.approx(
                ranktest.raw_moments(arr[pick], 5), rel=1e-12)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        data = self.DATA.copy()
        data[17] = bad
        for call in (lambda: ranktest.raw_moments(data, 3),
                     lambda: ranktest.estimate_components_from_data(data, 1)):
            with pytest.raises(InputError) as exc:
                call()
            assert exc.value.code == "INPUT_PARSE"

    def test_huge_data_rejected(self):
        # centred, the data still spread over 1e119, so their third
        # moment is not a float
        data = 1e120 + 1e119 * self.DATA
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InputError) as exc:
            ranktest.estimate_components_from_data(data, 2)
        assert exc.value.code == "INPUT_RANGE"

    # at this scale the pencil's float interpolation (numpy polyfit, whose
    # column scaling squares the nodes) overflows and warns first
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
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
