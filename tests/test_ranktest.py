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
        "variance_polynomial": lambda m: estimate.variance_polynomial(m, 1),
        "pencil_minor_values":
            lambda m: ranktest.pencil_minor_values(m, 1, 0.5),
    }

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

    @staticmethod
    def _direct_residuals(data, verdicts):
        """Each verdict's whitened minors, evaluated directly at its
        witness, squared and summed."""
        arr = data.ravel() - ranktest.sample_normal_form(data, 1).mean
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

    def test_rows_and_variances_broadcast(self):
        rows = np.random.default_rng(3).normal(size=(3, 5))
        shared = ranktest.pencil_minor_values(rows, 1, 0.4)
        assert ranktest.pencil_minor_values(rows, 1, [0.4]).tolist() == (
            shared.tolist())
        with pytest.raises(ValueError):
            ranktest.pencil_minor_values(rows, 1, [0.4, 0.5])

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
        layout = estimate._minor_layout(7, 2)
        nodes, systems = estimate._fit_systems(layout.nodes, 1.0)
        arrays = [layout.index, nodes]
        arrays += [index for _, index in layout.groups]
        arrays += [a for matrix, scl, _ in systems for a in (matrix, scl)]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

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
    B = estimate._BLOCK
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
        got = ranktest.raw_moments(x, 7, centre=c)
        self._check([v * size for v in got], x, c, 1)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("c", [0.0, 10.0, 1000.0])
    def test_weighted_sums_match_powers(self, size, c):
        # a gathered resample, as the bootstrap takes it: its moment sums
        # are the power sums weighted by each value's multiplicity
        rng = np.random.default_rng(size + 1)
        x = rng.normal(0.4, 1.5, size)
        pick = rng.integers(0, size, size)
        got = ranktest.raw_moments(x[pick], 7, centre=c)
        self._check([v * size for v in got], x, c,
                    np.bincount(pick, minlength=size))

    @pytest.mark.parametrize("n,degree", [(2, 5), (3, 4), (3, 5)])
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_monomial_sums_match_products(self, n, degree, blocks, extra):
        size = blocks * self._block_rows(n, degree) + extra
        rng = np.random.default_rng(10 * n + degree)
        x = rng.normal(0.4, 1.5, (size, n)) + [0.0, 10.0, -3.0][:n]
        c = x.mean(axis=0)
        got = estimate.moment_sums(x, degree, c)
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
            assert estimate.moment_sums(arr, 6, c).tolist() == want.tolist()

    def test_parents_never_follow_their_children(self):
        for n in range(1, 9):
            for degree in range(1, 9):
                sizes, steps = estimate._moment_steps(n, degree)
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
        form = estimate.sample_normal_form(data, 6)
        m = ranktest.raw_moments(data, 6, centre=form.mean)
        assert form == replace(estimate.normal_form([0.0] + m[1:]),
                               mean=float(np.mean(data)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_only_a_non_finite_mean_is_scanned(self, monkeypatch, bad):
        # a sum with a term that is not finite is not finite either, so
        # finite data are never scanned, and non-finite data still fail
        # as INPUT_PARSE
        scans = []
        observations = estimate._observations
        monkeypatch.setattr(estimate, "_observations",
                            lambda data: scans.append(1) or observations(data))
        estimate.sample_normal_form(self.DATA, 4)
        assert scans == []
        data = self.DATA.copy()
        data[17] = bad
        with pytest.raises(InputError) as exc:
            estimate.sample_normal_form(data, 4)
        assert exc.value.code == "INPUT_PARSE"
        assert scans == [1]
        with pytest.raises(InputError) as exc:
            estimate.sample_normal_form([], 4)
        assert exc.value.code == "INPUT_EMPTY"

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
