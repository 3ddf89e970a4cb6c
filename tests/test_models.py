"""Forward maps from mixture parameters to truncated series."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_fraction, rand_psd, rand_symmetric, reference_sample
from homoment import models
from homoment import series as ts
from homoment.errors import InputError, PreconditionError


class TestGaussian:
    def test_point_mass_at_origin(self):
        g = models.gaussian_moments(models.GaussianParams((0,), ((0,),)), 4)
        assert g == ts.TruncatedSeries.one(1, 4)

    def test_second_moment_formula(self):
        rng = random.Random(1)
        for _ in range(10):
            mu = (rand_fraction(rng), rand_fraction(rng))
            cov = rand_symmetric(rng, 2)
            g = models.gaussian_moments(models.GaussianParams(mu, cov), 2)
            assert g.moment((2, 0)) == mu[0] ** 2 + cov[0][0]
            assert g.moment((1, 1)) == mu[0] * mu[1] + cov[0][1]

    def test_standard_normal_even_moments(self):
        g = models.gaussian_moments(models.GaussianParams((0,), ((1,),)), 6)
        assert [g.moment((j,)) for j in (2, 4, 6)] == [1, 3, 15]
        assert all(g.moment((j,)) == 0 for j in (1, 3, 5))

    def test_log_is_quadratic(self):
        rng = random.Random(2)
        mu = (rand_fraction(rng), rand_fraction(rng))
        cov = rand_symmetric(rng, 2)
        k = ts.log(models.gaussian_moments(models.GaussianParams(mu, cov), 5))
        assert k.moment((1, 0)) == mu[0]
        assert k.moment((2, 0)) == cov[0][0]
        assert k.moment((1, 1)) == cov[0][1]
        assert k.graded(3) == ts.TruncatedSeries.zero(2, 5)


class TestDiracMixture:
    def test_single_atom_at_one(self):
        d = models.dirac_mixture_moments(
            models.DiracMixtureParams(points=((1,),), weights=(1,)), 3)
        assert [d.moment((j,)) for j in (1, 2, 3)] == [1, 1, 1]

    def test_two_equal_atoms(self):
        d = models.dirac_mixture_moments(
            models.DiracMixtureParams(points=((0,), (2,)),
                                      weights=(Fraction(1, 2), Fraction(1, 2))), 4)
        assert [d.moment((j,)) for j in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_zero_weight_component_is_invisible(self):
        a = models.dirac_mixture_moments(
            models.DiracMixtureParams(points=((3, 1), (7, -2)), weights=(1, 0)), 3)
        b = models.dirac_mixture_moments(
            models.DiracMixtureParams(points=((3, 1),), weights=(1,)), 3)
        assert a == b

    def test_weights_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            models.DiracMixtureParams(points=((1,), (2,)),
                                      weights=(Fraction(1, 2), Fraction(1, 3)))


class TestHomoscedastic:
    def test_single_component_is_gaussian(self):
        rng = random.Random(3)
        mu = (rand_fraction(rng),)
        cov = ((Fraction(5, 4),),)
        mix = models.homoscedastic_moments(
            models.HomoscedasticParams(means=(mu,), weights=(1,), cov=cov), 4)
        gauss = models.gaussian_moments(models.GaussianParams(mu, cov), 4)
        assert mix == gauss

    def test_reference_point(self):
        p = models.HomoscedasticParams(
            means=((1, 0), (0, 1)),
            weights=(Fraction(1, 2), Fraction(1, 2)),
            cov=((1, 0), (0, 1)))
        m = models.homoscedastic_moments(p, 3)
        expected = {
            (1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
            (2, 0): Fraction(3, 2), (0, 2): Fraction(3, 2), (1, 1): 0,
            (3, 0): 2, (0, 3): 2, (2, 1): Fraction(1, 2),
            (1, 2): Fraction(1, 2),
        }
        for a, value in expected.items():
            assert m.moment(a) == value

    @staticmethod
    def _explicit_bivariate_two_component(lam, mu1, mu2, cov):
        # order-3 moment formulas of the two-component bivariate mixture,
        # written out componentwise as the independent oracle
        s11, s12, s22 = cov[0][0], cov[0][1], cov[1][1]

        def comp(mu):
            x, y = mu
            return {
                (1, 0): x, (0, 1): y,
                (2, 0): x * x + s11, (0, 2): y * y + s22,
                (1, 1): x * y + s12,
                (3, 0): x ** 3 + 3 * s11 * x, (0, 3): y ** 3 + 3 * s22 * y,
                (2, 1): x * x * y + s11 * y + 2 * s12 * x,
                (1, 2): x * y * y + s22 * x + 2 * s12 * y,
            }
        one, two = comp(mu1), comp(mu2)
        return {a: lam * one[a] + (1 - lam) * two[a] for a in one}

    def test_matches_componentwise_formulas(self):
        rng = random.Random(4)
        for _ in range(50):
            lam = Fraction(rng.randint(1, 99), 100)
            mu1 = (rand_fraction(rng), rand_fraction(rng))
            mu2 = (rand_fraction(rng), rand_fraction(rng))
            cov = rand_symmetric(rng, 2)
            p = models.HomoscedasticParams(means=(mu1, mu2),
                                           weights=(lam, 1 - lam), cov=cov)
            m = models.homoscedastic_moments(p, 3)
            oracle = self._explicit_bivariate_two_component(lam, mu1, mu2, cov)
            for a, value in oracle.items():
                assert m.moment(a) == value

    def test_factorization_invariant(self):
        rng = random.Random(5)
        for _ in range(5):
            k = rng.choice([2, 3])
            means = tuple(tuple(rand_fraction(rng) for _ in range(2))
                          for _ in range(k))
            free = [rand_fraction(rng) for _ in range(k - 1)]
            weights = tuple(free + [1 - sum(free)])
            cov = rand_symmetric(rng, 2)
            p = models.HomoscedasticParams(means=means, weights=weights, cov=cov)
            gauss = models.gaussian_moments(
                models.GaussianParams((0, 0), cov), 4)
            atoms = models.dirac_mixture_moments(
                models.DiracMixtureParams(points=means, weights=weights), 4)
            assert models.homoscedastic_moments(p, 4) == gauss * atoms

    def test_cumulant_cone_minors(self):
        # order-3 cumulants of any bivariate two-component mixture make
        # the bordered 2x3 matrix rank one
        rng = random.Random(6)
        for _ in range(10):
            lam = Fraction(rng.randint(1, 99), 100)
            p = models.HomoscedasticParams(
                means=((rand_fraction(rng), rand_fraction(rng)),
                       (rand_fraction(rng), rand_fraction(rng))),
                weights=(lam, 1 - lam), cov=rand_symmetric(rng, 2))
            kk = models.homoscedastic_cumulants(p, 3)
            k30, k21 = kk.moment((3, 0)), kk.moment((2, 1))
            k12, k03 = kk.moment((1, 2)), kk.moment((0, 3))
            assert k30 * k12 - k21 * k21 == 0
            assert k30 * k03 - k21 * k12 == 0
            assert k21 * k03 - k12 * k12 == 0

    def test_translation_and_covariance_freedom(self):
        rng = random.Random(7)
        lam = Fraction(3, 10)
        base = models.HomoscedasticParams(
            means=((1, 2), (-3, 0)), weights=(lam, 1 - lam),
            cov=rand_psd(rng, 2))
        k0 = models.homoscedastic_cumulants(base, 4)
        shift = (Fraction(5, 2), Fraction(-1, 3))
        moved = models.HomoscedasticParams(
            means=tuple(tuple(x + s for x, s in zip(m, shift))
                        for m in base.means),
            weights=base.weights, cov=base.cov)
        k1 = models.homoscedastic_cumulants(moved, 4)
        for a in ts.multi_indices(2, 4):
            if sum(a) != 1:
                assert k1.coeff(a) == k0.coeff(a)
        bump = rand_symmetric(rng, 2)
        fat = models.HomoscedasticParams(
            means=base.means, weights=base.weights,
            cov=tuple(tuple(base.cov[i][j] + bump[i][j] for j in range(2))
                      for i in range(2)))
        k2 = models.homoscedastic_cumulants(fat, 4)
        for a in ts.multi_indices(2, 4):
            if sum(a) != 2:
                assert k2.coeff(a) == k0.coeff(a)


class TestCenteredCumulants:
    def test_single_centered_atom_vanishes(self):
        p = models.CenteredDiracParams(points=((0, 0),), weights=(1,))
        assert models.dirac_higher_cumulants(p, 4) == ts.TruncatedSeries.zero(2, 4)

    def test_two_point_third_order_coefficient(self):
        rng = random.Random(8)
        for _ in range(10):
            lam = Fraction(rng.randint(1, 99), 100)
            t = rand_fraction(rng, nonzero=True)
            p = models.CenteredDiracParams(
                points=((t,), (-lam / (1 - lam) * t,)), weights=(lam, 1 - lam))
            phi = models.dirac_higher_cumulants(p, 3)
            f3 = lam * (1 - lam) * (1 - 2 * lam) / (6 * (1 - lam) ** 3)
            assert phi.coeff((3,)) == f3 * t ** 3

    def test_matches_truncated_log(self):
        rng = random.Random(9)
        mu1 = (rand_fraction(rng), rand_fraction(rng))
        lam = Fraction(2, 5)
        mu2 = tuple(-lam / (1 - lam) * x for x in mu1)
        p = models.CenteredDiracParams(points=(mu1, mu2), weights=(lam, 1 - lam))
        full = ts.log(models.dirac_mixture_moments(p, 5))
        assert models.dirac_higher_cumulants(p, 5) == full.graded(3)

    def test_centering_enforced(self):
        with pytest.raises(PreconditionError):
            models.CenteredDiracParams(points=((1,), (2,)),
                                       weights=(Fraction(1, 2), Fraction(1, 2)))


class TestLaplace:
    def test_zero_covariance_is_dirac(self):
        mu = (Fraction(3, 2), Fraction(-1, 2))
        lap = models.laplace_moments(
            models.LaplaceParams(location=mu, cov=((0, 0), (0, 0))), 4)
        dirac = models.dirac_mixture_moments(
            models.DiracMixtureParams(points=(mu,), weights=(1,)), 4)
        assert lap == dirac

    def test_agrees_with_gaussian_through_order_three(self):
        rng = random.Random(10)
        mu = (rand_fraction(rng), rand_fraction(rng))
        cov = rand_symmetric(rng, 2)
        lap = models.laplace_moments(models.LaplaceParams(mu, cov), 3)
        gauss = models.gaussian_moments(models.GaussianParams(mu, cov), 3)
        assert lap == gauss

    def test_fourth_moment_doubles_gaussian(self):
        lap = models.laplace_moments(
            models.LaplaceParams(location=(0,), cov=((1,),)), 4)
        assert lap.moment((4,)) == 6


class TestSampler:
    def test_zero_covariance_repeats_mean(self):
        p = models.HomoscedasticParams(means=((2.0, -1.0),), weights=(1.0,),
                                       cov=((0.0, 0.0), (0.0, 0.0)))
        draws = models.sample_mixture(p, 100, seed=0)
        assert np.all(draws == np.asarray([2.0, -1.0]))

    def test_deterministic_given_seed(self):
        p = models.HomoscedasticParams(
            means=((0.0,), (3.0,)), weights=(0.4, 0.6), cov=((1.0,),))
        a = models.sample_mixture(p, 1000, seed=42)
        b = models.sample_mixture(p, 1000, seed=42)
        assert np.array_equal(a, b)
        c = models.sample_mixture(p, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_law_of_large_numbers_mean(self):
        p = models.HomoscedasticParams(
            means=((0.0, 1.0), (2.0, -1.0)), weights=(0.3, 0.7),
            cov=((1.0, 0.2), (0.2, 0.5)))
        count = 100_000
        draws = models.sample_mixture(p, count, seed=7)
        target = 0.3 * np.asarray([0.0, 1.0]) + 0.7 * np.asarray([2.0, -1.0])
        sigma = np.sqrt(np.diag(np.cov(draws.T)))
        assert np.all(np.abs(draws.mean(axis=0) - target)
                      < 4.0 * sigma / np.sqrt(count))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("weights", [(1.0,), (0.35, 0.65), (0.1, 0.2, 0.7),
                                         (0.5, 0.0, 0.5)])
    @pytest.mark.parametrize("cov", ["zero", "full"])
    def test_same_draws_as_reference(self, n, weights, cov):
        # every count on both sides of a block of rows, and a zero
        # (singular) covariance, which takes the eigenvector factor
        rng = np.random.default_rng([n, len(weights)])
        b = rng.standard_normal((n, n)) if cov == "full" else np.zeros((n, n))
        p = models.HomoscedasticParams(
            means=rng.normal(scale=3.0, size=(len(weights), n)).tolist(),
            weights=weights, cov=(b @ b.T).tolist())
        for count in (1, 16_383, 16_385, 100_000):
            assert np.array_equal(models.sample_mixture(p, count, seed=count),
                                  reference_sample(p, count, seed=count))

    @pytest.mark.parametrize("n", [1, 3])
    def test_holds_about_twice_its_output(self, n):
        # the noise and its product; the labels take one byte a row
        p = models.HomoscedasticParams(means=[[0.0] * n, [2.5] * n],
                                       weights=[0.35, 0.65],
                                       cov=np.eye(n).tolist())
        models.sample_mixture(p, 100_000, seed=6)
        tracemalloc.start()
        try:
            draws = models.sample_mixture(p, 100_000, seed=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * draws.nbytes

    @pytest.mark.parametrize("field,value", [
        ("weights", [math.nan, 0.5]), ("means", [[math.nan], [1.0]]),
        ("means", [[0.0], [-math.inf]]), ("cov", [[math.inf]]),
        ("cov", [[math.nan]]), ("weights", [math.inf, 0.5]),
        ("weights", [0.5, -math.inf]), ("means", [[math.inf], [1.0]]),
        ("cov", [[-math.inf]])])
    def test_rejects_non_finite_parameters(self, field, value):
        # the parameters refuse every non-finite entry under one code,
        # before the weight sum is checked: a NaN weight would pass that
        # check and an infinite one fail it as PRECONDITION, and a NaN
        # edge would label every row 0
        spec = {"means": [[0.0], [1.0]], "weights": [0.5, 0.5],
                "cov": [[1.0]], field: value}
        with pytest.raises(InputError) as caught:
            models.sample_mixture(models.HomoscedasticParams(**spec), 10, 0)
        assert caught.value.code == "INPUT_PARSE"

    def test_rejects_indefinite_covariance(self):
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((-1.0,),))
        with pytest.raises(PreconditionError):
            models.sample_mixture(p, 10, seed=0)
