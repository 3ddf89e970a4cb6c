"""Forward maps from mixture parameters to truncated series."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dirac_moments, dirac_params, gaussian_moments,
                      gaussian_params, rand_fraction, rand_psd,
                      rand_symmetric, reference_sample)
from homoment import models
from homoment import series as ts
from homoment.errors import InputError, PreconditionError


# one non-finite entry in a field of a two-component 1-D mixture, each
# named by its field and that entry
NON_FINITE = {
    "weights-nan": ("weights", [math.nan, 0.5]),
    "means-nan": ("means", [[math.nan], [1.0]]),
    "means-neg-inf": ("means", [[0.0], [-math.inf]]),
    "cov-inf": ("cov", [[math.inf]]), "cov-nan": ("cov", [[math.nan]]),
    "weights-inf": ("weights", [math.inf, 0.5]),
    "weights-neg-inf": ("weights", [0.5, -math.inf]),
    "means-inf": ("means", [[math.inf], [1.0]]),
    "cov-neg-inf": ("cov", [[-math.inf]])}

# the fields of such a mixture that each parameter family reads
FAMILY_FIELDS = {
    "gaussian": ("means", "cov"), "laplace": ("means", "cov"),
    "zero-cov": ("means", "weights"),
    "homoscedastic": ("means", "weights", "cov")}


def family_params(family, means, weights, cov):
    """The parameters of ``family`` read from a 1-D mixture: the Dirac
    mixture sits on its means (the homoscedastic mixture of zero
    covariance, "zero-cov"), and the Gaussian (the mixture of one
    component) and Laplace laws at their sum."""
    location = [sum(m[0] for m in means)]
    return {
        "gaussian": lambda: gaussian_params(location, cov),
        "laplace": lambda: models.LaplaceParams(location, cov),
        "zero-cov": lambda: models.HomoscedasticParams(means, weights,
                                                       [[0]]),
        "homoscedastic": lambda: models.HomoscedasticParams(means, weights,
                                                            cov),
    }[family]()


class TestGaussian:
    def test_point_mass_at_origin(self):
        g = models.homoscedastic_moments(gaussian_params((0,), ((0,),)), 4)
        assert g == ts.TruncatedSeries.one(1, 4)

    def test_second_moment_formula(self):
        rng = random.Random(1)
        for _ in range(10):
            mu = (rand_fraction(rng), rand_fraction(rng))
            cov = rand_symmetric(rng, 2)
            g = models.homoscedastic_moments(gaussian_params(mu, cov), 2)
            assert g.moment((2, 0)) == mu[0] ** 2 + cov[0][0]
            assert g.moment((1, 1)) == mu[0] * mu[1] + cov[0][1]

    def test_standard_normal_even_moments(self):
        g = models.homoscedastic_moments(gaussian_params((0,), ((1,),)), 6)
        assert [g.moment((j,)) for j in (2, 4, 6)] == [1, 3, 15]
        assert all(g.moment((j,)) == 0 for j in (1, 3, 5))

    def test_log_is_quadratic(self):
        rng = random.Random(2)
        mu = (rand_fraction(rng), rand_fraction(rng))
        cov = rand_symmetric(rng, 2)
        k = models.homoscedastic_cumulants(gaussian_params(mu, cov), 5)
        assert k.moment((1, 0)) == mu[0]
        assert k.moment((2, 0)) == cov[0][0]
        assert k.moment((1, 1)) == cov[0][1]
        assert k.graded(3) == ts.TruncatedSeries.zero(2, 5)


class TestDiracMixture:
    def test_single_atom_at_one(self):
        d = models.homoscedastic_moments(
            dirac_params(points=((1,),), weights=(1,)), 3)
        assert [d.moment((j,)) for j in (1, 2, 3)] == [1, 1, 1]

    def test_two_equal_atoms(self):
        d = models.homoscedastic_moments(
            dirac_params(points=((0,), (2,)),
                         weights=(Fraction(1, 2), Fraction(1, 2))), 4)
        assert [d.moment((j,)) for j in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_zero_weight_component_is_invisible(self):
        a = models.homoscedastic_moments(
            dirac_params(points=((3, 1), (7, -2)), weights=(1, 0)), 3)
        b = models.homoscedastic_moments(
            dirac_params(points=((3, 1),), weights=(1,)), 3)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from([float, np.float64, Fraction]), st.data())
    def test_atom_terms_are_the_left_fold(self, n, degree, k, kind, data):
        # w p_1^a_1 ... p_n^a_n multiplied out left to right, summed over
        # the atoms in order: the same value, repr and type
        values = st.fractions(-9, 9, max_denominator=12).map(
            lambda x: x if kind is Fraction else kind(x))
        points = [data.draw(st.lists(values, min_size=n, max_size=n))
                  for _ in range(k)]
        weights = data.draw(st.lists(values, min_size=k, max_size=k))
        folds = {}
        for a in ts.multi_indices(n, degree)[1:]:
            acc = None
            for w, p in zip(weights, points):
                term = w
                for j, e in enumerate(a):
                    for _ in range(e):
                        term = term * p[j]
                acc = term if acc is None else acc + term
            folds[a] = acc
        got = models._atom_moments(points, weights, degree)
        want = ts.TruncatedSeries.from_moments(n, degree, folds)
        assert [(repr(c), type(c)) for c in got._c] == [
            (repr(c), type(c)) for c in want._c]

    def test_weights_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            dirac_params(points=((1,), (2,)),
                         weights=(Fraction(1, 2), Fraction(1, 3)))


class TestHomoscedastic:
    def test_single_component_is_gaussian(self):
        rng = random.Random(3)
        mu = (rand_fraction(rng),)
        cov = ((Fraction(5, 4),),)
        mix = models.homoscedastic_moments(
            models.HomoscedasticParams(means=(mu,), weights=(1,), cov=cov), 4)
        assert mix == gaussian_moments(mu, cov, 4)

    @pytest.mark.parametrize("order", [9, 11, 57])
    def test_univariate_closed_form_past_order_eight(self, order):
        # m_j = sum_i w_i sum_l C(j, 2l) mu_i^(j - 2l) s^l (2l - 1)!!, the
        # moments of the Gaussians N(mu_i, s) mixed, read without a series
        means = (Fraction(-1, 2), Fraction(1, 3), Fraction(2))
        weights = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
        s = Fraction(3, 4)
        params = models.HomoscedasticParams(
            means=[[mu] for mu in means], weights=weights, cov=[[s]])
        series = models.homoscedastic_moments(params, order)
        expected = [
            sum(w * sum(math.comb(j, 2 * l) * mu ** (j - 2 * l) * s ** l
                        * math.prod(range(2 * l - 1, 0, -2))
                        for l in range(j // 2 + 1))
                for mu, w in zip(means, weights))
            for j in range(1, order + 1)]
        assert [series.moment((j,)) for j in range(1, order + 1)] == expected

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
            gauss = gaussian_moments((0, 0), cov, 4)
            atoms = dirac_moments(means, weights, 4)
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
        p = dirac_params(points=((0, 0),), weights=(1,))
        cumulants = models.homoscedastic_cumulants(p, 4).graded(3)
        assert cumulants == ts.TruncatedSeries.zero(2, 4)

    def test_two_point_third_order_coefficient(self):
        rng = random.Random(8)
        for _ in range(10):
            lam = Fraction(rng.randint(1, 99), 100)
            t = rand_fraction(rng, nonzero=True)
            p = dirac_params(
                points=((t,), (-lam / (1 - lam) * t,)), weights=(lam, 1 - lam))
            phi = models.homoscedastic_cumulants(p, 3).graded(3)
            f3 = lam * (1 - lam) * (1 - 2 * lam) / (6 * (1 - lam) ** 3)
            assert phi.coeff((3,)) == f3 * t ** 3


class TestLaplace:
    def test_zero_covariance_is_dirac(self):
        mu = (Fraction(3, 2), Fraction(-1, 2))
        lap = models.laplace_moments(
            models.LaplaceParams(location=mu, cov=((0, 0), (0, 0))), 4)
        dirac = models.homoscedastic_moments(
            dirac_params(points=(mu,), weights=(1,)), 4)
        assert lap == dirac

    def test_agrees_with_gaussian_through_order_three(self):
        rng = random.Random(10)
        mu = (rand_fraction(rng), rand_fraction(rng))
        cov = rand_symmetric(rng, 2)
        lap = models.laplace_moments(models.LaplaceParams(mu, cov), 3)
        gauss = models.homoscedastic_moments(gaussian_params(mu, cov), 3)
        assert lap == gauss

    def test_fourth_moment_doubles_gaussian(self):
        lap = models.laplace_moments(
            models.LaplaceParams(location=(0,), cov=((1,),)), 4)
        assert lap.moment((4,)) == 6


_MEANS = [[1, Fraction(-1, 2)], [Fraction(-1, 3), 2]]
_WEIGHTS = [Fraction(1, 4), Fraction(3, 4)]
_COV = [[2, Fraction(1, 2)], [Fraction(1, 2), 3]]
_MIXTURE = models.HomoscedasticParams(_MEANS, _WEIGHTS, _COV)
FORWARD_MAPS = {
    "gaussian": lambda d: models.homoscedastic_moments(
        gaussian_params(_MEANS[0], _COV), d),
    "laplace": lambda d: models.laplace_moments(
        models.LaplaceParams(_MEANS[0], _COV), d),
    "dirac": lambda d: models.homoscedastic_moments(
        dirac_params(_MEANS, _WEIGHTS), d),
    "homoscedastic": lambda d: models.homoscedastic_moments(_MIXTURE, d),
    "homoscedastic-cumulants":
        lambda d: models.homoscedastic_cumulants(_MIXTURE, d),
}


@pytest.mark.parametrize("name", sorted(FORWARD_MAPS))
def test_degree_one_is_the_truncated_series(name):
    # at degree 1 the covariance's quadratic form is truncated away, and
    # only the means are left
    assert FORWARD_MAPS[name](1) == FORWARD_MAPS[name](2).truncate(1)


class TestParameterRule:
    # a valid mixture: only the non-finite entry is wrong
    MIXTURE = {"means": [[-1.0], [1.0]], "weights": [0.5, 0.5],
               "cov": [[1.0]]}

    @pytest.mark.parametrize("family,field,value", [
        pytest.param(family, field, value, id=f"{family}-{name}")
        for family, fields in FAMILY_FIELDS.items()
        for name, (field, value) in NON_FINITE.items() if field in fields])
    def test_rejects_non_finite_parameters(self, family, field, value):
        # one rule for every family: a NaN or infinite entry is refused
        # under one code before the weight sum or the symmetry is
        # checked, which would refuse it as a precondition
        with pytest.raises(InputError) as caught:
            family_params(family, **dict(self.MIXTURE, **{field: value}))
        assert caught.value.code == "INPUT_PARSE"

    @pytest.mark.parametrize("make,code", [
        pytest.param(lambda: dirac_params(
            points=((1,), (2, 3)), weights=(Fraction(1, 2), Fraction(1, 2))),
            "DIMENSION_MISMATCH", id="ragged-points"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=((0.0,), (1.0,)), weights=(1.0,), cov=((1.0,),)),
            "DIMENSION_MISMATCH", id="more-means-than-weights"),
        pytest.param(lambda: gaussian_params(
            mean=(0, 0), cov=((1, 0), (0,))),
            "DIMENSION_MISMATCH", id="non-square-covariance"),
        # points with no coordinate, in every family
        pytest.param(lambda: models.LaplaceParams(location=(), cov=()),
                     "DIMENSION_MISMATCH", id="laplace-no-coordinate"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=((),), weights=(1.0,), cov=()),
            "DIMENSION_MISMATCH", id="homoscedastic-no-coordinate"),
        pytest.param(lambda: models.LaplaceParams(
            location=(0.0, 0.0), cov=((1.0, 0.5), (0.25, 1.0))),
            "PRECONDITION", id="asymmetric-covariance"),
        # far apart relative to the covariance, though within 1e-8 of
        # each other: the tolerance scales with the largest entry
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0, 0]], weights=[1], cov=[[1e-12, 1e-9], [0, 1e-12]]),
            "PRECONDITION", id="tiny-asymmetric-covariance"),
        pytest.param(lambda: models.LaplaceParams(
            location=[0, 0], cov=[[1e-12, 1e-9], [0, 1e-12]]),
            "PRECONDITION", id="laplace-tiny-asymmetric-covariance"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=((0,), (1,)), weights=(Fraction(1, 2), Fraction(1, 3)),
            cov=((1,),)), "PRECONDITION", id="fraction-weights-sum-to-5/6"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=((0.0,), (1.0,)), weights=(0.3, 0.6), cov=((1.0,),)),
            "PRECONDITION", id="float-weights-sum-to-0.9"),
        pytest.param(lambda: models.sample_mixture(models.HomoscedasticParams(
            means=((0.0,),), weights=(1.0,), cov=((1.0,),)), 0, seed=0),
            "PRECONDITION", id="sample-count-0"),
        pytest.param(lambda: models.sample_mixture(models.HomoscedasticParams(
            means=((0.0,), (1.0,)), weights=(-0.5, 1.5), cov=((1.0,),)),
            10, seed=0), "PRECONDITION", id="sample-negative-weight"),
        # a field that does not nest to its depth ('float' object is not
        # iterable), and entries that are not real numbers, which failed
        # only later in the sampler or the forward maps
        pytest.param(lambda: models.HomoscedasticParams(
            means=[0.0], weights=[1.0], cov=[[1.0]]),
            "INPUT_PARSE", id="flat-means"),
        pytest.param(lambda: gaussian_params(mean=[0.0], cov=[1.0]),
                     "INPUT_PARSE", id="flat-covariance"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[0.0, 1.0], weights=[0.5, 0.5], cov=[[0.0]]),
            "INPUT_PARSE", id="flat-points"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[["a"]], weights=[1.0], cov=[[1.0]]),
            "INPUT_PARSE", id="string-mean"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0.0]], weights=[1.0], cov=[[None]]),
            "INPUT_PARSE", id="none-covariance"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0.0]], weights=[1 + 0j], cov=[[1.0]]),
            "INPUT_PARSE", id="complex-weight"),
        pytest.param(lambda: models.LaplaceParams(
            location=["x"], cov=[[1.0]]), "INPUT_PARSE", id="string-location"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[True]], weights=[1.0], cov=[[1.0]]),
            "INPUT_PARSE", id="bool-mean"),
        pytest.param(lambda: models.HomoscedasticParams(
            means="ab", weights=[1.0], cov=[[1.0]]),
            "INPUT_PARSE", id="string-means"),
        pytest.param(lambda: models.HomoscedasticParams(
            means={0: [0.0]}, weights=[1.0], cov=[[1.0]]),
            "INPUT_PARSE", id="dict-means"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0.0]], weights=np.array(1.0), cov=[[1.0]]),
            "INPUT_PARSE", id="0-d-array-weights"),
        # exact entries beyond float range, which float() met with a bare
        # OverflowError: beside a float weight or covariance entry, and
        # where the sampler or as_dict reads them as floats
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0.0], [1.0]], weights=[10**400, 0.5], cov=[[1.0]]),
            "INPUT_RANGE", id="huge-weight-beside-a-float"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0, 0]], weights=[1],
            cov=[[1, Fraction(10**400)], [1.0, 1]]),
            "INPUT_RANGE", id="huge-covariance-entry-beside-a-float"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0, 0]], weights=[1], cov=[[10**400, 1.0], [1.0, 1]]),
            "INPUT_RANGE", id="huge-covariance-scale"),
        pytest.param(lambda: models.sample_mixture(models.HomoscedasticParams(
            means=[[10**400]], weights=[1], cov=[[1]]), 10, seed=0),
            "INPUT_RANGE", id="sample-huge-mean"),
        pytest.param(lambda: models.HomoscedasticParams(
            means=[[0], [1]], weights=[10**400, 1 - 10**400],
            cov=[[1]]).as_dict(), "INPUT_RANGE", id="as-dict-huge-weight")])
    def test_error_contract(self, make, code):
        with pytest.raises(InputError) as caught:
            make()
        assert caught.value.code == code

    @pytest.mark.parametrize("big", [10**17, 10**400], ids=["1e17", "1e400"])
    def test_exact_weights_cancel_before_a_float(self, big):
        # the exact weights sum exactly; only their sum meets the float
        p = models.HomoscedasticParams(means=[[0], [1], [2]],
                                       weights=[big, 1 - big, 0.0],
                                       cov=[[1]])
        assert p.weights == (big, 1 - big, 0.0)

    @pytest.mark.parametrize("field,depth", [
        ("means", 2), ("weights", 1), ("cov", 2)])
    def test_type_message(self, field, depth):
        # the message from_dict gave for a JSON field of the wrong type
        spec = dict(self.MIXTURE, **{field: "x"})
        with pytest.raises(InputError) as caught:
            models.HomoscedasticParams(**spec)
        assert str(caught.value) == (f"parameter field {field!r} must be a "
                                     f"list {'of lists ' * (depth - 1)}"
                                     "of numbers")

    def test_numpy_fields_read_as_python_numbers(self):
        # arrays and numpy scalars nest like lists; integers become exact
        p = models.HomoscedasticParams(
            means=np.array([[-1], [1]]), weights=[np.float64(0.5), 0.5],
            cov=np.array([[np.int32(1)]]))
        assert p.means == ((Fraction(-1),), (Fraction(1),))
        assert [type(w) for w in p.weights] == [float, float]
        assert type(p.cov[0][0]) is Fraction
        assert p == models.HomoscedasticParams(means=[[-1], [1]],
                                               weights=[0.5, 0.5], cov=[[1]])

    @pytest.mark.parametrize("ok", [True, False])
    def test_float_tolerance_is_relative_to_the_reference(self, ok):
        # within 1e-8 * scale of the reference passes and four times as
        # far fails: the weight sum (scale 1) and the symmetry (scale the
        # largest covariance entry, here at three sizes)
        off = 0.5e-8 if ok else 2e-8
        checks = [
            lambda: dirac_params(
                points=((0.0,), (1.0,)), weights=(0.5, 0.5 + off))]
        checks += [
            lambda s=s: gaussian_params(
                mean=(0.0, 0.0), cov=((s, s), (s + off * s, s)))
            for s in (1e-3, 1.0, 1e6)]
        for make in checks:
            if ok:
                make()
            else:
                with pytest.raises(PreconditionError):
                    make()


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
                                         (0.5, 0.0, 0.5)],
                             ids=lambda weights: ",".join(map(str, weights)))
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

    def test_rejects_negative_seed_before_drawing(self, monkeypatch):
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))

        def no_generator(seed):
            raise AssertionError("generator built for a negative seed")

        monkeypatch.setattr(models.np.random, "default_rng", no_generator)
        with pytest.raises(PreconditionError) as caught:
            models.sample_mixture(p, 10, seed=-1)
        assert caught.value.code == "PRECONDITION"

    @pytest.mark.parametrize("count,seed,name", [
        (10.5, 1, "count"), (10.0, 1, "count"), (10, 1.0, "seed"),
        (10, "1", "seed")],
        ids=["count-10.5", "count-10.0", "seed-float", "seed-str"])
    def test_rejects_non_integer_count_and_seed(self, count, seed, name):
        # these raised numpy's TypeError from the generator or the draw
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))
        with pytest.raises(PreconditionError) as caught:
            models.sample_mixture(p, count, seed)
        assert caught.value.code == "PRECONDITION"
        assert str(caught.value) == f"{name} must be an integer, got " + (
            str(count if name == "count" else seed))

    def test_accepts_numpy_integers(self):
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))
        assert np.array_equal(
            models.sample_mixture(p, np.int64(10), np.uint32(3)),
            models.sample_mixture(p, 10, 3))

    def test_accepts_bool_count(self):
        # operator.index reads True as 1; numpy refused the bool
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))
        assert np.array_equal(models.sample_mixture(p, True, 0),
                              models.sample_mixture(p, 1, 0))

    def test_oversized_count_refused_before_drawing(self, monkeypatch):
        # 2**60 rows of 8 bytes pass np.intp: numpy raised "array is too
        # big"; nothing is drawn or allocated
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))

        def no_generator(seed):
            raise AssertionError("generator built for an oversized count")

        monkeypatch.setattr(models.np.random, "default_rng", no_generator)
        with pytest.raises(PreconditionError) as caught:
            models.sample_mixture(p, 2**60, seed=0)
        assert str(caught.value) == f"count is too large to draw, got {2**60}"

    @pytest.mark.parametrize("draw", ["random", "standard_normal"])
    def test_memory_error_is_precondition_error(self, monkeypatch, draw):
        # a count numpy can size but memory cannot hold ended in numpy's
        # _ArrayMemoryError; the generator here fails as if it were one
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((1.0,),))
        real = np.random.default_rng

        class OutOfMemory:
            def __init__(self, seed):
                self.rng = real(seed)

            def __getattr__(self, name):
                if name == draw:
                    raise MemoryError("unable to allocate")
                return getattr(self.rng, name)

        monkeypatch.setattr(models.np.random, "default_rng", OutOfMemory)
        with pytest.raises(PreconditionError) as caught:
            models.sample_mixture(p, 10, seed=0)
        assert str(caught.value) == "count is too large to draw, got 10"

    def test_rejects_indefinite_covariance(self):
        p = models.HomoscedasticParams(means=((0.0,),), weights=(1.0,),
                                       cov=((-1.0,),))
        with pytest.raises(PreconditionError):
            models.sample_mixture(p, 10, seed=0)
