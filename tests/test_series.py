"""Truncated series arithmetic: ring laws, exp/log, the index table and
the dict-engine oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DictSeries, allclose, dict_exp, dict_log,
                      dict_multi_indices, rand_fraction, rand_series)
from homoment import estimate, ranktest
from homoment import series as ts
from homoment.errors import DimensionMismatchError, PreconditionError


class TestMul:
    def test_multiplicative_identity(self):
        rng = random.Random(1)
        for _ in range(10):
            m = rand_series(rng, 2, 4)
            assert m * ts.TruncatedSeries.one(2, 4) == m

    def test_truncation_at_degree_one(self):
        one_plus_u = ts.TruncatedSeries(1, 1, {(0,): 1, (1,): 1})
        sq = one_plus_u * one_plus_u
        assert sq == ts.TruncatedSeries(1, 1, {(0,): 1, (1,): 2})

    def test_commutative_associative_distributive(self):
        rng = random.Random(2)
        for _ in range(5):
            a = rand_series(rng, 2, 3)
            b = rand_series(rng, 2, 3)
            c = rand_series(rng, 2, 3)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_shape_mismatch_rejected(self):
        a = ts.TruncatedSeries.one(2, 3)
        b = ts.TruncatedSeries.one(2, 4)
        with pytest.raises(DimensionMismatchError):
            a * b
        with pytest.raises(DimensionMismatchError):
            a + ts.TruncatedSeries.one(3, 3)


class TestExpLog:
    def test_exp_of_zero(self):
        z = ts.TruncatedSeries.zero(2, 3)
        assert ts.exp(z) == ts.TruncatedSeries.one(2, 3)

    def test_exp_linear_plus_quadratic(self):
        # cumulants u + u^2/2 give raw moments 1, 2, 4
        k = ts.TruncatedSeries(1, 3, {(1,): 1, (2,): Fraction(1, 2)})
        m = ts.exp(k)
        assert [m.moment((j,)) for j in (1, 2, 3)] == [1, 2, 4]

    def test_log_of_one(self):
        assert ts.log(ts.TruncatedSeries.one(3, 4)) == ts.TruncatedSeries.zero(3, 4)

    def test_round_trips_exact(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.choice([1, 2, 3])
            d = rng.randint(1, 6)
            k = rand_series(rng, n, d, space="cumulant")
            assert ts.log(ts.exp(k)) == k
            m = rand_series(rng, n, d, space="moment")
            assert ts.exp(ts.log(m)) == m

    def test_preconditions(self):
        bad = ts.TruncatedSeries(1, 2, {(0,): 2})
        with pytest.raises(PreconditionError):
            ts.exp(bad)
        with pytest.raises(PreconditionError):
            ts.log(ts.TruncatedSeries.zero(1, 2))

    def test_independence_additivity(self):
        # log of a product is the sum of the logs
        rng = random.Random(4)
        for _ in range(5):
            x = rand_series(rng, 2, 4)
            y = rand_series(rng, 2, 4)
            assert ts.log(x * y) == ts.log(x) + ts.log(y)

    def test_truncate_commutes_with_transforms(self):
        rng = random.Random(5)
        for _ in range(5):
            m = rand_series(rng, 2, 5)
            assert ts.log(m).truncate(3) == ts.log(m.truncate(3))
            k = rand_series(rng, 2, 5, space="cumulant")
            assert ts.exp(k).truncate(3) == ts.exp(k.truncate(3))


class TestMomentConversion:
    def test_factorial_scaling(self):
        s = ts.TruncatedSeries(1, 2, {(2,): Fraction(1, 2)})
        assert s.moment((2,)) == 1
        t = ts.TruncatedSeries(2, 3, {(3, 0): Fraction(1, 6)})
        assert t.moment((3, 0)) == 1

    def test_round_trip_from_moments(self):
        rng = random.Random(10)
        raw = {a: rand_fraction(rng)
               for a in ts.multi_indices(2, 3) if sum(a) >= 1}
        s = ts.TruncatedSeries.from_moments(2, 3, raw)
        assert s.constant() == 1
        for a, value in raw.items():
            assert s.moment(a) == value

    def test_order_zero_moment_rejected(self):
        with pytest.raises(PreconditionError, match="order-zero moment is 1"):
            ts.TruncatedSeries.from_moments(2, 3, {(0, 0): 1})

    def test_out_of_range_index(self):
        s = ts.TruncatedSeries.one(2, 3)
        with pytest.raises(DimensionMismatchError):
            s.coeff((4, 0))

    @pytest.mark.parametrize("index", [(-1, 2), (2, -1), (1,), (1, 1, 0),
                                       (1.5, 0), ("1", 0)],
                             ids=lambda index: ",".join(map(repr, index)))
    def test_bad_index_is_input_error(self, index):
        # a float or string entry was read by int(): (1.5, 0) and ("1", 0)
        # named the coefficient at (1, 0)
        s = ts.TruncatedSeries.one(2, 3)
        with pytest.raises(DimensionMismatchError):
            s.coeff(index)
        with pytest.raises(DimensionMismatchError):
            s.moment(index)
        with pytest.raises(DimensionMismatchError):
            ts.TruncatedSeries.from_moments(2, 3, {index: 1})
        with pytest.raises(DimensionMismatchError):
            ts.TruncatedSeries(2, 3, {index: 1})

    @pytest.mark.parametrize("nvars,degree,message", [
        (2.0, 3, "nvars must be an integer, got 2.0"),
        (2, 3.5, "degree must be an integer, got 3.5"),
        (2, "3", "degree must be an integer, got 3")])
    def test_non_integer_shape_rejected(self, nvars, degree, message):
        # these raised a bare TypeError while the index table was built
        with pytest.raises(PreconditionError) as err:
            ts.TruncatedSeries(nvars, degree)
        assert str(err.value) == message

    @pytest.mark.parametrize("call,message", [
        (lambda s: ts.TruncatedSeries(0, 3), "nvars must be at least 1, got 0"),
        (lambda s: ts.TruncatedSeries(2, 0), "degree must be at least 1, got 0"),
        (lambda s: s.truncate(0), "degree must be at least 1, got 0"),
        (lambda s: s.truncate("3"), "degree must be an integer, got 3"),
        (lambda s: s.truncate(None), "degree must be an integer, got None"),
        (lambda s: s.graded("2"), "min_order must be an integer, got 2"),
        (lambda s: s.graded(2, 2.5), "max_order must be an integer, got 2.5")],
        ids=["nvars-0", "degree-0", "truncate-0", "truncate-str",
             "truncate-None", "graded-str", "graded-float"])
    def test_bad_shape_or_order_is_precondition(self, call, message):
        # a shape below 1 was DIMENSION_MISMATCH, a size error; truncate
        # compared its degree before checking it (a bare TypeError), and
        # graded left a string to numpy (UFuncTypeError)
        with pytest.raises(PreconditionError) as err:
            call(ts.TruncatedSeries.one(2, 3))
        assert str(err.value) == message

    def test_numpy_integer_shape(self):
        s = ts.TruncatedSeries(np.int64(2), np.uint8(3), {(1, 0): 1})
        assert (type(s.nvars), type(s.degree)) == (int, int)
        assert s == ts.TruncatedSeries(2, 3, {(1, 0): 1})
        assert s.truncate(np.int64(2)).degree == 2

    def test_no_extension_and_no_equal_number(self):
        s = ts.TruncatedSeries(1, 2)
        with pytest.raises(DimensionMismatchError) as err:
            s.truncate(3)
        assert str(err.value) == "cannot extend truncation 2 to 3"
        assert (s == 1) is False


class TestSizeRule:
    # the largest order admitted at n = 1..15 variables
    LARGEST = [57, 17, 10, 7, 6, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3]

    def test_largest_order_per_width(self):
        for n, d in enumerate(self.LARGEST, start=1):
            assert ts._check_shape(n, d) == (n, d)
            with pytest.raises(DimensionMismatchError):
                ts._check_shape(n, d + 1)

    @staticmethod
    def calls(nvars, degree):
        # every builder of a table: a series, a sample's cumulants and,
        # at one column, its raw moments
        data = np.random.default_rng(nvars).standard_normal((5, nvars))
        calls = [lambda: ts.TruncatedSeries.one(nvars, degree),
                 lambda: estimate.sample_cumulants(data, degree)]
        if nvars == 1:
            calls.append(lambda: ranktest.raw_moments(data.ravel(), degree))
        return calls

    @pytest.mark.parametrize("nvars,degree", [
        (1, 57), (2, 17), (3, 10), (8, 5), (12, 4), (26, 3), (57, 2),
        (318, 1)])
    def test_admitted(self, nvars, degree):
        for call in self.calls(nvars, degree):
            call()

    @pytest.mark.parametrize("nvars,degree", [
        (1, 58), (2, 18), (3, 11), (8, 6), (13, 4), (27, 3), (58, 2),
        (319, 1)])
    def test_refused_before_any_table(self, monkeypatch, nvars, degree):
        def unbuilt(n, d):
            raise AssertionError(f"index table of ({n}, {d}) built")

        monkeypatch.setattr(ts, "index_table", unbuilt)
        for call in self.calls(nvars, degree):
            with pytest.raises(DimensionMismatchError) as err:
                call()
            assert str(err.value) == (
                "max(degree * C(2 nvars + degree, degree), nvars * "
                "C(nvars + degree, degree)) must be at most 101745, got "
                f"nvars={nvars}, degree={degree}")

    def test_huge_shape_refused_at_once(self):
        # the binomial of these would not finish
        with pytest.raises(DimensionMismatchError):
            ts.TruncatedSeries(10 ** 18, 10 ** 18)


class TestFloatPath:
    def test_allclose_tolerance(self):
        a = ts.TruncatedSeries(1, 2, {(1,): 1.0, (2,): 0.5})
        b = ts.TruncatedSeries(1, 2, {(1,): 1.0 + 1e-15, (2,): 0.5})
        assert allclose(a, b)
        c = ts.TruncatedSeries(1, 2, {(1,): 1.0 + 1e-9, (2,): 0.5})
        assert not allclose(a, c)

    def test_float_round_trip(self):
        rng = random.Random(11)
        coeffs = {a: rng.uniform(-1, 1) for a in ts.multi_indices(2, 4)}
        coeffs[(0, 0)] = 0.0
        k = ts.TruncatedSeries(2, 4, coeffs)
        assert allclose(ts.log(ts.exp(k)), k)

    @pytest.mark.parametrize("j", [3, 7, 10])
    def test_division_by_an_int_is_one_quotient(self, j):
        # each float coefficient is divided by j once (a product with a
        # rounded 1/j missed x / j for about a third of them), and a
        # Fraction one stays exact
        rng = random.Random(j)
        coeffs = {a: rng.uniform(-1, 1) for a in ts.multi_indices(2, 6)}
        floats = ts.TruncatedSeries(2, 6, coeffs) / j
        assert list(floats.items()) == [(a, c / j) for a, c in coeffs.items()]
        exact = ts.TruncatedSeries(
            2, 6, {a: Fraction(c) for a, c in coeffs.items()}) / j
        assert [(a, c, type(c)) for a, c in exact.items()] == [
            (a, Fraction(c) / j, Fraction) for a, c in coeffs.items()]

    def test_numpy_integers_are_exact(self):
        # kept as int64, they divided to floats and wrapped in a product
        # (2**40 squared was 0)
        s = ts.TruncatedSeries(1, 2, {(1,): np.int64(2 ** 40)})
        assert list((s / 2).items()) == [((1,), Fraction(2 ** 39))]
        assert (s * s).coeff((2,)) == Fraction(2 ** 80)


class TestExactShift:
    @pytest.mark.parametrize("j", [0, 1])
    def test_fraction_oracle(self, j):
        # the raw moments of three rational points, shifted in variable
        # j, are the moments of the points with x_j - mean_j
        points = [(Fraction(1, 3), Fraction(-2)), (Fraction(5, 7), 0),
                  (Fraction(-4), Fraction(9, 2))]
        indices = ts.multi_indices(2, 4)[1:]

        def moments(pts):
            return [sum(x ** a[0] * y ** a[1] for x, y in pts) / 3
                    for a in indices]

        mean = sum(p[j] for p in points) / 3
        moved = [tuple(c - mean * (i == j) for i, c in enumerate(p))
                 for p in points]
        shifted = ts.exact_shift(moments(points), 2, 4, j)
        assert shifted == moments(moved)
        assert all(type(m) is Fraction for m in shifted)
        assert shifted[j] == 0


# ----------------------------------------------------------------------
# the array engine against the dict engine (tests/conftest.py)


@st.composite
def fraction_series_pairs(draw):
    """Two coefficient dicts of one random shape, n <= 4 and d <= 6, each
    sparse (a few indices) or dense (every index), zeros included."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    indices = dict_multi_indices(n, d)
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def coeffs():
        support = draw(st.one_of(
            st.lists(st.sampled_from(indices), max_size=5), st.just(indices)))
        return {a: draw(values) for a in support}

    return n, d, coeffs(), coeffs()


def same(series, oracle):
    """Exactly the oracle's coefficients, in its order and types, and its
    hash."""
    assert [(a, c, type(c)) for a, c in series.items()] == \
        [(a, c, type(c)) for a, c in oracle.items()]
    assert hash(series) == hash(oracle)


class TestDictOracle:
    @settings(max_examples=60, deadline=None)
    @given(fraction_series_pairs(), st.data())
    def test_operations_match(self, shapes, data):
        n, d, x, y = shapes
        a, b = ts.TruncatedSeries(n, d, x), ts.TruncatedSeries(n, d, y)
        oa, ob = DictSeries(n, d, x), DictSeries(n, d, y)
        same(a, oa)
        same(a * b, oa * ob)
        same(a + b, oa + ob)
        same(a - b, oa - ob)
        same(a * Fraction(-2, 3), oa * Fraction(-2, 3))
        same(2 * a, oa * 2)
        same(a / 3, oa / 3)
        same(a / 2.0, oa / 2.0)
        same(a / Fraction(1, 3), oa / Fraction(1, 3))
        for operation in (lambda: a + 1, lambda: a - 1, lambda: a / b):
            with pytest.raises(TypeError):
                operation()
        low = data.draw(st.integers(0, d))
        high = data.draw(st.integers(low, d))
        same(a.graded(low, high), oa.graded(low, high))
        same(a.graded(low), oa.graded(low))
        same(a.truncate(high or 1), oa.truncate(high or 1))
        cumulants = a.graded(1)
        same(ts.exp(cumulants), dict_exp(oa.graded(1)))
        moments = cumulants + ts.TruncatedSeries.one(n, d)
        same(ts.log(moments), dict_log(oa.graded(1) + DictSeries.one(n, d)))
        assert (a == b) == (oa == ob)
        assert a == ts.TruncatedSeries(n, d, oa.items())
        assert repr(a) == repr(oa)

    @pytest.mark.parametrize("n,d", [(1, 10), (2, 8), (4, 6), (8, 4),
                                     (40, 2), (63, 1)])
    def test_index_order(self, n, d):
        assert list(ts.multi_indices(n, d)) == dict_multi_indices(n, d)

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 9)
                                     for d in range(1, 9)]
                             + [(24, 2), (40, 2), (63, 1)])
    def test_parent_map(self, n, d):
        # each monomial is its parent times the coordinate of its last
        # nonzero exponent, and its parent is of the order below
        table = ts.index_table(n, d)
        assert table.parent[0] == -1 and table.column[0] == n - 1
        column, parent = table.column[1:], table.parent[1:]
        exponents = table.exponents[1:]
        unit = np.eye(n, dtype=np.int64)[column]
        assert (table.exponents[parent] + unit == exponents).all()
        assert (exponents[np.arange(len(column)), column] > 0).all()
        assert not np.where(np.arange(n) > column[:, None], exponents, 0).any()
        assert (table.order[parent] == table.order[1:] - 1).all()
        for array in (table.column, table.parent):
            assert not array.flags.writeable

    @pytest.mark.parametrize("n,d", [(1, 10), (2, 5), (3, 5), (6, 3),
                                     (8, 6), (12, 4), (26, 3), (40, 2),
                                     (63, 1), (318, 1)])
    def test_shift_and_pair_maps(self, n, d):
        # down[j] points at a - e_j (-1 where a_j = 0), and the pairs
        # (b, c) of each group sum to the group's index, every pair with
        # |b| + |c| <= d once
        table = ts.index_table(n, d)
        size = len(table.indices)
        for j in range(n):
            has = table.exponents[:, j] > 0
            assert ((table.down[j] >= 0) == has).all()
            shifted = table.exponents[table.down[j][has]]
            shifted[:, j] += 1
            assert (shifted == table.exponents[has]).all()
        groups = np.repeat(np.arange(size),
                           np.diff(table.starts, append=len(table.left)))
        assert (table.exponents[table.left] + table.exponents[table.right]
                == table.exponents[groups]).all()
        assert len(set(zip(table.left.tolist(), table.right.tolist()))) == \
            len(table.left) == math.comb(2 * n + d, d)

    @pytest.mark.parametrize("n,d", [(40, 2), (63, 1)])
    def test_product_on_wide_tables(self, n, d):
        # past the widths where base-(d + 1) int64 keys of the indices
        # overflowed
        rng = random.Random(n)
        indices = dict_multi_indices(n, d)
        x, y = ({a: rand_fraction(rng) for a in rng.sample(indices, 40)}
                for _ in range(2))
        a, b = ts.TruncatedSeries(n, d, x), ts.TruncatedSeries(n, d, y)
        same(a * b, DictSeries(n, d, x) * DictSeries(n, d, y))
        same(a + b, DictSeries(n, d, x) + DictSeries(n, d, y))

    def test_float_and_fraction_entries_compare(self):
        x = ts.TruncatedSeries(2, 2, {(1, 0): 0.5, (0, 2): 0.0})
        y = ts.TruncatedSeries(2, 2, {(1, 0): Fraction(1, 2)})
        assert x == y and hash(x) == hash(y)
        assert x.coeff((0, 2)) == 0 and type(x.coeff((0, 2))) is Fraction
        assert x.items() == [((1, 0), 0.5)]
