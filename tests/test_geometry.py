"""Exact dimension and defect computations for secant moment varieties."""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (VERONESE_SPORADIC, centered_cumulant_rank, det,
                      dirac_moments, dirac_params, gaussian_moments,
                      integer_rows, lagrange_interpolate, veronese_expected)
from homoment import exactla, geometry, models
from homoment import series as ts
from homoment.errors import DimensionMismatchError, PreconditionError
from homoment.exactla import PRIMES, rank


def bareiss_rank(matrix):
    """Reference rank over Q: fraction-free elimination on integer rows."""
    m, _ = integer_rows(matrix)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        top = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def hadamard_bound(matrix):
    """Bound on every minor of the integer-scaled matrix: the product of
    its row norms, each at least one."""
    rows, _ = integer_rows(matrix)
    return math.prod(max(1.0, math.hypot(*row)) for row in rows)


# Up to 6 x 6 with integer-scaled entries of size at most 8, so each row
# norm is at most sqrt(6) * 8 and, by Hadamard's inequality, every minor
# is below (sqrt(6) * 8)**6 = 216 * 8**6, about 5.7e7 < 2**26 < min(PRIMES).
# (Fractions with numerator at most 2 and denominator 1 or 2 scale to
# entries of size at most 4: minors below 216 * 4**6, about 8.8e5.)  A
# minor is then nonzero mod each prime exactly when it is nonzero: the
# modular rank must equal the rational one.
SMALL_INTS = st.integers(-8, 8)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


@st.composite
def small_matrices(draw):
    entries = draw(st.sampled_from([SMALL_INTS, SMALL_FRACTIONS]))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    # a repeated row keeps rank-deficient matrices common
    if nrows >= 2 and draw(st.booleans()):
        rows[draw(st.integers(1, nrows - 1))] = list(rows[0])
    return rows


def reference_rank(matrix, p):
    """Reference rank over GF(p): elimination on Python ints that
    reduces every entry mod p at every pivot."""
    m = [[x % p for x in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inverse = pow(m[r][c], -1, p)
        top = [x * inverse % p for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(x - f * t) % p for x, t in zip(m[i], top)]
        r += 1
    return r


@st.composite
def low_rank_residues(draw, p):
    """A product mod p of random residue factors of inner size at most
    the smaller side, so rank deficiency is common."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    inner = draw(st.integers(0, min(nrows, ncols)))
    residues = st.integers(0, p - 1)
    left = [draw(st.lists(residues, min_size=inner, max_size=inner))
            for _ in range(nrows)]
    right = [draw(st.lists(residues, min_size=ncols, max_size=ncols))
             for _ in range(inner)]
    return [[sum(a * right[t][j] for t, a in enumerate(row)) % p
             for j in range(ncols)] for row in left]


@st.composite
def low_rank_integers(draw):
    """An integer matrix of rank at most the inner size of its two
    factors, wide or tall, with zero rows and zero columns inserted."""
    nrows = draw(st.integers(1, 10))
    ncols = draw(st.integers(1, 10))
    inner = draw(st.integers(0, min(nrows, ncols)))
    entries = st.integers(-2**20, 2**20)
    left = [draw(st.lists(entries, min_size=inner, max_size=inner))
            for _ in range(nrows)]
    right = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
             for _ in range(inner)]
    matrix = [[sum(a * right[t][j] for t, a in enumerate(row))
               for j in range(ncols)] for row in left]
    for _ in range(draw(st.integers(0, 3))):
        matrix.insert(draw(st.integers(0, len(matrix))), [0] * ncols)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, ncols))
        ncols += 1
        for row in matrix:
            row.insert(at, 0)
    return matrix


class TestExactLinearAlgebra:
    def test_rank_of_rational_matrix(self):
        m = [[Fraction(1, 2), 1, 0],
             [Fraction(1, 4), Fraction(1, 2), 0],
             [0, 0, 5]]
        assert rank(integer_rows(m)[0]) == 2

    def test_rank_counts_pivots_with_column_skips(self):
        m = [[0, 1, 2], [0, 2, 4], [0, 0, 0]]
        assert rank(m) == 1
        # pivots fall in columns 2, 0 and 1; the last row, the sum of
        # the others, reduces to zero
        m = [[0, 0, 3, 1], [5, 0, 1, 2], [2, 7, 0, 4], [7, 7, 4, 7]]
        assert rank(m, 11) == rank(list(zip(*m)), 11) == 3

    def test_det_values(self):
        assert det([[Fraction(1, 2), 1], [1, 4]]) == 1
        assert det([[2]]) == 2
        assert det([[1, 2], [2, 4]]) == 0
        rng = random.Random(0)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(4)] for _ in range(4)]
        swapped = [m[1], m[0], m[2], m[3]]
        assert det(swapped) == -det(m)

    @pytest.mark.parametrize("compute,matrix", [
        (rank, [[0.5, 0.5], [0.5, 0.5]]),
        (det, [[0.5]]),
        (rank, [[Fraction(1, 2), 1], [1, 2]]),
    ], ids=["rank-float", "det-float", "rank-fraction"])
    def test_float_entries_rejected(self, compute, matrix):
        # rank takes integers only; det also takes fractions
        with pytest.raises(PreconditionError):
            compute(matrix)

    @settings(deadline=None)
    @given(small_matrices(), st.sampled_from(PRIMES))
    def test_modular_rank_matches_bareiss(self, matrix, p):
        assert hadamard_bound(matrix) < min(PRIMES)
        assert rank(integer_rows(matrix)[0], p) == bareiss_rank(matrix)

    # 2**31 - 1 is the largest modulus accepted; with (p - 1)**2 near
    # 2**62 the trailing block is reduced every second pivot
    @pytest.mark.parametrize("p", [2**31 - 1, *PRIMES, 101, 3])
    @settings(deadline=None)
    @given(data=st.data())
    def test_delayed_reduction_matches_reference(self, p, data):
        # as lists of ints and as the int64 rows the Jacobian builders
        # return: one rank, and neither form is modified
        matrix = data.draw(low_rank_residues(p))
        lists = [list(row) for row in matrix]
        arrays = [np.array(row, dtype=np.int64) for row in matrix]
        assert rank(lists, p) == rank(arrays, p) == reference_rank(matrix, p)
        assert lists == matrix
        assert [row.tolist() for row in arrays] == matrix

    # rank eliminates along the shorter side, transposing a tall matrix
    @pytest.mark.parametrize("p", [2, 3, 101, PRIMES[0], 2**31 - 1])
    @settings(deadline=None)
    @given(data=st.data())
    def test_rank_of_transpose(self, p, data):
        matrix = data.draw(low_rank_integers())
        m = np.array(matrix, dtype=np.int64)
        assert (rank(m, p) == rank(m.T, p) == rank(list(m), p)
                == reference_rank(matrix, p))

    # rank pivots on each reduced row's first nonzero entry with no column
    # swap; permuting rows and columns moves pivots out of column order
    @pytest.mark.parametrize("p", [2, 3, 101, PRIMES[0], 2**31 - 1])
    @settings(deadline=None)
    @given(data=st.data())
    def test_rank_of_permuted_matrix(self, p, data):
        matrix = data.draw(low_rank_residues(p))
        m = np.array(matrix, dtype=np.int64)
        rows = data.draw(st.permutations(range(m.shape[0])))
        cols = data.draw(st.permutations(range(m.shape[1])))
        assert (rank(m, p) == rank(m[rows][:, cols], p)
                == reference_rank(matrix, p))

    # rank takes int64 residues as they are and reduces anything else
    # first: entries below 0, at least p, or already in [0, p), out to
    # the ends of int64, where an update to an unreduced entry overflows
    @pytest.mark.parametrize("p", [2, 3, 101, PRIMES[0], 2**31 - 1])
    @settings(deadline=None)
    @given(data=st.data())
    def test_entries_outside_the_residues_are_reduced(self, p, data):
        residues = np.array(data.draw(low_rank_residues(p)), dtype=np.int64)
        most = 2**63 // p - 1
        shifts = data.draw(st.sampled_from([(0, 0), (-most, -1), (1, most),
                                            (-most, most), (-1, 1)]))
        m = residues + p * np.array(data.draw(st.lists(
            st.integers(*shifts), min_size=residues.size,
            max_size=residues.size)), dtype=np.int64).reshape(residues.shape)
        want = reference_rank(residues.tolist(), p)
        for matrix in (m, m.T):
            before = matrix.copy()
            assert rank(matrix, p) == rank(matrix % p, p) == want
            assert (matrix == before).all()

    @pytest.mark.parametrize("p", PRIMES)
    def test_modular_rank_is_a_lower_bound(self, p):
        # p divides the only 2 x 2 minor: the rank drops, never rises
        m = [[1, 0], [0, p]]
        assert bareiss_rank(m) == 2
        assert rank(m, p) == 1

    @pytest.mark.parametrize("matrix,expected", [
        ([[Fraction(1, PRIMES[0]), 1], [0, 1]], 2),
        ([[Fraction(1, PRIMES[0]), Fraction(2, PRIMES[0])], [1, 2]], 1),
    ], ids=["rank-2", "rank-1"])
    def test_denominator_equal_to_the_prime(self, matrix, expected):
        assert bareiss_rank(matrix) == expected
        assert rank(integer_rows(matrix)[0], PRIMES[0]) == expected

    @pytest.mark.parametrize("matrix", [
        [1, 2, 3],
        [[1, 2], [3]],
        [[[1, 2], [3, 4]]],
    ], ids=["vector", "ragged", "stack"])
    def test_non_matrix_rejected(self, matrix):
        with pytest.raises(DimensionMismatchError) as err:
            rank(matrix)
        assert err.value.code == "DIMENSION_MISMATCH"

    def test_empty_matrix_has_rank_zero(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0

    @pytest.mark.parametrize("p", [1, 2**31 + 11, 2**61 - 1])
    def test_modulus_out_of_int64_range_rejected(self, p):
        with pytest.raises(PreconditionError):
            rank([[1]], p)

    @pytest.mark.parametrize("p", [4, 9, 2**31 - 3, float(PRIMES[0])])
    def test_composite_or_float_modulus_rejected(self, p):
        # over Z/4Z the pivot 2 has no inverse: this raised a bare
        # ValueError from pow (a float modulus a TypeError)
        with pytest.raises(PreconditionError) as err:
            rank([[2, 1], [1, 3]], p)
        assert err.value.code == "PRECONDITION"

    @pytest.mark.parametrize("p", [2, 3, 101, *PRIMES, 2**31 - 1])
    def test_prime_moduli_accepted(self, p):
        matrix = [[2, 1], [1, 3], [3, 4]]
        assert rank(matrix, p) == reference_rank(matrix, p)

    def test_numpy_integer_modulus(self):
        # _is_prime called bit_length on the numpy integer
        assert rank([[1, 2], [3, 4]], np.int64(101)) == 2

    def test_primality_matches_trial_division(self):
        # every modulus to 5000, and the strong pseudoprimes to base 2
        # (2047, 3277), to bases 2 and 3 (1373653) and to 2, 3 and 5
        # (25326001) that Miller-Rabin must refuse
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

        for n in [*range(5000), 1373653, 25326001]:
            assert exactla._is_prime(n) == trial(n), n


# Reference builders over Q: each secant Jacobian read off the closed-form
# tangent series with ``TruncatedSeries`` over ``Fraction``.  The library
# builds the same Jacobians as residues mod p; these are the oracle.


def moment_columns(n, d, lowest=1):
    return [a for a in ts.multi_indices(n, d) if sum(a) >= lowest]


def lowered(indices, j):
    """a - e_j for each index a, or None where a_j = 0 (or a is None):
    (u_j S)[a] = S[a - e_j], and no coefficient dict holds None."""
    return [a[:j] + (a[j] - 1,) + a[j + 1:] if a and a[j] else None
            for a in indices]


def atom_series(point, degree):
    """E = exp(p.u), the moment series of one atom at p."""
    return dirac_moments([point], [1], degree)


def fraction_tangent_rows(weights, terms, cols):
    """Rows dM/dp_ij, then dM/dw_i for i < k, at the columns ``cols``;
    ``terms`` are the coefficient dicts of E_i F."""
    down = [lowered(cols, j) for j in range(len(cols[0]))]
    rows = [[w * t.get(b, 0) for b in shifted]
            for w, t in zip(weights, terms) for shifted in down]
    last = terms[-1]
    rows += [[t.get(a, 0) - last.get(a, 0) for a in cols] for t in terms[:-1]]
    return rows


def fraction_moment_map_jacobian(params, degree):
    """``geometry.moment_map_jacobian`` over Q."""
    n = len(params.means[0])
    cols = moment_columns(n, degree)
    gauss = gaussian_moments((0,) * n, params.cov, degree)
    terms = [dict((atom_series(mean, degree) * gauss).items())
             for mean in params.means]
    rows = fraction_tangent_rows(params.weights, terms, cols)
    # the covariance rows read M only up to order degree - 2
    moments = {a: sum(w * t.get(a, 0) for w, t in zip(params.weights, terms))
               for a in ts.multi_indices(n, degree - 2)}
    down = [lowered(cols, j) for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            scale = Fraction(1, 2) if i == j else 1
            rows.append([scale * moments.get(b, 0)
                         for b in lowered(down[i], j)])
    return rows


def fraction_block(atoms, weights, d, lowest):
    """``geometry._block`` over Q: the rows w_i u_j E_i / D and
    (E_i - E_k) / D, i < k, at the orders >= ``lowest``."""
    n = len(atoms[0])
    inverse = ts.exp(-ts.log(dirac_moments(atoms, weights, d)))
    terms = [dict((atom_series(a, d) * inverse).items()) for a in atoms]
    rows = fraction_tangent_rows(weights, terms, moment_columns(n, d, lowest))
    return rows[:(len(atoms) - 1) * n] + rows[len(atoms) * n:]


def fraction_veronese_jacobian(points, weights, d):
    """The whole Jacobian of a Dirac mixture over Q: rows dM/dp_ij, then
    dM/dw_i for i < k, at every order."""
    terms = [dict(atom_series(p, d).items()) for p in points]
    return fraction_tangent_rows(weights, terms,
                                 moment_columns(len(points[0]), d))


def reduced(matrix, p):
    """Entrywise residues mod p of a rational matrix."""
    return [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
             for x in row] for row in matrix]


def symmetric(upper, n):
    """Symmetric n x n matrix from its upper triangle in row-major order."""
    entries = iter(upper)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(entries)
    return m


def mixture_point(n, k, rng):
    """A whole mixture point for the whole Jacobian: the means and weights
    ``geometry._mixture_point`` draws, then a covariance drawn after them
    from the same stream."""
    means, weights = geometry._mixture_point(n, k, rng)
    cov = symmetric(geometry._draw(rng, n * (n + 1) // 2), n)
    return SimpleNamespace(means=means, weights=weights, cov=cov)


def mixture_block_oracle(n, k, d, rng):
    return fraction_block(*geometry._mixture_point(n, k, rng), d, 3)


# the oracle over Q of each residue block at the point it draws from ``rng``
ORACLES = {
    "_mixture_block": mixture_block_oracle,
    "_veronese_block": lambda n, k, d, rng: fraction_block(
        *geometry._veronese_point(n, k, rng), d, 2),
}

# The block behind each Jacobian rank, with the lowest order it keeps:
# the mixture's, the Dirac mixture's, and that of the centered cumulant
# map, which ``centered_cumulant_rank`` ranks as the mixture block.
BLOCKS = {
    "_mixture_jacobian": ("_mixture_block", 3),
    "_veronese_jacobian": ("_veronese_block", 2),
    "_centered_jacobian": ("_mixture_block", 3),
}


@pytest.mark.parametrize("builder,n,k,d", [
    ("_mixture_jacobian", 3, 2, 4), ("_veronese_jacobian", 2, 3, 4),
    ("_centered_jacobian", 3, 3, 3),
])
@pytest.mark.parametrize("p", PRIMES)
def test_builders_return_int64_residue_rows(builder, n, k, d, p):
    name, lowest = BLOCKS[builder]
    block = getattr(geometry, name)(n, k, d, random.Random(n + k + d), p)
    columns = len(moment_columns(n, d, lowest))
    assert isinstance(block, np.ndarray) and block.dtype == np.int64
    assert block.shape == ((k - 1) * (n + 1), columns)
    assert 0 <= block.min() and block.max() < p


class TestMomentJacobian:
    def test_single_gaussian_has_full_parameter_rank(self):
        for n in (1, 2, 3):
            p = geometry.defect_report(n, 1, 3, seed=0)
            assert p.dim == n + n * (n + 1) // 2
            assert p.fiber_dim == 0

    def test_degenerate_point_drops_rank(self):
        # coincident means with zero covariance cannot be generic
        point = models.HomoscedasticParams(
            means=((1, 1), (1, 1)), weights=(Fraction(1, 2), Fraction(1, 2)),
            cov=((0, 0), (0, 0)))
        p = PRIMES[0]
        degenerate = rank(geometry.moment_map_jacobian(point, 3, p), p)
        assert degenerate < geometry.defect_report(2, 2, 3, seed=0).dim

    def test_first_point_is_pinned(self):
        # the Jacobian at the first random point of (n, k, d) = (1, 2, 3);
        # any change to the order of random draws changes it
        rng = random.Random(geometry._mix_seed(0, 1, 2, 3, 0))
        jac = fraction_moment_map_jacobian(mixture_point(1, 2, rng), 3)
        assert jac == [[-956, -922540, -444730244],
                       [957, -562716, Fraction(330085569, 2)],
                       [1553, Fraction(585481, 2), Fraction(549038302, 3)],
                       [0, Fraction(1, 2), -742628]]

    def test_draw_replays_randint(self):
        # the same coordinates as randint, and the stream left in the same
        # state for the draws that follow
        for seed in range(50):
            rng, twin = random.Random(seed), random.Random(seed)
            count = seed % 13 + 1
            assert geometry._draw(rng, count) == [
                twin.randint(-geometry.COORD_BOUND, geometry.COORD_BOUND)
                for _ in range(count)]
            assert rng.getstate() == twin.getstate()

    def test_each_point_has_its_own_prime(self, monkeypatch):
        moduli = []

        def recording_rank(matrix, p):
            moduli.append(p)
            return rank(matrix, p)

        monkeypatch.setattr(geometry, "rank", recording_rank)
        # a defective Veronese row ranks two points
        geometry.veronese_report(2, 5, 4, seed=0)
        assert moduli[:2] == [PRIMES[0], PRIMES[1]]

    def test_rank_stable_across_seeds(self):
        a = geometry.defect_report(2, 3, 3, seed=0)
        b = geometry.defect_report(2, 3, 3, seed=123)
        assert a.dim == b.dim


def tangent_by_interpolation(forward, free, r, degree, cols):
    """Coefficients of t at ``cols`` in the series forward(free + t e_r).

    Each coefficient is a polynomial of degree at most ``degree`` in t, so
    degree + 1 integer offsets determine it exactly."""
    offsets = range(degree + 1)
    images = []
    for t in offsets:
        moved = list(free)
        moved[r] += t
        images.append(forward(moved))
    return [lagrange_interpolate(offsets, [s.coeff(a) for s in images])[1]
            for a in cols]


def homoscedastic_point(free, n, k):
    """Mixture from its free coordinates in Jacobian row order: means,
    the first k-1 weights, the upper triangle of the covariance."""
    upper = iter(free[k * n + k - 1:])
    cov = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cov[i][j] = cov[j][i] = next(upper)
    weights = list(free[k * n:k * n + k - 1])
    return models.HomoscedasticParams(
        means=[free[i * n:(i + 1) * n] for i in range(k)],
        weights=weights + [1 - sum(weights)], cov=cov)


def dirac_point(free, n, k):
    """Atoms and the first k-1 weights in Jacobian row order."""
    weights = list(free[k * n:])
    return dirac_params(points=[free[i * n:(i + 1) * n] for i in range(k)],
                        weights=weights + [1 - sum(weights)])


class TestTangentsMatchForwardMaps:
    """Every row of the reference Jacobians over Q equals the t-linear
    term of the forward map moved along that parameter, found by exact
    interpolation."""

    @pytest.mark.parametrize("n,k,d", [(1, 3, 5), (2, 2, 3), (2, 3, 4),
                                       (3, 2, 4)])
    def test_moment_map_jacobian(self, n, k, d):
        rng = random.Random(n * 100 + k * 10 + d)
        free = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(geometry.parameter_count(n, k))]
        point = homoscedastic_point(free, n, k)
        jac = fraction_moment_map_jacobian(point, d)
        cols = moment_columns(n, d)
        assert len(jac) == len(free)
        for r, row in enumerate(jac):
            assert row == tangent_by_interpolation(
                lambda x: models.homoscedastic_moments(
                    homoscedastic_point(x, n, k), d), free, r, d, cols)
        for p in PRIMES:  # rational points: Fraction means and weights
            assert [row.tolist() for row in geometry.moment_map_jacobian(
                point, d, p)] == reduced(jac, p)

    @pytest.mark.parametrize("n,k,d", [(1, 2, 3), (2, 3, 4), (3, 2, 5)])
    def test_veronese(self, n, k, d):
        # the builder draws its point from rng; a twin stream replays it
        rng, twin = random.Random(d), random.Random(d)
        jac = fraction_veronese_jacobian(*geometry._veronese_point(n, k, rng), d)
        free = geometry._draw(twin, k * n + k - 1)
        cols = moment_columns(n, d)
        assert len(jac) == len(free)
        for r, row in enumerate(jac):
            assert row == tangent_by_interpolation(
                lambda x: models.homoscedastic_moments(
                    dirac_point(x, n, k), d),
                free, r, d, cols)

    @pytest.mark.parametrize("n,k,d", [(2, 2, 3), (2, 3, 4), (3, 3, 3)])
    def test_centered(self, n, k, d):
        # the rows of B are the tangents of log D, the cumulant series of
        # the Dirac mixture, along the first k - 1 atoms and weights; B is
        # also the Jacobian of the centered cumulant map at orders >= 3
        means, weights = geometry._mixture_point(n, k, random.Random(d))
        block = fraction_block(means, weights, d, 2)
        free = [x for mean in means for x in mean] + weights[:-1]
        along = [r for r in range(len(free)) if not (k - 1) * n <= r < k * n]
        cols = moment_columns(n, d, lowest=2)
        assert len(block) == len(along) == (k - 1) * (n + 1)
        for r, row in zip(along, block):
            assert row == tangent_by_interpolation(
                lambda x: models.homoscedastic_cumulants(
                    dirac_point(x, n, k), d), free, r, d, cols)


def check_against_oracle(monkeypatch, builder):
    """Make ``geometry.<builder>`` compare every block it returns with
    the oracle over Q, reduced mod p, at the point a twin of its random
    stream draws.  Returns the list of (n, k, d, p) checked."""
    real = getattr(geometry, builder)
    checked = []

    def checking(n, k, d, rng, p):
        twin = random.Random()
        twin.setstate(rng.getstate())
        block = real(n, k, d, rng, p)
        expected = reduced(ORACLES[builder](n, k, d, twin), p)
        assert block.tolist() == expected, (n, k, d, p)
        checked.append((n, k, d, p))
        return block

    monkeypatch.setattr(geometry, builder, checking)
    return checked


# the 576-row envelope, and its defective cells (all at d = 3)
ENVELOPE = [(n, k, d) for n in range(1, 9) for k in range(1, 13)
            for d in range(1, 7)]
DEFECTIVE_CELLS = [(n, k, d) for n, k, d in ENVELOPE
                   if d == 3 and geometry.predicted_defect_order3(n, k)]


class TestResiduesMatchFractionOracle:
    """Each residue block equals its oracle over Q reduced mod p."""

    @pytest.mark.parametrize("p", [PRIMES[0], 101, 8388593])
    @pytest.mark.parametrize("n,d", [(1, 6), (2, 5), (3, 3), (8, 2), (8, 6)])
    def test_atoms(self, p, n, d):
        # E_i[a] = prod_j p_ij^a_j / a_j!, each factor reduced mod p
        points = np.random.default_rng(n * d).integers(0, p, size=(3, n))
        table = ts.index_table(n, d)
        want = [[math.prod(pow(int(x), e, p) * pow(math.factorial(e), -1, p)
                           for x, e in zip(row, a)) % p
                 for a in table.indices] for row in points]
        plan = geometry._plan(n, d, p)
        assert geometry._atoms(points, plan).tolist() == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_residues(self, p):
        # integers are reduced directly, fractions through the inverse of
        # their denominator, which must be a unit mod p
        values = [Fraction(3), Fraction(-7), Fraction(p + 5), 2, Fraction(2, 3),
                  Fraction(-5, 12)]
        want = [x.numerator * pow(x.denominator, -1, p) % p
                for x in map(Fraction, values)]
        got = geometry._residues(values, p)
        assert got.dtype == np.int64 and got.tolist() == want
        with pytest.raises(PreconditionError, match="not a unit"):
            geometry._residues([Fraction(1), Fraction(1, 2 * p)], p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_draws(self, monkeypatch, n):
        # every draw behind C01 and C02 (k = 1..12 at d = 3, seed 0) and
        # behind the pinned --n 1..4 --d 3..4 digest
        checked = check_against_oracle(monkeypatch, "_mixture_block")
        cells = [(k, 3) for k in range(1, 13)]
        if n <= 4:
            cells += [(k, 4) for k in geometry.default_k_range(n, 4)]
        reports = [geometry.defect_report(n, k, d, seed=0) for k, d in cells]
        assert len(checked) == sum(r.points for r in reports)

    @pytest.mark.parametrize("trial", [1, 2])
    def test_later_points_of_defective_rows(self, trial):
        # the paper's theorem settles each d = 3 row at its first point, so
        # no report draws these; build them as a row whose first point fell
        # short would, and check them as the reports' draws are checked
        p = PRIMES[trial]
        for n, k, d in DEFECTIVE_CELLS:
            seed = geometry._mix_seed(0, n, k, d, trial)
            block = geometry._mixture_block(n, k, d, random.Random(seed), p)
            assert block.tolist() == reduced(
                mixture_block_oracle(n, k, d, random.Random(seed)), p), (n, k)
            whole = geometry.moment_map_jacobian(
                mixture_point(n, k, random.Random(seed)), d, p)
            split = n + n * (n + 1) // 2
            assert split + rank(list(block), p) == rank(whole, p), (n, k)

    def test_veronese_report_draws(self, monkeypatch):
        checked = check_against_oracle(monkeypatch, "_veronese_block")
        cases = [(2, 5, 4), (3, 2, 2), (4, 3, 2), (1, 2, 3)]
        reports = [geometry.veronese_report(n, k, d, seed=0)
                   for n, k, d in cases]
        assert len(checked) == sum(r.points for r in reports)

    def test_centered_rank_draws(self, monkeypatch):
        checked = check_against_oracle(monkeypatch, "_mixture_block")
        cases = [(2, 2), (5, 7), (2, 3), (4, 3)]
        for n, k in cases:
            centered_cumulant_rank(n, k, 3, seed=0)
        # (2, 3) reaches min(rows, cols) = 4 at its first point
        assert [c[:2] for c in checked] == [(2, 2), (2, 2), (5, 7), (5, 7),
                                            (2, 3), (4, 3), (4, 3)]

    @pytest.mark.parametrize("builder,n,k,d", [
        ("_veronese_jacobian", 1, 2, 3), ("_veronese_jacobian", 2, 3, 4),
        ("_veronese_jacobian", 3, 2, 5), ("_centered_jacobian", 2, 2, 3),
        ("_centered_jacobian", 2, 3, 4), ("_centered_jacobian", 3, 3, 3),
    ])
    def test_tangent_case_draws(self, monkeypatch, builder, n, k, d):
        # the points of TestTangentsMatchForwardMaps, under every prime
        name, _ = BLOCKS[builder]
        checked = check_against_oracle(monkeypatch, name)
        for p in PRIMES:
            getattr(geometry, name)(n, k, d, random.Random(d), p)
        assert len(checked) == len(PRIMES)


class TestSeriesPlan:
    """The plan ``geometry`` builds series mod p from, once per (n, d, p),
    and the product that sums its terms before reducing them."""

    @pytest.mark.parametrize("n", range(1, geometry.MAX_N + 1))
    def test_product_groups_stay_in_int64(self, n):
        # the pairs (b, a - b) of an index a number prod_j (a_j + 1); a
        # group's terms are each below (p - 1)**2
        for d in range(1, geometry.MAX_D + 1):
            table = ts.index_table(n, d)
            groups = np.diff(table.starts, append=len(table.left))
            assert groups.tolist() == [math.prod(e + 1 for e in a)
                                       for a in table.indices]
            assert int(groups.max()) <= 64
            assert int(groups.max()) * (max(PRIMES) - 1) ** 2 < 2**63

    @pytest.mark.parametrize("p", PRIMES)
    def test_unreduced_product_at_the_largest_residues(self, p):
        # every residue p - 1: each term is (p - 1)**2 before reduction,
        # and 1 after it
        plan = geometry._plan(6, 6, p)
        table = plan.table
        x = np.full((2, len(table.order)), p - 1, dtype=np.int64)
        y = x[0]
        terms = x[:, table.left] * y[table.right] % p
        want = np.add.reduceat(terms, table.starts, axis=-1) % p
        got = geometry._product(x, y, plan)
        assert got.tolist() == want.tolist()
        assert got[0].tolist() == [math.prod(e + 1 for e in a) % p
                                   for a in table.indices]

    def test_prime_too_large_for_the_unreduced_sums(self):
        # four pairs at u_1 u_2, each near 2**62, leave int64
        with pytest.raises(PreconditionError, match="overflows int64"):
            geometry._plan(2, 2, 2**31 - 1)
        geometry._plan(1, 1, 2**31 - 1)   # two pairs fit

    def test_plan_is_built_once_and_read_only(self):
        geometry._plan.cache_clear()
        for _ in range(2):
            # the defective Veronese row (2, 5, 4) ranks two points, each
            # under its own prime; the mixture row ranks one
            geometry.veronese_report(2, 5, 4, seed=0)
            geometry.defect_report(2, 3, 4, seed=0)
            geometry.moment_map_jacobian(mixture_point(2, 2, random.Random(0)),
                                         4, PRIMES[0])
        assert geometry._plan.cache_info().misses == 2
        plan = geometry._plan(2, 4, PRIMES[0])
        arrays = [plan.scale, plan.one, plan.shift]
        arrays += [parents for _, parents in plan.orders]
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0


def check_split(monkeypatch, builder, whole):
    """Make ``geometry.<builder>`` check at every point it draws that the
    count split off plus the rank of its block is the rank of the whole
    Jacobian ``whole(n, k, d, twin, p)`` under the same prime.  Returns
    the list of (n, k, d, p) checked."""
    real = getattr(geometry, builder)
    checked = []

    def checking(n, k, d, rng, p):
        twin = random.Random()
        twin.setstate(rng.getstate())
        block = real(n, k, d, rng, p)
        # translations span order 1; a mixture's covariance spans order 2
        split = n + (n * (n + 1) // 2 if builder == "_mixture_block"
                     and d >= 2 else 0)
        assert split + rank(list(block), p) == rank(whole(n, k, d, twin, p),
                                                    p), (n, k, d, p)
        checked.append((n, k, d, p))
        return block

    monkeypatch.setattr(geometry, builder, checking)
    return checked


MIXTURE_CELLS = {
    "published": [(n, k, 3) for n in range(1, 8)
                  for k in geometry.default_k_range(n)],
    "n8": [(8, k, 3) for k in range(2, 13)],
    "d1-2-4": [(n, k, d) for n in (1, 2, 3) for d in (1, 2, 4)
               for k in range(1, 6)],
}


class TestSplitRank:
    """rank J = split-off count + rank B at every point a report draws."""

    @pytest.mark.parametrize("cells", MIXTURE_CELLS)
    def test_mixture(self, monkeypatch, cells):
        checked = check_split(
            monkeypatch, "_mixture_block",
            lambda n, k, d, rng, p: geometry.moment_map_jacobian(
                mixture_point(n, k, rng), d, p))
        reports = [geometry.defect_report(n, k, d, seed=0)
                   for n, k, d in MIXTURE_CELLS[cells]]
        assert len(checked) == sum(r.points for r in reports)

    def test_veronese(self, monkeypatch):
        checked = check_split(
            monkeypatch, "_veronese_block",
            lambda n, k, d, rng, p: reduced(fraction_veronese_jacobian(
                *geometry._veronese_point(n, k, rng), d), p))
        cells = [(n, k, d) for n, d, k in VERONESE_SPORADIC]
        cells += [(n, k, d) for n in (1, 2, 3, 4) for d in (1, 2)
                  for k in range(1, 6)]
        cells += [(2, k, 3) for k in range(1, 15)]
        reports = [geometry.veronese_report(n, k, d, seed=0)
                   for n, k, d in cells]
        assert len(checked) == sum(r.points for r in reports)


class TestCeiling:
    """The ceiling a report hands ``_point_ranks``, min(par, ambient), is
    the count split off plus min(rows, cols) of B on every cell."""

    @pytest.mark.parametrize("builder", ["_mixture_block", "_veronese_block"])
    def test_split_plus_block_bound(self, builder):
        for n, k, d in ENVELOPE:
            block = getattr(geometry, builder)(n, k, d, random.Random(0),
                                               PRIMES[0])
            if builder == "_mixture_block":
                par = geometry.parameter_count(n, k)
                # translations span order 1, the covariance order 2
                split = n + (n * (n + 1) // 2 if d >= 2 else 0)
            else:
                par, split = n * k + k - 1, n
            assert split + min(block.shape) == min(
                par, geometry.ambient_dim(n, d)), (n, k, d)


class TestEmptyBlocks:
    """k = 1 leaves B no rows; a mixture at d <= 2 and a Dirac mixture at
    d = 1 leave it no columns.  Rows and ranks are pinned."""

    @pytest.mark.parametrize("report,n,k,d,row,ranks", [
        pytest.param(*case, id="-".join(map(str, case[:4]))) for case in [
            ("defect_report", 1, 1, 1, (1, 1, 1, 2, 1, 1, 1, 0, 1), (1,)),
            ("defect_report", 1, 1, 2, (1, 1, 2, 2, 2, 2, 2, 0, 0), (2,)),
            ("defect_report", 1, 1, 3, (1, 1, 3, 2, 3, 2, 2, 0, 0), (2,)),
            ("defect_report", 3, 1, 1, (3, 1, 1, 9, 3, 3, 3, 0, 6), (3,)),
            ("defect_report", 3, 1, 2, (3, 1, 2, 9, 9, 9, 9, 0, 0), (9,)),
            ("defect_report", 3, 1, 3, (3, 1, 3, 9, 19, 9, 9, 0, 0), (9,)),
            ("defect_report", 2, 2, 1, (2, 2, 1, 8, 2, 2, 2, 0, 6), (2,)),
            ("defect_report", 2, 2, 2, (2, 2, 2, 8, 5, 5, 5, 0, 3), (5,)),
            ("defect_report", 3, 3, 1, (3, 3, 1, 17, 3, 3, 3, 0, 14), (3,)),
            ("defect_report", 3, 3, 2, (3, 3, 2, 17, 9, 9, 9, 0, 8), (9,)),
            ("veronese_report", 1, 1, 1, (1, 1, 1, 1, 1, 1, 1, 0, 0), (1,)),
            ("veronese_report", 1, 3, 1, (1, 3, 1, 5, 1, 1, 1, 0, 4), (1,)),
            ("veronese_report", 3, 2, 1, (3, 2, 1, 7, 3, 3, 3, 0, 4), (3,)),
            ("veronese_report", 2, 1, 3, (2, 1, 3, 2, 9, 2, 2, 0, 0), (2,)),
        ]])
    def test_rows(self, report, n, k, d, row, ranks):
        got = getattr(geometry, report)(n, k, d, seed=0)
        assert (got.as_row(), got.ranks) == (row, ranks)
        builder, lowest = {"defect_report": ("_mixture_block", 3),
                           "veronese_report": ("_veronese_block", 2)}[report]
        block = getattr(geometry, builder)(n, k, d, random.Random(0),
                                            PRIMES[0])
        assert block.shape == ((k - 1) * (n + 1),
                               len(moment_columns(n, d, lowest)))
        assert 0 in block.shape


class TestDefectReports:
    @pytest.mark.parametrize("n,k,row", [
        (1, 1, (1, 1, 3, 2, 3, 2, 2, 0, 0)),
        (2, 2, (2, 2, 3, 8, 9, 8, 7, 1, 1)),
        (2, 3, (2, 3, 3, 11, 9, 9, 9, 0, 2)),
        (3, 4, (3, 4, 3, 21, 19, 19, 19, 0, 2)),
        (5, 7, (5, 7, 3, 56, 55, 55, 54, 1, 2)),
    ], ids=["1-1", "2-2", "2-3", "3-4", "5-7"])
    def test_reference_rows(self, n, k, row):
        assert geometry.defect_report(n, k, 3, seed=0).as_row() == row

    def test_report_is_pinned(self):
        assert geometry.defect_report(3, 3, 3, seed=0).as_dict() == {
            "n": 3, "k": 3, "d": 3, "par": 17, "ambient": 19,
            "expected": 17, "dim": 15, "defect": 2, "fiber_dim": 2,
            "points": 1, "ranks": [15], "seed": 0}

    @pytest.mark.parametrize("ranks,expected", [
        (lambda: geometry.defect_report(4, 5, 3, seed=0).ranks, (34,)),
        (lambda: geometry.veronese_report(1, 2, 3, seed=0).ranks, (3,)),
        (lambda: geometry._point_ranks(geometry._mixture_block, 0, 4, 0,
                                       2, 3, 3), (4,)),
    ], ids=["mixture", "veronese", "centered"])
    def test_full_rank_point_certifies_alone(self, ranks, expected):
        # no rank exceeds min(rows, cols), so one point reaching it is the
        # generic rank and no second point is drawn
        assert ranks() == expected

    def test_order3_rows_settle_at_one_point(self):
        # every published row and every d = 3 cell of the envelope: the
        # first point's rank, a certified lower bound, meets the dimension
        # the paper's order-3 theorem gives, so no second point is drawn
        cells = {row[:2] for row in geometry.ORDER3_TABLE}
        cells |= {(n, k) for n, k, d in ENVELOPE if d == 3}
        for n, k in sorted(cells):
            r = geometry.defect_report(n, k, 3, seed=0)
            assert r.ranks == (min(r.par, r.ambient)
                               - geometry.predicted_defect_order3(n, k),), (n, k)

    def test_deficient_first_point_draws_more(self, monkeypatch):
        calls = []

        def unlucky_first(matrix, p):
            calls.append(p)
            return rank(matrix, p) - (len(calls) == 1)

        monkeypatch.setattr(geometry, "rank", unlucky_first)
        report = geometry.defect_report(4, 5, 3, seed=0)
        assert report.ranks == (33, 34, 34)
        assert report.dim == 34
        assert calls == list(PRIMES)

    def test_envelope_guard(self):
        with pytest.raises(PreconditionError):
            geometry.defect_report(9, 2, 3)
        with pytest.raises(PreconditionError):
            geometry.defect_report(2, 2, 7)

    @pytest.mark.parametrize("report", ["defect_report", "veronese_report"])
    @pytest.mark.parametrize("args,name", [
        ((2.0, 2, 3), "n"), ((2, 2.0, 3), "k"), ((2, 2, 3.5), "d"),
        ((2, 2, 3, 1.0), "seed"), ((2, 2, 3, "1"), "seed")],
        ids=["n-float", "k-float", "d-float", "seed-float", "seed-str"])
    def test_non_integer_arguments_rejected(self, report, args, name):
        # a float k or seed raised TypeError from the per-cell seed mix
        with pytest.raises(PreconditionError) as err:
            getattr(geometry, report)(*args)
        assert err.value.code == "PRECONDITION"
        assert str(err.value).startswith(f"{name} must be an integer")

    @pytest.mark.parametrize("report,args", [
        ("defect_report", (2, 2, 3, np.int64(1))),
        ("veronese_report", (np.int64(2), 3, 3)),
        ("defect_report", (np.int32(2), np.uint8(3), np.int64(3), True))],
        ids=["defect-seed", "veronese-n", "defect-all"])
    def test_numpy_integer_arguments(self, report, args):
        # a numpy seed or size raised TypeError from the per-cell seed
        # mix; the report holds Python ints, so it dumps to JSON
        got = getattr(geometry, report)(*args)
        want = getattr(geometry, report)(*map(int, args))
        assert got == want
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())
        assert all(type(v) is int for v in (got.n, got.k, got.d, got.seed))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_components_identifiable_at_order_four(self, n):
        # cross-check of two results: the order-4 closed form gives
        # finitely many two-component solutions, so no (n, 2, 4) row is
        # defective and the fiber is finite
        report = geometry.defect_report(n, 2, 4, seed=0)
        assert (report.defect, report.fiber_dim) == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_one_fills_the_means(self, n):
        # order-1 moments are the mean, an n-dimensional image
        report = geometry.defect_report(n, 2, 1, seed=0)
        assert (report.ambient, report.dim, report.defect) == (n, n, 0)

    def test_monotone_in_order(self):
        fibers = [geometry.defect_report(2, 2, d, seed=0).fiber_dim
                  for d in (3, 4, 5)]
        assert fibers == sorted(fibers, reverse=True)
        assert fibers[1] == 0  # two components identifiable at order four

    def test_reduction_to_small_dimension(self):
        # fiber dimension only depends on min(n, k-1) once n >= k-1
        assert (geometry.defect_report(2, 3, 3, seed=0).fiber_dim
                == geometry.defect_report(4, 3, 3, seed=0).fiber_dim)
        assert (geometry.defect_report(1, 2, 3, seed=0).fiber_dim
                == geometry.defect_report(3, 2, 3, seed=0).fiber_dim)


class TestCenteredCumulantRank:
    def test_matches_fiber_dimension(self):
        r = centered_cumulant_rank(2, 2, 3, seed=0)
        assert r == 2
        assert (2 - 1) * (2 + 1) - r == geometry.defect_report(2, 2, 3).fiber_dim

    def test_sporadic_case_dimension(self):
        assert centered_cumulant_rank(5, 7, 3, seed=0) == 34

    def test_single_component_trivial(self):
        assert centered_cumulant_rank(3, 1, 3, seed=0) == 0

    def test_reduction_via_cumulant_map(self):
        # fiber dimension (k-1)(n+1) - rank is unchanged by adding
        # ambient dimensions beyond k - 1
        small = 2 * 3 - centered_cumulant_rank(2, 3, 3, seed=0)
        large = 2 * 5 - centered_cumulant_rank(4, 3, 3, seed=0)
        assert small == large == 2


class TestVeronese:
    def test_report_type(self):
        v = geometry.veronese_report(2, 5, 4, seed=0)
        assert isinstance(v, geometry.DefectReport)
        assert (v.par, v.ambient) == (14, 14)
        assert v.expected == min(v.par, v.ambient)
        assert v.as_row() == (2, 5, 4, 14, 14, 14, 13, 1, 1)

    def test_sporadic_quartic_defect(self):
        v = geometry.veronese_report(2, 5, 4, seed=0)
        assert v.defect == 1
        assert veronese_expected(2, 5, 4) == (v.fiber_dim, v.defect)

    def test_quadratic_fiber_dimension(self):
        for n, k in ((3, 2), (4, 3)):
            v = geometry.veronese_report(n, k, 2, seed=0)
            assert v.fiber_dim == k * (k - 1) // 2
            assert veronese_expected(n, k, 2) == (v.fiber_dim, v.defect)

    def test_twisted_cubic_secant_fills(self):
        v = geometry.veronese_report(1, 2, 3, seed=0)
        assert v.dim == 3
        assert v.defect == 0


class TestClassifier:
    @pytest.mark.parametrize("n,k,expected", [
        (2, 2, 1), (7, 2, 1), (3, 3, 2), (4, 4, 2), (5, 7, 1),
        (6, 8, 1), (6, 9, 2), (7, 9, 1), (7, 11, 3), (7, 12, 0),
        (1, 1, 0), (1, 2, 0), (2, 3, 0), (4, 5, 0), (7, 8, 0),
    ])
    def test_reference_values(self, n, k, expected):
        assert geometry.predicted_defect_order3(n, k) == expected

    @pytest.mark.parametrize("n,k,message", [
        (2.5, 2, "n must be an integer, got 2.5"),
        ("2", 2, "n must be an integer, got 2"),
        (2, 2.0, "k must be an integer, got 2.0"),
        (0, 2, "n must be at least 1, got 0")])
    def test_rejects_bad_arguments(self, n, k, message):
        # the case analysis took 2.5 for an n >= 2 and gave 1, and a str
        # n raised TypeError
        with pytest.raises(PreconditionError) as err:
            geometry.predicted_defect_order3(n, k)
        assert err.value.code == "PRECONDITION"
        assert str(err.value) == message

    def test_numpy_integers(self):
        assert geometry.predicted_defect_order3(np.int64(7), np.int32(11)) == 3

    @pytest.mark.parametrize("n,k,expected", [(9, 18, 3), (11, 25, 11),
                                              (12, 30, 4)])
    def test_second_band_matches_computed_defect(self, n, k, expected):
        # the band six_lo <= 6k < six_hi starts at n = 9, past MAX_N, so
        # the report is taken without the envelope
        report = geometry._report(n, k, 3, geometry.parameter_count(n, k),
                                  geometry._mixture_block,
                                  geometry.ambient_dim(n, 2), 0)
        assert report.defect == expected
        assert geometry.predicted_defect_order3(n, k) == expected

    def test_matches_published_table(self):
        for row in geometry.ORDER3_TABLE:
            n, k, _, _, _, _, _, defect, _ = row
            assert geometry.predicted_defect_order3(n, k) == defect

    def test_default_ranges_cover_published_rows(self):
        rows = [(n, k) for n in range(1, 8)
                for k in geometry.default_k_range(n)]
        assert rows == [(r[0], r[1]) for r in geometry.ORDER3_TABLE]
