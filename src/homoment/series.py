"""Truncated multivariate power series over a generic scalar field.

A :class:`TruncatedSeries` holds the coefficients of a power series in
``nvars`` variables modulo total degree ``degree + 1``.  Coefficients are
stored in generating-function normalization: the raw moment (or cumulant)
attached to a multi-index ``a`` equals ``a! * coeff(a)`` where
``a! = a_1! * ... * a_n!``.  Storing ``m_a / a!`` makes multiplication the
plain truncated Cauchy product and keeps the exponential and logarithm
free of multinomial bookkeeping; use :meth:`TruncatedSeries.moment` and
:meth:`TruncatedSeries.from_moments` to convert at the boundary.

Scalars may be :class:`fractions.Fraction`, ``float``, or any field-like
value supporting ``+``, ``-``, ``*`` and division by ``int``.  Plain
``int`` coefficients are promoted to ``Fraction`` so that exact inputs
stay exact.

All operations return new series; instances are treated as immutable
values and are safe to share across threads.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from .errors import DimensionMismatchError, PreconditionError

MAX_VARS = 8
MAX_DEGREE = 8


def multi_indices(nvars, degree):
    """All exponent tuples with ``|a| <= degree`` in graded lex order."""
    out = []
    for total in range(degree + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), total):
            block.add(tuple(combo.count(i) for i in range(nvars)))
        out.extend(sorted(block, reverse=True))
    return out


def index_factorial(a):
    """``a! = a_1! * ... * a_n!`` for a multi-index ``a``."""
    f = 1
    for e in a:
        f *= factorial(e)
    return f


def _promote(c):
    # ints become Fractions so exact arithmetic survives division
    if type(c) is int:
        return Fraction(c)
    return c


def _is_zero(c):
    return c == 0


class TruncatedSeries:
    __slots__ = ("nvars", "degree", "_c")

    def __init__(self, nvars, degree, coeffs=None):
        if not 1 <= nvars <= MAX_VARS:
            raise DimensionMismatchError(
                f"nvars must be in 1..{MAX_VARS}, got {nvars}")
        if not 1 <= degree <= MAX_DEGREE:
            raise DimensionMismatchError(
                f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.nvars = nvars
        self.degree = degree
        self._c = {}
        if coeffs:
            for a, c in dict(coeffs).items():
                a = tuple(int(e) for e in a)
                if len(a) != nvars or any(e < 0 for e in a):
                    raise DimensionMismatchError(f"bad multi-index {a}")
                if sum(a) > degree:
                    raise DimensionMismatchError(
                        f"index {a} exceeds truncation degree {degree}")
                c = _promote(c)
                if not _is_zero(c):
                    self._c[a] = c

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars, degree):
        return cls(nvars, degree)

    @classmethod
    def one(cls, nvars, degree):
        return cls(nvars, degree, {(0,) * nvars: Fraction(1)})

    @classmethod
    def from_moments(cls, nvars, degree, moments, space="moment"):
        """Build a series from raw moments or cumulants.

        ``moments`` maps multi-indices to raw values ``m_a`` (stored as
        ``m_a / a!``).  The order-zero coefficient is fixed by ``space``:
        1 for ``"moment"`` and 0 for ``"cumulant"``.
        """
        if space not in ("moment", "cumulant"):
            raise PreconditionError(f"unknown space {space!r}")
        coeffs = {}
        for a, m in dict(moments).items():
            a = tuple(int(e) for e in a)
            if sum(a) == 0:
                raise PreconditionError(
                    "order-zero term is implied by the space flag")
            coeffs[a] = _promote(m) / index_factorial(a)
        if space == "moment":
            coeffs[(0,) * nvars] = Fraction(1)
        return cls(nvars, degree, coeffs)

    # ------------------------------------------------------------------
    # accessors

    def coeff(self, a):
        """Stored generating-function coefficient ``m_a / a!``."""
        a = tuple(int(e) for e in a)
        if len(a) != self.nvars or sum(a) > self.degree:
            raise DimensionMismatchError(f"index {a} out of range")
        return self._c.get(a, Fraction(0))

    def moment(self, a):
        """Raw moment/cumulant ``a! * coeff(a)``."""
        return self.coeff(a) * index_factorial(a)

    def items(self):
        """Nonzero ``(index, coefficient)`` pairs in graded lex order."""
        return sorted(self._c.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def constant(self):
        return self._c.get((0,) * self.nvars, Fraction(0))

    def truncate(self, degree):
        """Forget all terms of total degree above ``degree``."""
        if degree > self.degree:
            raise DimensionMismatchError(
                f"cannot extend truncation {self.degree} to {degree}")
        return TruncatedSeries(
            self.nvars, degree,
            {a: c for a, c in self._c.items() if sum(a) <= degree})

    def graded(self, min_order, max_order=None):
        """Keep only terms with ``min_order <= |a| <= max_order``."""
        hi = self.degree if max_order is None else max_order
        return TruncatedSeries(
            self.nvars, self.degree,
            {a: c for a, c in self._c.items() if min_order <= sum(a) <= hi})

    # ------------------------------------------------------------------
    # ring operations

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise DimensionMismatchError(
                f"series shapes differ: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        c = dict(self._c)
        for a, x in other._c.items():
            y = c.get(a)
            c[a] = x if y is None else y + x
        return TruncatedSeries(self.nvars, self.degree, c)

    def __neg__(self):
        return TruncatedSeries(self.nvars, self.degree,
                               {a: -c for a, c in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            terms = [(b, sum(b), cb) for b, cb in other._c.items()]
            out = {}
            for a, ca in self._c.items():
                room = self.degree - sum(a)
                for b, db, cb in terms:
                    if db > room:
                        continue
                    key = tuple(x + y for x, y in zip(a, b))
                    prod = ca * cb
                    acc = out.get(key)
                    out[key] = prod if acc is None else acc + prod
            return TruncatedSeries(self.nvars, self.degree, out)
        other = _promote(other)
        return TruncatedSeries(self.nvars, self.degree,
                               {a: c * other for a, c in self._c.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        if isinstance(scalar, TruncatedSeries):
            return NotImplemented
        if type(scalar) is int:
            return self * Fraction(1, scalar)
        return TruncatedSeries(self.nvars, self.degree,
                               {a: c / scalar for a, c in self._c.items()})

    # ------------------------------------------------------------------
    # comparison

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self._c == other._c)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self._c.items())))

    def allclose(self, other, tol=1e-12):
        """Coefficientwise ``|delta| < tol * max(1, |c|)`` comparison."""
        self._check_compatible(other)
        for a in set(self._c) | set(other._c):
            x = float(self._c.get(a, 0))
            y = float(other._c.get(a, 0))
            if abs(x - y) >= tol * max(1.0, abs(x), abs(y)):
                return False
        return True

    def __repr__(self):
        head = ", ".join(f"{a}: {c}" for a, c in self.items()[:6])
        more = "" if len(self._c) <= 6 else ", ..."
        return (f"TruncatedSeries(nvars={self.nvars}, degree={self.degree}, "
                f"{{{head}{more}}})")


def exp(series):
    """Truncated exponential of a series with zero constant term.

    Computed as the finite sum of powers ``sum_j S^j / j!`` which
    terminates because ``S`` has no constant term.  The result lives in
    moment space (constant coefficient 1).
    """
    if not _is_zero(series.constant()):
        raise PreconditionError("exp requires a zero constant term")
    result = TruncatedSeries.one(series.nvars, series.degree)
    term = result
    for j in range(1, series.degree + 1):
        term = (term * series) / j
        if not term._c:
            break
        result = result + term
    return result


def log(series):
    """Truncated logarithm of a series with constant term one.

    Computed as ``sum_j (-1)^(j+1) (S - 1)^j / j``.  The result lives in
    cumulant space (constant coefficient 0).
    """
    one = TruncatedSeries.one(series.nvars, series.degree)
    if series.constant() != one.constant():
        raise PreconditionError("log requires constant term one")
    shifted = series - one
    result = TruncatedSeries.zero(series.nvars, series.degree)
    power = one
    for j in range(1, series.degree + 1):
        power = power * shifted
        if not power._c:
            break
        term = power / j
        result = result + term if j % 2 == 1 else result - term
    return result
