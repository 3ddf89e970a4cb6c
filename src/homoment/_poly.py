"""Small polynomial and determinant helpers shared by the estimators.

Polynomials are coefficient lists in ascending order (``coeffs[i]``
multiplies ``x**i``).  Evaluation and differentiation keep the
arithmetic of their coefficients; determinants and roots are floating
point, roots via companion-matrix eigenvalues.  The exact determinant
and interpolation over Q are test oracles, kept with the tests.
"""

import numpy as np


def poly_eval(coeffs, x):
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return 0 if acc is None else acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_degree(coeffs, rel_tol=0.0):
    """Index of the last coefficient that is not negligibly small."""
    mags = [abs(float(c)) for c in coeffs]
    top = max(mags, default=0.0)
    return max((i for i, m in enumerate(mags) if m > rel_tol * top),
               default=-1)


# leading coefficients below this share of the largest are dropped
_DROP_TOL = 1e-13


def real_roots(coeffs, imag_tol=1e-9):
    """Real roots of an ascending-coefficient polynomial.

    Roots are those of ``numpy.roots``, without its wrapper: zero for
    each vanishing trailing coefficient, and the eigenvalues of the
    companion matrix of the rest.  A root counts as real when its
    imaginary part is below ``imag_tol`` relative to its magnitude.
    Leading coefficients that are negligible relative to the largest one
    are dropped first so nearly degenerate leading terms do not inject
    spurious huge roots.
    """
    deg = poly_degree(coeffs, rel_tol=_DROP_TOL)
    if deg <= 0:
        return []
    desc = np.array([float(c) for c in coeffs[deg::-1]])
    last = np.flatnonzero(desc)[-1]
    zeros = [0.0] * (deg - last)
    if last == 0:
        return zeros
    companion = np.eye(last, k=-1)
    companion[0] = -desc[1:last + 1] / desc[0]
    out = [r.real for r in np.linalg.eigvals(companion).tolist()
           if abs(r.imag) <= imag_tol * max(1.0, abs(r))]
    return sorted(out + zeros)


def interpolation_nodes(count, scale):
    """Chebyshev-spaced float nodes on [0, 2*scale] for stable fits."""
    i = np.arange(count)
    return list(scale * (1.0 - np.cos((i + 0.5) * np.pi / count)))


def det(rows):
    """Float determinant of a square matrix given as rows of numbers.  No
    estimator calls it; the tracer's ``poly.det`` target still names it."""
    return float(np.linalg.det(np.asarray(rows, dtype=float)))
