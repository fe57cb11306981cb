"""Independent oracles for the test suite, and inputs shared by its modules.

The characteristic polynomial is computed in exact rational arithmetic
(Faddeev-LeVerrier) and solved with mpmath at high precision, so it shares
no code with the floating-point eigensolver it is used to check.
"""

from fractions import Fraction
import random

import mpmath

from sl2qes.algebra import AlgebraCoefficients

# general-mode coefficients whose B4 = 5/2 + xi/2 - xi^2 has a linear term, so
# the map is the numeric march; its branch reaches u = +-pi/2 only
MARCH_SET = {"C++": "0", "C+0": "0", "C00": "-1", "C0-": "1/4", "C--": "5/2",
             "C+": "0", "C0": "1/2", "C-": "1/2", "d": "free", "n": 8}


def char_poly_exact(matrix):
    """Monic characteristic polynomial det(lambda I - M) as a list of exact
    Fraction coefficients, ascending powers."""
    n = len(matrix)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def trace(a):
        return sum(a[i][i] for i in range(n))

    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m_k = ident
    for k in range(1, n + 1):
        am = matmul(matrix, m_k)
        c = -trace(am) / k
        coeffs[n - k] = c
        m_k = [[am[i][j] + (c if i == j else 0) for j in range(n)]
               for i in range(n)]
    return coeffs


def char_roots(matrix, dps: int = 50):
    """Roots of the exact characteristic polynomial, via mpmath."""
    coeffs = char_poly_exact(matrix)
    with mpmath.workdps(dps):
        poly = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                for c in reversed(coeffs)]
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=200)
    return [complex(r) for r in roots]


def random_algebra(rng: random.Random, n_max: int = 8) -> AlgebraCoefficients:
    """Random rational coefficient data with at least one quadratic term."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    while True:
        vals = {k: q() for k in
                ("c_pp", "c_p0", "c_00", "c_0m", "c_mm", "c_p", "c_0", "c_m")}
        if any(vals[k] != 0 for k in ("c_pp", "c_p0", "c_00", "c_0m", "c_mm")):
            break
    return AlgebraCoefficients(**vals, d=q(), n=rng.randint(0, n_max))
