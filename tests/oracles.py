"""Independent oracles for the test suite, and inputs shared by its modules.

The characteristic polynomial is computed in exact rational arithmetic
(Faddeev-LeVerrier) and solved with mpmath at high precision, so it shares
no code with the floating-point eigensolver it is used to check.  The gauge
oracles are the two rules that ``mapping.build_gauge`` replaced: adaptive
quadrature of the gauge integrand, and the exponent and prefactor written
out by hand for each quasi-solvable shape.  The map oracle is the numeric
march that the elliptic map replaced: quadrature of u(xi) step by step and
a monotone Hermite inverse.
"""

from fractions import Fraction
import math
import random

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from sl2qes.algebra import AlgebraCoefficients, poly_gcd
from sl2qes.errors import BranchError, SingularPointError
from sl2qes.specfun import scaled_exp

# general-mode coefficients whose B4 = (1 - xi^2)(2 + xi) is cubic, so the map
# is elliptic; its branch (-1, 1) reaches u in [-1.37, 0.97] only
MARCH_SET = {"C++": "0", "C+0": "-1/2", "C00": "-2", "C0-": "1/2", "C--": "2",
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


def quadrature_gauge(bp, mapping, x0, epsrel=1e-13):
    """g(x) = (u')^(-1/2) exp[(1/2) Int (2 B3 - B4')/(2 B4) dxi], 1 at x0,
    by adaptive quadrature of the gcd-reduced integrand from xi(x0) across
    every requested point; a pole on that path raises SingularPointError."""
    b4 = mapping.b4
    numer = 2 * bp.b3 - b4.derivative()
    denom = 2 * b4
    common = poly_gcd(numer, denom)
    numer, _ = divmod(numer, common)
    denom, _ = divmod(denom, common)
    t0 = mapping.transform
    base_xi = float(np.asarray(mapping.xi_of_x(x0)))
    base_du = float(np.asarray(t0.du(x0)))

    def gauge(x):
        xs = np.atleast_1d(np.asarray(x, float))
        xi = np.atleast_1d(mapping.xi_of_x(xs))
        lo = min(float(xi.min()), base_xi)
        hi = max(float(xi.max()), base_xi)
        for r in np.roots(denom.float_coeffs()[::-1]):
            if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12:
                raise SingularPointError(f"path crosses a pole at xi={r:g}")
        pts = np.unique(np.concatenate([[base_xi], xi]))
        seg = [0.0] + [quad(lambda t: numer(t) / denom(t), a, b, epsabs=1e-15,
                            epsrel=epsrel, limit=200)[0]
                       for a, b in zip(pts[:-1], pts[1:])]
        cum = np.cumsum(seg)
        cum -= cum[np.searchsorted(pts, base_xi)]
        expo = 0.5 * cum[np.searchsorted(pts, xi)]
        return np.sqrt(base_du / t0.du(xs)) * np.exp(expo)

    return gauge


def hand_written_psi(entry, j):
    """psi_j of a quasi-solvable entry from the per-shape rule: exponent
    glog(x) and a trigonometric prefactor picked by (dq, sign) at the half
    angle (dq = 1) or the full angle (dq = 2), none for dq = 0."""
    sigma, dq, s = entry.family.sigma or entry.sign, entry.family.dq, entry.sign
    p = {k: float(v) for k, v in entry.params.items()}
    a = p["a"]
    if entry.kind == "qes-periodic":
        def glog(u):
            return sigma * (p["alpha"] / p["beta"] ** 2) * np.sin(
                p["beta"] * u / 2.0) ** 2
        half, full, angle = {1: np.cos, -1: np.sin}, np.sin, p["beta"]
    else:
        def glog(u):
            return sigma * (p["eta"] / 4.0) * np.cosh(2.0 * p["gamma"] * u)
        half, full, angle = {1: np.sinh, -1: np.cosh}, np.sinh, 2 * p["gamma"]
    rev = np.asarray(entry.spectral().levels[j].b, float)[::-1]

    def psi(x):
        u = np.asarray(x, float) - a
        pref = 1.0 if dq == 0 else (half[s] if dq == 1 else full)(
            angle * dq / 2.0 * u)
        xi = entry.mapping.xi_of_x(x)
        return scaled_exp(glog(u), pref * np.polyval(rev, xi))

    return psi


def march_map(b4, branch, u_range):
    """xi(u) on u_range by marching u(xi) = s Int B4^(-1/2) outward from
    xi0 in quad steps of about 1/900 of the range, inverted through a
    monotone Hermite table; BranchError where the march cannot cover
    u_range.  Next to a root of B4 its rounding bounds the integrand, and
    quad reaches 1e-14 to 1e-12 absolute there, hence epsabs 1e-12."""
    s = float(branch.sign)
    u_lo, u_hi = min(u_range), max(u_range)
    du_step = max(u_hi - u_lo, abs(u_lo), abs(u_hi), 1e-6) / 900.0

    def positive(t):
        value = b4(t)
        if not value > 0:
            raise BranchError(f"B4 is not positive at xi={t!r} in floats")
        return value

    def march(direction):
        # direction +1 marches xi upward; u moves by s*direction
        xs, us = [branch.xi0], [0.0]
        limit = branch.hi if direction > 0 else branch.lo
        target = u_hi if s * direction > 0 else u_lo
        while us[-1] * s * direction < abs(target) + 2.0 * du_step:
            x_cur = xs[-1]
            x_next = x_cur + direction * du_step * math.sqrt(
                max(b4(x_cur), 1e-300))
            if (x_next - limit) * direction >= 0:
                x_next = x_cur + 0.5 * (limit - x_cur)
            if abs(x_next - x_cur) < 1e-14 * (1.0 + abs(x_cur)):
                break
            # halving toward the branch end stops at its rounding zone
            if abs(limit - x_next) <= 1e-12 * (1.0 + abs(x_cur) + abs(x_next)):
                break
            try:
                du = quad(lambda t: positive(t) ** -0.5, min(x_cur, x_next),
                          max(x_cur, x_next), epsabs=1e-12, epsrel=1e-11,
                          limit=200)[0]
            except BranchError:   # B4 rounds to zero before the branch end
                break
            xs.append(x_next)
            us.append(us[-1] + s * direction * du)
            if len(xs) > 20000:
                break
        return xs[1:], us[1:]

    (xs_up, us_up), (xs_dn, us_dn) = march(+1), march(-1)
    xs = np.asarray(xs_dn[::-1] + [branch.xi0] + xs_up)
    us = np.asarray(us_dn[::-1] + [0.0] + us_up)
    order = np.argsort(us)
    us, xs = us[order], xs[order]
    if us[0] > u_lo + 1e-9 or us[-1] < u_hi - 1e-9:
        raise BranchError(f"march covers only [{us[0]:.6g}, {us[-1]:.6g}]")
    return CubicHermiteSpline(us, xs, s * np.sqrt(np.maximum(b4(xs), 0.0)))
