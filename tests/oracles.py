"""Independent oracles for the test suite, and inputs shared by its modules.

The characteristic polynomial is computed in exact rational arithmetic
(Faddeev-LeVerrier) and solved with mpmath at high precision, so it shares
no code with the floating-point eigensolver it is used to check.  The gauge
oracles are the two rules that ``mapping.build_gauge`` replaced: adaptive
quadrature of the gauge integrand, and the exponent and prefactor written
out by hand for each quasi-solvable shape.  The map oracle is the numeric
march that the elliptic map replaced: quadrature of u(xi) step by step and
a monotone Hermite inverse.  The potential oracle is the thirteen
potentials written out by hand, one per catalog family, that the catalog
now takes from its own B polynomials and map.  The exactly solvable
oracles are the closed-form energies and the Hermite, Laguerre and Jacobi
wavefunctions that the catalog now takes from its algebraic sectors.  The
residual oracle checks a closed-form state against the Schroedinger equation
with a five-point stencil, apart from the FD eigensolver.  The FD vector
reference solves the package's own Dirichlet matrix with eigenvectors,
which its eigenvalues-only solver does not compute.
"""

from fractions import Fraction
import math
import random

import mpmath
import numpy as np
from scipy import linalg as sla
from scipy import special as sp
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from sl2qes.algebra import AlgebraCoefficients
from sl2qes.errors import BranchError, GridError, SingularPointError
from sl2qes.fdsolve import _dirichlet_matrix
from sl2qes.mapping import scaled_exp

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


def fraction_matrix(assembled) -> list:
    """``hamiltonian_matrix``'s (numerators, den) as the matrix of
    Fractions numerators[i][r] / den; it asserts int numerators over a
    positive int den."""
    num, den = assembled
    assert type(den) is int and den > 0
    assert all(type(v) is int for row in num for v in row)
    return [[Fraction(v, den) for v in row] for row in num]


def matches_fractions(assembled, matrix) -> bool:
    """Whether ``hamiltonian_matrix``'s (numerators, den) is the Fraction
    matrix, exactly: the same shape, int numerators over a positive int
    den, and numerators[i][r] == matrix[i][r] * den for every entry."""
    num, den = assembled
    return (type(den) is int and den > 0 and len(num) == len(matrix)
            and all(len(row) == len(want)
                    and all(type(v) is int and v == (q * den if q else 0)
                            for v, q in zip(row, want))
                    for row, want in zip(num, matrix)))


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


def euclid_gcd(a, b):
    """poly_gcd's Euclid loop, with no early exit."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def quadrature_gauge(bp, mapping, x0, epsrel=1e-13):
    """g(x) = (u')^(-1/2) exp[(1/2) Int (2 B3 - B4')/(2 B4) dxi], 1 at x0,
    by adaptive quadrature of the gcd-reduced integrand from xi(x0) across
    every requested point; a pole on that path raises SingularPointError."""
    b4 = mapping.b4
    numer = 2 * bp.b3 - b4.derivative()
    denom = 2 * b4
    common = euclid_gcd(numer, denom)
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


def hand_written_potential(entry):
    """V(x) of a catalog entry as written out by hand for its family.  The
    quasi-solvable potentials carry the coefficient sigma alpha m of
    cos beta(x-a) resp. 2 sigma eta gamma^2 m of cosh 2gamma(x-a), with
    m = (2n + 1 + dq)/2."""
    p = {k: float(v) for k, v in entry.params.items()}
    name = entry.name
    if name == "harmonic":
        wf = p["omega"]
        return lambda x: 0.25 * wf ** 2 * np.asarray(x, float) ** 2
    if name == "coulomb":
        e2f, l = p["e2"], p["l"]

        def v(x):
            x = np.asarray(x, float)
            return -e2f / x + l * (l + 1) / x ** 2
        return v
    if entry.kind == "es":
        alf, Af, Bf = p["alpha"], p["A"], p["B"]
    if name == "morse":
        return (lambda x: Bf ** 2 * np.exp(-2 * alf * np.asarray(x, float))
                - Bf * (2 * Af + alf) * np.exp(-alf * np.asarray(x, float)))
    if name == "poschl-teller":
        def v(x):
            x = np.asarray(x, float)
            sh = np.sinh(alf * x)
            ch = np.cosh(alf * x)
            return Bf * (Bf - alf) / sh ** 2 - Af * (Af + alf) / ch ** 2
        return v
    if name == "scarf-ii":
        def v(x):
            x = np.asarray(x, float)
            sech = 1.0 / np.cosh(alf * x)
            return ((Bf ** 2 - Af * (Af + alf)) * sech ** 2
                    + Bf * (2 * Af + alf) * sech * np.tanh(alf * x))
        return v
    sigma, af = entry.family.sigma or entry.sign, p["a"]
    m = (2 * entry.n + 1 + entry.family.dq) / 2.0
    if entry.kind == "qes-periodic":
        alf, bef = p["alpha"], p["beta"]
        cc = sigma * alf * m

        def v(x):
            u = np.asarray(x, float) - af
            return (-(alf ** 2 / (8.0 * bef ** 2)) * np.cos(2.0 * bef * u)
                    + cc * np.cos(bef * u) - bef ** 2 / 4.0)
        return v
    gaf, etf = p["gamma"], p["eta"]
    hc = sigma * 2.0 * etf * gaf ** 2 * m

    def v(x):
        u = np.asarray(x, float) - af
        return ((gaf ** 2 * etf ** 2 / 8.0) * np.cosh(4.0 * gaf * u)
                + hc * np.cosh(2.0 * gaf * u) - gaf ** 2 * etf ** 2 / 8.0)
    return v


def residual(potential, psi, energy: float, grid) -> float:
    """max |(-psi'' + (V - E) psi)| / max |psi| over interior nodes, with the
    second derivative from the five-point central stencil; the grid must be
    uniform in x."""
    if grid.stretch is not None:
        raise GridError(f"residual needs a grid uniform in x, not one "
                        f"stretched by {grid.stretch}")
    x = grid.nodes
    h = grid.h
    vals = np.asarray(psi(x), float)
    v = np.asarray(potential(x), float)
    d2 = (-vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2]
          + 16 * vals[3:-1] - vals[4:]) / (12.0 * h ** 2)
    inner = slice(2, -2)
    res = -d2 + (v[inner] - energy) * vals[inner]
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        raise GridError("wavefunction vanishes on the whole grid")
    return float(np.max(np.abs(res)) / peak)


def fd_vectors(potential, grid, k):
    """(eigenvalues, eigenvectors) of the lowest k states of the Dirichlet
    problem that ``fdsolve`` solves, the vectors as columns psi on
    grid.nodes with max-norm 1: the tridiagonal solve returns X' phi, and
    psi = X'^{1/2} phi vanishes at both ends."""
    diag, off = _dirichlet_matrix(potential, grid)
    # the eigenvalues stop at fdsolve's tolerance, relative to each one
    w, vecs = sla.eigh_tridiagonal(diag, off, select="i",
                                   select_range=(0, k - 1), tol=1e-300)
    jac, _ = grid.liouville(grid.u_nodes[1:-1])
    psi = np.zeros((grid.points, k))
    psi[1:-1] = vecs / np.sqrt(jac)[:, None]
    return w, psi / np.max(np.abs(psi), axis=0)


def hermite(j: int, z):
    """Physicists' Hermite polynomial H_j."""
    return sp.eval_hermite(j, z)


def genlaguerre(j: int, a: float, z):
    """Generalized Laguerre polynomial L_j^(a)."""
    return sp.eval_genlaguerre(j, a, z)


def jacobi(j: int, a, b, z):
    """Jacobi polynomial P_j^(a,b)(z) for arbitrary (possibly complex) a, b, z.

    Uses the terminating sum

        P_j = ((a+1)_j / j!) * sum_{k=0}^{j} [(-j)_k (j+a+b+1)_k] /
              [(a+1)_k k!] * ((1-z)/2)^k,

    exact for integer j; complex parameters cost nothing, which Scarf II's
    imaginary argument needs and scipy's evaluator does not accept.
    Vectorized over z.
    """
    if j < 0 or int(j) != j:
        raise ValueError("degree must be a non-negative integer")
    j = int(j)
    use_complex = any(np.iscomplexobj(np.asarray(v)) for v in (a, b, z))
    dtype = complex if use_complex else float
    w = np.asarray((1.0 - np.asarray(z, dtype=dtype)) / 2.0, dtype=dtype)
    term = np.ones_like(w)
    total = term.copy()
    for k in range(1, j + 1):
        term = term * ((-j + k - 1) * (j + a + b + k) / ((a + k) * k)) * w
        total = total + term
    pref = 1.0
    for k in range(1, j + 1):
        pref = pref * (a + k) / k
    out = pref * total
    if out.ndim == 0:
        return out[()]
    return out


def closed_form_energy(name, p, j):
    """E_j of an exactly solvable family, exact for Fraction parameters."""
    if name == "harmonic":
        return (j + Fraction(1, 2)) * p["omega"]
    if name in ("morse", "scarf-ii"):
        return -(p["A"] - j * p["alpha"]) ** 2
    if name == "poschl-teller":
        return -(p["A"] - p["B"] - 2 * j * p["alpha"]) ** 2
    if name == "coulomb":
        return -Fraction(p["e2"]) ** 2 / (4 * (j + p["l"] + 1) ** 2)
    raise KeyError(name)


def closed_form_psi(name, p, j):
    """Unnormalized psi_j of an exactly solvable family as a vectorized
    callable: Hermite, Laguerre or Jacobi times its weight."""
    p = {k: float(v) for k, v in p.items()}
    if name == "harmonic":
        wf = p["omega"]
        return lambda x: (np.exp(-0.25 * wf * np.asarray(x, float) ** 2)
                          * hermite(j, math.sqrt(wf / 2.0)
                                    * np.asarray(x, float)))
    if name == "coulomb":
        # radial solution: the polynomial index follows the level index
        kappa = p["e2"] / (2.0 * (j + p["l"] + 1))

        def psi(x):
            x = np.asarray(x, float)
            return (x ** (p["l"] + 1) * np.exp(-kappa * x)
                    * genlaguerre(j, 2 * p["l"] + 1, 2.0 * kappa * x))
        return psi
    alf, Af, Bf = p["alpha"], p["A"], p["B"]
    if name == "morse":
        def psi(x):
            x = np.asarray(x, float)
            t = np.exp(-alf * x)
            expo = (j * alf - Af) * x - (Bf / alf) * t
            lag = genlaguerre(j, 2 * Af / alf - 2 * j, (2 * Bf / alf) * t)
            return scaled_exp(expo, lag)
        return psi
    if name == "poschl-teller":
        def psi(x):
            x = np.asarray(x, float)
            jac = jacobi(j, Bf / alf - 0.5, -Af / alf - 0.5,
                         np.cosh(2 * alf * x))
            return (np.sinh(alf * x) ** (Bf / alf)
                    * np.cosh(alf * x) ** (-Af / alf) * jac)
        return psi
    if name == "scarf-ii":
        a_par = -1j * Bf / alf - Af / alf - 0.5
        b_par = +1j * Bf / alf - Af / alf - 0.5

        def psi(x):
            x = np.asarray(x, float)
            sh = np.sinh(alf * x)
            jac = np.asarray((1j) ** (-j) * jacobi(j, a_par, b_par, 1j * sh))
            tol = 1e-10 * (1.0 + np.max(np.abs(jac.real)))
            if np.max(np.abs(jac.imag)) > tol:
                raise ArithmeticError(
                    "complex Jacobi composition failed to produce a real "
                    "value")
            return (np.cosh(alf * x) ** (-Af / alf)
                    * np.exp(-(Bf / alf) * np.arctan(sh)) * jac.real)
        return psi
    raise KeyError(name)
