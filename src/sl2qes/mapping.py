"""Coordinate chains xi <-> u <-> x, the induced potential, and wavefunctions.

The stretched coordinate u satisfies (dxi/du)^2 = B4(xi) on a branch where
B4 > 0; composing with a fixed u(x) (either a shift u = x - a or the
half-line map u = 2*sqrt(x)) produces a Schroedinger problem in x.  The
potential and the gauge factor of the wavefunction are both determined by
the operator polynomials B4, B3, B2 evaluated along xi(u(x)).

Every map is exact: elementary for a B4 of degree <= 2, and for a cubic
or quartic B4 an elliptic u(xi) inverted by safeguarded Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import BPolynomials, Polynomial, poly_gcd
from .errors import BranchError, SingularPointError

__all__ = [
    "UTransform",
    "identity_shift",
    "half_line_sqrt",
    "Branch",
    "Mapping",
    "build_mapping",
    "PotentialModel",
    "potential_from_operator",
    "GaugeSamples",
    "GaugeFactor",
    "build_gauge",
    "WaveFunction",
    "WaveRows",
]

# A WaveRows call evaluates its rows in blocks of at most this many floats
# per array, so that chi and the tiled xi stay in L2: a 20,000 x 161 table
# took 447-494 ms at 65,536, 500-567 ms at 16,384 and 32,768, 499-574 ms
# at 131,072 and 1087-1307 ms unblocked (best of 5 calls, three runs, on a
# 2-core x86-64 host).
ROW_FLOATS = 65_536


def __getattr__(name):
    # nothing here calls quad; perfbench's tracer still reads mapping.quad,
    # so it resolves on demand without scipy.integrate at import time
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class UTransform:
    """Stretched coordinate u as a function of physical x, with derivatives."""

    kind: str  # "shift" or "two-sqrt"
    a: float = 0.0

    def u(self, x):
        if self.kind == "shift":
            return np.asarray(x, float) - self.a
        return 2.0 * np.sqrt(np.asarray(x, float))

    def du(self, x):
        if self.kind == "shift":
            return np.ones_like(np.asarray(x, float))
        return np.asarray(x, float) ** -0.5

    def d2u(self, x):
        if self.kind == "shift":
            return np.zeros_like(np.asarray(x, float))
        return -0.5 * np.asarray(x, float) ** -1.5

    def d3u(self, x):
        if self.kind == "shift":
            return np.zeros_like(np.asarray(x, float))
        return 0.75 * np.asarray(x, float) ** -2.5

    def x_of_u(self, u):
        """The inverse of u(x), for u >= 0 under two-sqrt."""
        return u + self.a if self.kind == "shift" else (u / 2.0) ** 2


def identity_shift(a: float = 0.0) -> UTransform:
    return UTransform("shift", float(a))


def half_line_sqrt() -> UTransform:
    return UTransform("two-sqrt")


@dataclass(frozen=True)
class Branch:
    """Interval of xi with B4 > 0 on the interior, the chosen square-root
    sign, and the anchor xi0 where u = 0."""

    lo: float
    hi: float
    sign: int = 1
    xi0: float = 0.0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise BranchError("branch sign must be +1 or -1")
        if not self.lo < self.hi:
            raise BranchError("branch interval is empty")
        if not math.isfinite(self.xi0):
            raise BranchError(f"anchor xi0 must be finite, got {self.xi0}")
        if not (self.lo <= self.xi0 <= self.hi):
            raise BranchError("anchor xi0 lies outside the branch interval")


def _polish(poly: Polynomial, z: complex, done: list) -> complex:
    """z after Newton steps on poly with the residual evaluated exactly,
    repeated until they stop moving it: a fixed point or a hop between two
    floats at the rounding floor (at most 32 steps).  Each step is deflated
    by the roots already polished (Maehly), so two starts in a cluster do
    not converge to the same root."""
    polys, prev = (poly, poly.derivative()), None
    for _ in range(32):
        x, y = Fraction(z.real), Fraction(z.imag)
        vals = []
        for p in polys:
            re = im = Fraction(0)
            for c in reversed(p.coeffs):
                re, im = re * x - im * y + c, re * y + im * x
            vals.append(complex(float(re), float(im)))
        deflate = sum(1 / (z - r) for r in done if r != z)
        nxt = z - vals[0] / (vals[1] - vals[0] * deflate)
        if nxt in (z, prev):
            return nxt
        prev, z = z, nxt
    return z


def _plainly_squarefree(poly: Polynomial) -> bool:
    """Whether poly's degree alone (<= 1) or, for a quadratic, its nonzero
    exact discriminant c1^2 - 4 c0 c2 proves it squarefree.  Then
    gcd(poly, poly') is 1, so the squarefree split would return poly whole."""
    if poly.degree != 2:
        return poly.degree < 2
    c0, c1, c2 = poly.coeffs
    return c1 * c1 != 4 * c0 * c2


def _roots(poly: Polynomial) -> tuple[list[float], list[complex]]:
    """(real roots, upper members of the complex pairs), repeated by
    multiplicity.  An exact squarefree split keeps a repeated root one
    float (np.roots splits a double root about 1e-8 apart), and the roots of
    a factor of degree > 2 are polished, as np.roots loses digits on
    clustered roots (1e-13 seen).  The split stops at a factor that is
    ``_plainly_squarefree``: a linear, or a quadratic with a nonzero
    discriminant, is its own last part, the part the gcd loop would give,
    so np.roots sees the same coefficients.  A double-root quadratic still
    takes the split."""
    parts = []   # parts[k] holds each root of multiplicity > k once
    while poly.degree > 0:
        if _plainly_squarefree(poly):
            parts.append(poly)
            break
        common = poly_gcd(poly, poly.derivative())
        parts.append(divmod(poly, common)[0])
        poly = common
    roots = []
    for mult, part in enumerate(parts, 1):
        part = divmod(part, parts[mult])[0] if mult < len(parts) else part
        done = []
        for z in np.roots(part.float_coeffs()[::-1]):
            done.append(_polish(part, complex(z), done) if part.degree > 2
                        else complex(z))
        roots += done * mult
    scale = 1.0 + max((abs(r) for r in roots), default=0.0)
    return ([r.real for r in roots if abs(r.imag) <= 1e-9 * scale],
            [r for r in roots if r.imag > 1e-9 * scale])


@dataclass(eq=False)
class Mapping:
    """Evaluator for xi(u(x)) on one branch of (dxi/du)^2 = B4(xi).

    ``closed_form`` is a tag of ``_recognize_shape`` or "elliptic", and
    ``u_reach`` the u interval between the branch ends around xi0, each
    end infinite where the map takes all of u to reach it.  A closed form
    anchored at a turning point is even in u and reaches the far end on
    both sides.
    ``root_factors`` maps each root r of B4 that a closed-form map reaches
    at a turning point to a function of u proportional to |xi - r|^(1/2),
    signed so that it stays analytic through the turning point.
    """

    b4: Polynomial
    branch: Branch
    transform: UTransform
    _xi_fn: object
    closed_form: str
    root_factors: dict = field(default_factory=dict)
    u_reach: tuple[float, float] = (-math.inf, math.inf)

    def xi_of_u(self, u):
        return self._xi_fn(np.asarray(u, float))

    def xi_of_x(self, x):
        return self.xi_of_u(self.transform.u(x))


def _recognize_shape(b4: Polynomial):
    """The closed-form shape (tag, c, k, h) of a B4 of degree <= 2; raises
    BranchError where B4 is nowhere positive.

    Completing the square in exact arithmetic, B4 = p (xi - h)^2 + q with
    q = B4(h), so in eta = xi - h the signs of p and q pick the shape, with
    c > 0: c (affine); c*eta^2 (exp); c*(eta^2 - k^2) (cosh);
    c*(eta^2 + k^2) (sinh); c*(k^2 - eta^2) (cos).  A linear B4 is c*eta
    about its root h, for c of either sign (sqrt).
    """
    if b4.degree == 0 and b4.coefficient(0) > 0:
        return ("affine", float(b4.coefficient(0)), 0.0, 0.0)
    if b4.degree == 1:
        c = b4.coefficient(1)
        return ("sqrt", float(c), 0.0, float(-b4.coefficient(0) / c))
    if b4.degree == 2:
        p = b4.coefficient(2)
        h = -b4.coefficient(1) / (2 * p)
        q = b4(h)
        k = math.sqrt(float(abs(q / p)))
        if p > 0:
            tag = "exp" if q == 0 else ("cosh" if q < 0 else "sinh")
            return (tag, float(p), k, float(h))
        if q > 0:
            return ("cos", float(-p), k, float(h))
    raise BranchError("B4 is not positive anywhere")


def _reach(p0: float, dp: float, lo: float, hi: float):
    """The u interval on which p0 + dp u stays in [lo, hi]."""
    return tuple(sorted(((lo - p0) / dp, (hi - p0) / dp)))


def _closed_form_maps(tag: str, c: float, k: float, h: float, branch: Branch):
    """xi(u), the root factors and the u reach (see ``Mapping``) for a
    recognized shape, pinned at xi(0) = xi0.  The shape's map is solved
    for eta = xi - h, and h is added back once."""
    s = float(branch.sign)
    rc = math.sqrt(abs(c))
    e0 = branch.xi0 - h
    reach = (-math.inf, math.inf)

    if tag == "affine":
        eta, factors = (lambda u: e0 + s * rc * u), {}
    elif tag == "sqrt":
        # c eta >= 0 on the branch; e0 = 0 gives the even map eta = c u^2 / 4
        sg = math.copysign(1.0, c)
        r0 = math.sqrt(max(sg * e0, 0.0))
        root = (lambda u: r0 + sg * s * rc * u / 2.0)
        eta, factors = (lambda u: sg * root(u) ** 2), {0.0: root}
        reach = _reach(r0, sg * s * rc / 2.0, 0.0 if r0 else -math.inf,
                       math.inf)
    elif tag == "exp":
        if e0 == 0:
            raise BranchError("exp branch needs xi0 off the double root")
        sg = 1.0 if e0 > 0 else -1.0
        eta, factors = (lambda u: e0 * np.exp(s * sg * rc * u)), {}
    elif tag == "sinh":
        t0 = math.asinh(e0 / k)
        eta, factors = (lambda u: k * np.sinh(t0 + s * rc * u)), {}
    # eta = sg k cos(theta) resp. sg k cosh(theta) with theta = t0 + dth u;
    # anchored at a turning point (t0 = 0) the map is even in u and the
    # recorded sign applies on the u > 0 side
    elif tag == "cosh":
        if abs(e0) < k:
            raise BranchError("cosh branch needs |xi0 - h| >= k")
        sg = 1.0 if e0 > 0 else -1.0
        t0 = math.acosh(abs(e0) / k)
        dth = rc if t0 == 0.0 else s * sg * rc
        # eta - sg k = 2 sg k sinh^2(theta/2), eta + sg k = 2 sg k cosh^2(theta/2)
        eta = (lambda u: sg * k * np.cosh(t0 + dth * u))
        factors = {sg * k: lambda u: np.sinh((t0 + dth * u) / 2.0),
                   -sg * k: lambda u: np.cosh((t0 + dth * u) / 2.0)}
        reach = _reach(t0, dth, 0.0 if t0 else -math.inf, math.inf)
    else:  # cos
        if abs(e0) > k:
            raise BranchError("cos branch needs |xi0 - h| <= k")
        if abs(e0) == k:
            sg, t0, dth = (1.0 if e0 > 0 else -1.0), 0.0, rc
        else:
            sg, t0, dth = 1.0, math.acos(e0 / k), -s * rc
        # eta - sg k = -2 sg k sin^2(theta/2), eta + sg k = 2 sg k cos^2(theta/2)
        eta = (lambda u: sg * k * np.cos(t0 + dth * u))
        factors = {sg * k: lambda u: np.sin((t0 + dth * u) / 2.0),
                   -sg * k: lambda u: np.cos((t0 + dth * u) / 2.0)}
        reach = _reach(t0, dth, 0.0 if t0 else -math.pi, math.pi)
    return ((lambda u: h + eta(u)), {h + r: f for r, f in factors.items()},
            reach)


def _elliptic_maps(b4: Polynomial, branch: Branch):
    """xi(u) and its u reach for a cubic or quartic B4: u(xi) =
    s Int_xi0^xi B4^(-1/2) in closed form, inverted by Newton steps kept
    inside a bracket.

    With a real root, Carlson's Int_y^x = 2 R_F(U12^2, U13^2, U14^2) (DLMF
    19.29.4) runs over the square roots of the linear factors of B4 / |lead|,
    conjugate pairs first and 1 as a cubic's fourth; a real root's factor is
    signed by the side of xi0 it lies on and clamped at 0 at the ends.  Two
    complex pairs p_k +- i q_k, where that formula wraps, go to Legendre's F
    by xi = p1 + q1 tan(theta).  An infinite end is evaluated at +-1e150
    (tail below 1e-75).  A u outside [u(lo), u(hi)] raises BranchError.
    """
    from scipy.special import elliprf

    lo, hi, xi0, s = branch.lo, branch.hi, branch.xi0, float(branch.sign)
    if not lo < xi0 < hi:
        raise BranchError("elliptic mapping needs an interior anchor")
    real, pairs = _roots(b4)
    sides = [1.0 if r < xi0 else -1.0 for r in real]
    rlead = math.sqrt(abs(float(b4.coefficient(b4.degree))))

    def factors(x):
        out = [np.sqrt(x - w) for z in pairs for w in (z, z.conjugate())]
        out += [np.sqrt(np.maximum(e * (x - r), 0.0))
                for e, r in zip(sides, real)]
        return out + [1.0] * (4 - len(out))

    if real:
        ys = factors(xi0)

        def integral(x):
            x = np.clip(x, -1e150, 1e150)
            xs, d = factors(x), np.where(x == xi0, 1.0, x - xi0)
            us = [((xs[0] * xs[k] * ys[i] * ys[j]
                    + ys[0] * ys[k] * xs[i] * xs[j]) / d) ** 2
                  for k, i, j in ((1, 2, 3), (2, 1, 3), (3, 1, 2))]
            return (x != xi0) * np.sign(d) * 2 * np.real(elliprf(*us)) / rlead
    else:
        # |xi - z2|^2 cos^2(theta) = lam (cos^2 + ratio sin^2)(theta - phi);
        # ratio is formed without cancellation: it nears 0 for a narrow pair
        (p1, q1), (p2, q2) = [(z.real, z.imag) for z in pairs]
        a, b, c = (p1 - p2) ** 2 + q2 ** 2, (p1 - p2) * q1, q1 ** 2
        lam = (a + c) / 2 + math.hypot((a - c) / 2, b)
        ratio, phi = (q1 * q2 / lam) ** 2, 0.5 * math.atan2(b, (a - c) / 2)

        def legendre(x):   # F(psi | 1 - ratio), continued past +-pi/2
            psi = np.arctan((x - p1) / q1) - phi
            n = np.round(psi / np.pi)
            sin, cos = np.sin(psi - n * np.pi), np.cos(psi - n * np.pi)
            return (sin * elliprf(cos * cos, cos * cos + ratio * sin * sin, 1)
                    + 2 * n * elliprf(0, ratio, 1)) / (rlead * math.sqrt(lam))
        integral = (lambda x: legendre(x) - legendre(xi0))

    # bisection runs in t = arctan((xi - xi0) / w), which compactifies an
    # infinite end; a 33-point table in t gives the first guess
    w = 1.0 + abs(xi0)
    ts = np.linspace(np.arctan((lo - xi0) / w), np.arctan((hi - xi0) / w), 33)
    table = integral(np.concatenate([[lo], xi0 + w * np.tan(ts[1:-1]), [hi]]))
    reach = sorted((s * table[0], s * table[-1]))

    def xi_fn(u):
        if np.any(u < reach[0]) or np.any(u > reach[1]):
            raise BranchError("requested u range is unreachable on this branch"
                              f" (covered [{reach[0]:.6g}, {reach[1]:.6g}])")
        f = s * u.ravel()
        # an end is its own inverse; a nan u stays nan
        xi = np.where(f <= table[0], lo, np.where(f >= table[-1], hi, np.nan))
        inner = np.flatnonzero((table[0] < f) & (f < table[-1]))
        f, xa, xb = f[inner], np.full(inner.size, lo), np.full(inner.size, hi)
        x = xi0 + w * np.tan(np.interp(f, table[1:-1], ts[1:-1]))
        prev = np.full_like(x, np.nan)
        for _ in range(64):
            xs, r = factors(x), integral(x) - f
            step = r * rlead * np.abs(xs[0] * xs[1] * xs[2] * xs[3])
            xa, xb = np.where(r < 0, x, xa), np.where(r > 0, x, xb)
            newton = (step != 0) & (xa <= x - step) & (x - step <= xb)
            mid = np.arctan((xa - xi0) / w) + np.arctan((xb - xi0) / w)
            nxt = np.where(newton, x - step,
                           np.clip(xi0 + w * np.tan(mid / 2), xa, xb))
            # converged, or hopping between two floats at the rounding floor
            done = (r == 0) | (nxt == prev) | newton & (
                np.abs(step) <= 2.0 ** -50 * (1.0 + np.abs(x)))
            xi[inner[done]] = np.where(r == 0, x, nxt)[done]
            inner, f, xa, xb, x, prev = (
                v[~done] for v in (inner, f, xa, xb, nxt, x))
            if not inner.size:
                break
        xi[inner] = x
        return xi.reshape(np.shape(u))

    return _last_array_memo(xi_fn), tuple(reach)


def _last_array_memo(fn):
    """fn on arrays, with a memo of its last call on an array found again
    by value: the potential, the gauge and the wavefunctions of a request,
    each sampled on the same x, then share one elliptic inversion.  A call
    on a scalar neither reads nor replaces the memo."""
    last = None

    def call(u):
        nonlocal last
        if u.ndim == 0:
            return fn(u)
        if (last is None or last[0].shape != u.shape
                or not np.array_equal(last[0], u)):
            last = (u.copy(), fn(u))
        return last[1].copy()

    return call


def build_mapping(bp: BPolynomials, branch: Branch,
                  transform: UTransform | None = None) -> Mapping:
    """Construct the xi(u(x)) evaluator for one branch: the exact map of
    a B4 of degree <= 2 (``_recognize_shape``), or the elliptic map of a
    cubic or quartic B4 (``_elliptic_maps``).  Raises BranchError when B4
    is not positive on the branch interior.
    """
    if transform is None:
        transform = identity_shift(0.0)
    b4 = bp.b4
    if b4.is_zero:
        raise BranchError("B4 vanishes identically")

    interior = sorted({r for r in _roots(b4)[0]
                       if branch.lo + 1e-12 < r < branch.hi - 1e-12})
    if interior:
        raise BranchError(f"B4 has zeros inside the branch interval: {interior}")
    mid = branch.xi0 if branch.lo < branch.xi0 < branch.hi else \
        0.5 * (max(branch.lo, branch.xi0 - 1.0) + min(branch.hi, branch.xi0 + 1.0))
    probe = float(b4(float(mid))) if branch.lo < mid < branch.hi else None
    if probe is not None and probe <= 0:
        raise BranchError("B4 is not positive on the branch interior")

    if b4.degree > 2:
        xi_fn, reach = _elliptic_maps(b4, branch)
        return Mapping(b4, branch, transform, xi_fn, "elliptic",
                       u_reach=reach)
    tag, c, k, h = _recognize_shape(b4)
    xi_fn, factors, reach = _closed_form_maps(tag, c, k, h, branch)
    return Mapping(b4, branch, transform, xi_fn, tag, factors, reach)


@dataclass
class PotentialModel:
    """Callable potential with its domain and optional period."""

    fn: object
    domain: tuple[float, float]
    period: float | None = None

    def __call__(self, x):
        return self.fn(x)


def potential_from_operator(bp: BPolynomials, d_value: float, mapping: Mapping,
                            e_convention: float,
                            domain: tuple[float, float],
                            period: float | None = None) -> PotentialModel:
    """Potential induced by the operator data under the coordinate chain.

    V(x) = E - u'''/(2u') + (3/4)(u''/u')^2
           - u'^2 * { B2 - (1/4)(2 B3' - B4'')
                      - (2 B3 - B4')(2 B3 - 3 B4') / (16 B4) }

    with every xi-polynomial evaluated at xi(u(x)) and B2 = B2_base + d.
    The division by B4 is carried out exactly on the polynomial level, so a
    zero of B4 only raises SingularPointError when the singularity is real
    (the polynomial remainder does not cancel it).  The exact polynomial
    work is done here once; a call evaluates floats only.  Every catalog
    entry's potential comes from this rule, as does the general mode's.
    """
    t, b4, b3 = mapping.transform, mapping.b4, bp.b3
    b4p = b4.derivative()
    b4pp, b3p = b4p.derivative(), b3.derivative()
    quot, rem = divmod((2 * b3 - b4p) * (2 * b3 - 3 * b4p), b4)

    def fn(x):
        x_arr = np.asarray(x, float)
        up, upp, uppp = t.du(x_arr), t.d2u(x_arr), t.d3u(x_arr)
        xi = mapping.xi_of_x(x_arr)
        b2v = bp.b2_base(xi) + float(d_value)
        bracket = b2v - 0.25 * (2.0 * b3p(xi) - b4pp(xi)) - quot(xi) / 16.0
        if not rem.is_zero:
            b4v = b4(xi)
            if np.any(b4v == 0.0):
                raise SingularPointError("B4 vanishes at a requested point")
            bracket = bracket - rem(xi) / (16.0 * b4v)
        v = (float(e_convention) - uppp / (2.0 * up) + 0.75 * (upp / up) ** 2
             - up ** 2 * bracket)
        return float(v) if np.ndim(x) == 0 else v

    return PotentialModel(fn, domain, period)


def _solve_exact(rows, rhs) -> list:
    """x with rows @ x = rhs for a square nonsingular Fraction system
    (Gauss-Jordan)."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(len(aug)):
        pivot = next(r for r in range(col, len(aug)) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r, row in enumerate(aug):
            if r != col and row[col] != 0:
                aug[r] = [a - row[col] * b for a, b in zip(row, aug[col])]
    return [row[-1] for row in aug]


def _split_integral(numer: Polynomial, denom: Polynomial):
    """(P, A, D1, C, D2) with the integral of numer/denom equal to
    P + A/D1 + the integral of C/D2, D2 squarefree, exactly.

    P integrates the quotient, with P(0) = 0; the Horowitz-Ostrogradsky
    ansatz with D1 = gcd(D, D') and D2 = D/D1 takes the rational part A/D1
    off the proper fraction, so C/D2 has only simple poles.  A denominator
    that is ``_plainly_squarefree`` has D1 = 1, so the ansatz is the
    identity system: A = 0, C = the remainder and D2 = D, returned as they
    are without solving it.
    """
    quot, rem = divmod(numer, denom)
    poly = Polynomial._make([0] + [c / (i + 1)
                                   for i, c in enumerate(quot.coeffs)])
    if _plainly_squarefree(denom):
        return poly, Polynomial.zero(), Polynomial.of(1), rem, denom
    d1 = poly_gcd(denom, denom.derivative())
    d2, _ = divmod(denom, d1)
    # rem = A' D2 - A H + C D1 with H = D2 D1' / D1, for deg A < deg D1
    # and deg C < deg D2: one column per unknown coefficient
    h, _ = divmod(d2 * d1.derivative(), d1)
    m, size = d1.degree, denom.degree
    cols = [Polynomial.monomial(i).derivative() * d2 - Polynomial.monomial(i) * h
            for i in range(m)]
    cols += [Polynomial.monomial(i) * d1 for i in range(size - m)]
    sol = _solve_exact([[col.coefficient(r) for col in cols]
                        for r in range(size)],
                       [rem.coefficient(r) for r in range(size)])
    return poly, Polynomial._make(sol[:m]), d1, Polynomial._make(sol[m:]), d2


def scaled_exp(exponent, factor=1.0):
    """factor * exp(exponent), computed through log magnitude when the
    exponent is large enough to overflow or underflow double precision.
    A value beyond the float range comes out as +-inf, one below it as 0.
    When every |exponent| < 600 it is the plain product, with no masked
    copies of the broadcast operands."""
    exponent = np.asarray(exponent, dtype=float)
    factor = np.asarray(factor, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        if np.all(np.abs(exponent) < 600.0):
            out = factor * np.exp(exponent)
        else:
            exponent, factor = np.broadcast_arrays(exponent, factor)
            out = np.zeros(exponent.shape, dtype=float)
            small = np.abs(exponent) < 600.0
            out[small] = factor[small] * np.exp(exponent[small])
            big = ~small
            mag = np.where(factor[big] != 0.0, np.log(np.abs(factor[big])),
                           -np.inf)
            out[big] = np.sign(factor[big]) * np.exp(exponent[big] + mag)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class GaugeSamples:
    """Samples of a gauge factor g = exp(exponent) * factor.

    The parts stay apart so that a wavefunction can fold its polynomial
    into ``factor`` and exponentiate once (``scaled_exp``): psi stays finite
    where exp(exponent) alone would overflow or underflow.  numpy reads the
    samples as the array of g.
    """

    exponent: np.ndarray
    factor: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(scaled_exp(self.exponent, self.factor), dtype)


@dataclass
class GaugeFactor:
    """Multiplicative non-polynomial factor of the wavefunction, normalized
    to 1 at the reference point x0 of ``build_gauge``; a call returns
    ``GaugeSamples``."""

    _fn: object

    def __call__(self, x):
        return self._fn(x)


def build_gauge(bp: BPolynomials, mapping: Mapping, x0: float) -> GaugeFactor:
    """Gauge factor g(x) = (u')^(-1/2) exp[(1/2) Int (2 B3 - B4')/(2 sqrt(B4)) du].

    On a fixed branch the u-integral is the xi-integral of the rational
    function (2 B3 - B4')/(2 B4), independent of the recorded square-root
    sign.  Its common polynomial factors are cancelled exactly, and the
    antiderivative is taken in closed form (``_split_integral``): a
    polynomial, a rational part for repeated roots, and c_k log(xi - r_k)
    over the simple roots r_k, with real part taken for complex pairs.  A
    simple root with a positive-integer residue c_k that the map reaches at
    a turning point contributes the map's signed root factor to the power
    c_k (see ``Mapping``), so the wavefunction continues through the turning
    point; any other pole on the path raises SingularPointError.  A path
    that passes such a pole at a turning point and comes back shows as a
    sign change of its root factor over x0 and the samples (a pole passed
    twice between two adjacent samples does not).

    g(x0) = 1, except that a root factor vanishing at x0 is kept as it
    is.  A call returns ``GaugeSamples`` and evaluates every requested
    point, so evaluate the levels that share a gauge as one
    ``WaveFunction`` block, which samples it once per grid.
    """
    b4 = mapping.b4
    numer = 2 * bp.b3 - b4.derivative()
    denom = 2 * b4
    common = poly_gcd(numer, denom)
    if common.degree > 0:
        numer, _ = divmod(numer, common)
        denom, _ = divmod(denom, common)
    poly, rat, rat_den, log_num, log_den = _split_integral(numer, denom)
    real, pairs = _roots(log_den)
    dlog = log_den.derivative()

    t0 = mapping.transform
    base_xi = float(np.asarray(mapping.xi_of_x(x0)))
    base_u = float(np.asarray(t0.u(x0)))
    base_du = float(np.asarray(t0.du(x0)))
    poles = _roots(rat_den)[0]
    # a conjugate pair adds 2 Re(c log(xi - z)) through its upper member z
    logs = [(z, 2 * log_num(z) / dlog(z)) for z in pairs]
    factors, turning = [], []
    for r in real:
        c = log_num(r) / dlog(r)
        power = round(c)
        fn = next((f for root, f in mapping.root_factors.items()
                   if abs(root - r) <= 1e-12 * (1.0 + abs(r))), None)
        if fn is not None and power >= 1 and abs(c - power) <= 1e-9 * power:
            factors.append((r, fn, power))
        else:
            logs.append((r, c))
            poles.append(r)
            if fn is not None:
                turning.append((r, fn))

    def exponent(xi):
        out = poly(xi) + rat(xi) / rat_den(xi)
        for r, c in logs:
            out = out + (c * np.log(xi - r + 0j)).real
        return 0.5 * out

    # the exponent takes the normalization, the factor only its sign;
    # root factors that vanish at x0 are left out of both
    base_exp, base_sign = exponent(base_xi), 1.0
    for r, f, power in factors:
        if abs(base_xi - r) > 1e-12 * (1.0 + abs(r)):
            value = float(f(base_u)) ** power
            base_exp += math.log(abs(value))
            base_sign *= math.copysign(1.0, value)

    def fn(x):
        xs = np.asarray(x, float)
        xi = np.asarray(mapping.xi_of_x(xs))
        lo = min(float(xi.min()), base_xi)
        hi = max(float(xi.max()), base_xi)
        u = t0.u(xs)
        path = np.append(u, base_u)
        crossed = [r for r in poles if lo - 1e-12 <= r <= hi + 1e-12]
        crossed += [r for r, f in turning
                    if abs(np.sign(f(path)).sum()) < path.size]
        if crossed:
            raise SingularPointError(
                f"gauge integration path crosses a pole at xi={crossed[0]:g}"
            )
        factor = base_sign * np.sqrt(base_du / t0.du(xs))
        for _, f, power in factors:
            factor = factor * f(u) ** power
        return GaugeSamples(exponent(xi) - base_exp, factor)

    return GaugeFactor(fn)


@dataclass(eq=False)
class WaveFunction:
    """psi(x) = g(x) * chi(xi(u(x))), chi = sum_r b_r xi^r (unnormalized).

    ``coeffs`` holds one level's b_r, or one row per level for a block of
    levels that share the gauge and the map; a call then returns one row of
    samples per level.  The product is exp(exponent) * (factor * chi) of
    the gauge's ``GaugeSamples``, exponentiated once by ``scaled_exp``.
    """

    gauge: GaugeFactor
    coeffs: np.ndarray
    mapping: Mapping

    def __call__(self, x):
        """psi at x, a row of samples per level for a block (a transposed
        view of ``WaveRows``' columns)."""
        out = self.on(x)(...)
        if np.ndim(out) == 0:
            return float(out)
        return np.moveaxis(out, -1, 0) if np.ndim(self.coeffs) > 1 else out

    def on(self, x) -> WaveRows:
        """The map and the gauge sampled on all of x, so that every error
        of theirs is raised here; the WaveRows combines them with the
        polynomial on any rows of x."""
        return WaveRows(np.asarray(self.mapping.xi_of_x(x)), self.gauge(x),
                        np.asarray(self.coeffs, float))


@dataclass(frozen=True, eq=False)
class WaveRows:
    """A block's xi and gauge samples on x (``WaveFunction.on``).  A call
    with an index of x (a slice of rows, or ... for all) gives psi on those
    samples, one column per level: (samples, levels) for a block, the
    samples' shape for one level.  It runs np.polyval's Horner steps
    chi = chi * xi + b_r, highest power first, on a (samples, levels) chi
    against xi tiled to that shape, with b_r a contiguous row, then the
    gauge product and ``scaled_exp``, in row blocks of at most ROW_FLOATS
    floats.  Every step is elementwise, so each column is bitwise its
    level's own np.polyval times the gauge, and the rows of a slice are
    bitwise the same rows of the whole."""

    xi: np.ndarray
    gauge: GaugeSamples
    coeffs: np.ndarray

    def __call__(self, rows, out=None):
        """psi on x[rows], written into ``out`` when given: a (samples,
        levels) view, such as columns of a wider table."""
        xi = self.xi[rows]
        lead = self.coeffs.shape[:-1]
        if out is None:
            out = np.empty(np.shape(xi) + lead)
        levels = math.prod(lead)
        flat = out.reshape(-1, levels)
        xi, factor, exponent = (np.reshape(a, -1) for a in (
            xi, self.gauge.factor[rows], self.gauge.exponent[rows]))
        steps = self.coeffs.reshape(levels, -1).T[::-1].copy()
        size = max(ROW_FLOATS // levels, 1)
        for a in range(0, len(xi), size):
            b = a + size
            tile = np.repeat(xi[a:b, None], levels, axis=1)
            chi = np.zeros(tile.shape)
            for step in steps:
                chi *= tile
                chi += step
            chi *= factor[a:b, None]
            flat[a:b] = scaled_exp(exponent[a:b, None], chi)
        return out
