"""Coordinate chains xi <-> u <-> x, the induced potential, and wavefunctions.

The stretched coordinate u satisfies (dxi/du)^2 = B4(xi) on a branch where
B4 > 0; composing with a fixed u(x) (either a shift u = x - a or the
half-line map u = 2*sqrt(x)) produces a Schroedinger problem in x.  The
potential and the gauge factor of the wavefunction are both determined by
the operator polynomials B4, B3, B2 evaluated along xi(u(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from .algebra import BPolynomials, Polynomial, poly_gcd
from .errors import BranchError, SingularPointError
from .specfun import scaled_exp

__all__ = [
    "UTransform",
    "identity_shift",
    "half_line_sqrt",
    "Branch",
    "Mapping",
    "build_mapping",
    "evaluate_potential",
    "PotentialModel",
    "potential_from_operator",
    "GaugeSamples",
    "GaugeFactor",
    "build_gauge",
    "WaveFunction",
    "assemble_wavefunction",
]


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

    @property
    def domain(self) -> tuple[float, float]:
        if self.kind == "shift":
            return (-np.inf, np.inf)
        return (0.0, np.inf)


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
        if not (self.lo <= self.xi0 <= self.hi):
            raise BranchError("anchor xi0 lies outside the branch interval")


def _real_roots(poly: Polynomial) -> list[float]:
    """Real roots; repeated roots are divided out exactly first, since
    floats split a double root into two about 1e-8 apart."""
    common = poly_gcd(poly, poly.derivative())
    if common.degree > 0:
        poly, _ = divmod(poly, common)
    coeffs = poly.float_coeffs()[::-1]  # descending for numpy
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    scale = 1.0 + max(abs(r) for r in roots) if len(roots) else 1.0
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * scale)


@dataclass(eq=False)
class Mapping:
    """Evaluator for xi(u(x)) on one branch of (dxi/du)^2 = B4(xi).

    ``root_factors`` maps each root r of B4 that a closed-form map reaches
    at a turning point to a function of u proportional to |xi - r|^(1/2),
    signed so that it stays analytic through the turning point.
    """

    b4: Polynomial
    branch: Branch
    transform: UTransform
    _xi_fn: object
    closed_form: str | None
    root_factors: dict = field(default_factory=dict)

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


def _closed_form_maps(tag: str, c: float, k: float, h: float, branch: Branch):
    """xi(u) and the root factors (see ``Mapping``) for a recognized shape,
    pinned at xi(0) = xi0.  The shape's map is solved for eta = xi - h, and
    h is added back once."""
    s = float(branch.sign)
    rc = math.sqrt(abs(c))
    e0 = branch.xi0 - h

    if tag == "affine":
        eta, factors = (lambda u: e0 + s * rc * u), {}
    elif tag == "sqrt":
        # c eta >= 0 on the branch; e0 = 0 gives the even map eta = c u^2 / 4
        sg = math.copysign(1.0, c)
        r0 = math.sqrt(max(sg * e0, 0.0))
        root = (lambda u: r0 + sg * s * rc * u / 2.0)
        eta, factors = (lambda u: sg * root(u) ** 2), {0.0: root}
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
    return (lambda u: h + eta(u)), {h + r: f for r, f in factors.items()}


def _integrate_inv_sqrt(b4_fn, a: float, b: float) -> float:
    """integral of B4^(-1/2) from a to b.  Raises BranchError where B4 is
    not positive in floats.  Next to a root of B4 its rounding bounds the
    integrand's accuracy, and quad reaches 1e-14 to 1e-12 absolute there,
    hence epsabs 1e-12: a tighter request only warns."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def b4_pos(t):
        value = b4_fn(t)
        if not value > 0:
            raise BranchError(f"B4 is not positive at xi={t!r} in floats")
        return value

    val, _ = quad(lambda t: b4_pos(t) ** -0.5, a, b, epsabs=1e-12,
                  epsrel=1e-11, limit=200)
    return sign * val


def _numeric_maps(b4: Polynomial, branch: Branch, u_range: tuple[float, float]):
    """Quadrature table for u(xi) plus a monotone Hermite inverse for xi(u)."""
    if not (branch.lo < branch.xi0 < branch.hi):
        raise BranchError("numeric mapping needs an interior anchor")

    s = float(branch.sign)
    u_lo, u_hi = min(u_range), max(u_range)
    span = max(u_hi - u_lo, abs(u_lo), abs(u_hi), 1e-6)
    du_step = span / 900.0

    def march(direction):
        # direction +1 marches xi upward; u moves by s*direction
        xs, us = [branch.xi0], [0.0]
        limit = branch.hi if direction > 0 else branch.lo
        target = (u_hi if s * direction > 0 else u_lo)
        while (us[-1] * s * direction) < abs(target) + 2.0 * du_step:
            x_cur = xs[-1]
            step = direction * du_step * math.sqrt(max(b4(x_cur), 1e-300))
            x_next = x_cur + step
            if direction > 0 and x_next >= limit:
                x_next = x_cur + 0.5 * (limit - x_cur)
            if direction < 0 and x_next <= limit:
                x_next = x_cur + 0.5 * (limit - x_cur)
            if abs(x_next - x_cur) < 1e-14 * (1.0 + abs(x_cur)):
                break
            # halving toward the branch end stops at its rounding zone,
            # where B4 (zero at a root) is not resolved in floats
            if abs(limit - x_next) <= 1e-12 * (1.0 + abs(x_cur) + abs(x_next)):
                break
            try:
                du = _integrate_inv_sqrt(b4, x_cur, x_next)
            except BranchError:   # B4 rounds to zero before the branch end
                break
            xs.append(x_next)
            us.append(us[-1] + s * du)
            if len(xs) > 20000:
                break
        return xs[1:], us[1:]

    xs_up, us_up = march(+1)
    xs_dn, us_dn = march(-1)
    xs = list(reversed(xs_dn)) + [branch.xi0] + xs_up
    us = list(reversed(us_dn)) + [0.0] + us_up
    xs = np.asarray(xs)
    us = np.asarray(us)
    order = np.argsort(us)
    us, xs = us[order], xs[order]
    if np.any(np.diff(us) <= 0):
        raise BranchError("u(xi) is not monotone on this branch")
    if us[0] > u_lo + 1e-9 or us[-1] < u_hi - 1e-9:
        raise BranchError(
            "requested u range is unreachable on this branch "
            f"(covered [{us[0]:.6g}, {us[-1]:.6g}])"
        )
    slopes = s * np.sqrt(np.maximum(b4(xs), 0.0))
    spline = CubicHermiteSpline(us, xs, slopes)

    def xi_fn(u):
        u = np.asarray(u, float)
        if np.any(u < us[0] - 1e-9) or np.any(u > us[-1] + 1e-9):
            raise BranchError("u outside the tabulated range")
        return spline(u)

    return xi_fn


def build_mapping(bp: BPolynomials, branch: Branch,
                  transform: UTransform | None = None,
                  u_range: tuple[float, float] = (-10.0, 10.0)) -> Mapping:
    """Construct the xi(u(x)) evaluator for one branch.

    Every B4 of degree <= 2 gets the exact map of its completed-square
    shape (``_recognize_shape``); a cubic or quartic B4 is mapped by
    numeric quadrature of u(xi), inverted through a monotone table that
    covers ``u_range``.  Raises BranchError when B4 is not positive on the
    branch interior.
    """
    if transform is None:
        transform = identity_shift(0.0)
    b4 = bp.b4
    if b4.is_zero:
        raise BranchError("B4 vanishes identically")

    interior = [r for r in _real_roots(b4)
                if branch.lo + 1e-12 < r < branch.hi - 1e-12]
    if interior:
        raise BranchError(f"B4 has zeros inside the branch interval: {interior}")
    mid = branch.xi0 if branch.lo < branch.xi0 < branch.hi else \
        0.5 * (max(branch.lo, branch.xi0 - 1.0) + min(branch.hi, branch.xi0 + 1.0))
    if not np.isfinite(mid):
        mid = branch.xi0
    probe = float(b4(float(mid))) if branch.lo < mid < branch.hi else None
    if probe is not None and probe <= 0:
        raise BranchError("B4 is not positive on the branch interior")

    if b4.degree > 2:
        return Mapping(b4, branch, transform,
                       _numeric_maps(b4, branch, u_range), None)
    tag, c, k, h = _recognize_shape(b4)
    xi_fn, factors = _closed_form_maps(tag, c, k, h, branch)
    return Mapping(b4, branch, transform, xi_fn, tag, factors)


def evaluate_potential(bp: BPolynomials, d_value: float, mapping: Mapping,
                       e_convention: float, x):
    """Potential induced by the operator data under the coordinate chain.

    V(x) = E - u'''/(2u') + (3/4)(u''/u')^2
           - u'^2 * { B2 - (1/4)(2 B3' - B4'')
                      - (2 B3 - B4')(2 B3 - 3 B4') / (16 B4) }

    with every xi-polynomial evaluated at xi(u(x)) and B2 = B2_base + d.
    The division by B4 is carried out exactly on the polynomial level, so a
    zero of B4 only raises SingularPointError when the singularity is real
    (the polynomial remainder does not cancel it).
    """
    x_arr = np.asarray(x, float)
    t = mapping.transform
    up = t.du(x_arr)
    upp = t.d2u(x_arr)
    uppp = t.d3u(x_arr)
    xi = mapping.xi_of_x(x_arr)

    b4 = mapping.b4
    b4p = b4.derivative()
    b4pp = b4p.derivative()
    b3 = bp.b3
    b3p = b3.derivative()

    product = (2 * b3 - b4p) * (2 * b3 - 3 * b4p)
    quot, rem = divmod(product, b4)

    b2v = bp.b2_base(xi) + float(d_value)
    bracket = b2v - 0.25 * (2.0 * b3p(xi) - b4pp(xi)) - quot(xi) / 16.0
    if not rem.is_zero:
        b4v = b4(xi)
        if np.any(b4v == 0.0):
            raise SingularPointError("B4 vanishes at a requested point")
        bracket = bracket - rem(xi) / (16.0 * b4v)
    v = (float(e_convention) - uppp / (2.0 * up) + 0.75 * (upp / up) ** 2
         - up ** 2 * bracket)
    if np.ndim(x) == 0:
        return float(v)
    return v


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
    return PotentialModel(
        fn=lambda x: evaluate_potential(bp, d_value, mapping, e_convention, x),
        domain=domain,
        period=period,
    )


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
    off the proper fraction, so C/D2 has only simple poles.
    """
    quot, rem = divmod(numer, denom)
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
    poly = Polynomial._make([0] + [c / (i + 1)
                                   for i, c in enumerate(quot.coeffs)])
    return poly, Polynomial._make(sol[:m]), d1, Polynomial._make(sol[m:]), d2


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
    to 1 at the reference point x0; a call returns ``GaugeSamples``."""

    x0: float
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
    point, so sample once per grid and hand the samples to each level's
    ``WaveFunction.__call__``.
    """
    b4 = mapping.b4
    numer = 2 * bp.b3 - b4.derivative()
    denom = 2 * b4
    common = poly_gcd(numer, denom)
    numer, _ = divmod(numer, common)
    denom, _ = divmod(denom, common)
    poly, rat, rat_den, log_num, log_den = _split_integral(numer, denom)
    roots = np.roots(log_den.float_coeffs()[::-1])
    residues = log_num(roots) / log_den.derivative()(roots)

    t0 = mapping.transform
    base_xi = float(np.asarray(mapping.xi_of_x(x0)))
    base_u = float(np.asarray(t0.u(x0)))
    base_du = float(np.asarray(t0.du(x0)))
    poles = _real_roots(rat_den)
    logs, factors, turning = [], [], []
    for r, c in zip(roots, residues):
        if abs(r.imag) > 1e-9 * (1.0 + abs(r)):
            logs.append((r, c))
            continue
        r, c, power = r.real, c.real, round(c.real)
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

    return GaugeFactor(x0=float(x0), _fn=fn)


@dataclass
class WaveFunction:
    """psi(x) = g(x) * chi(xi(u(x))), chi = sum_r b_r xi^r (unnormalized).

    With ``GaugeSamples`` the product is exp(exponent) * (factor * chi),
    exponentiated once by ``scaled_exp``.
    """

    gauge: object
    coeffs: tuple[float, ...]
    mapping: Mapping

    def __call__(self, x, gauge_samples=None):
        """psi at x; pass the gauge already sampled on x to skip its pass."""
        xi = self.mapping.xi_of_x(x)
        chi = np.polyval(self.coeffs[::-1], xi)
        g = self.gauge(x) if gauge_samples is None else gauge_samples
        if isinstance(g, GaugeSamples):
            out = scaled_exp(g.exponent, g.factor * chi)
        else:
            out = g * chi
        if np.ndim(x) == 0:
            return float(np.asarray(out))
        return out


def assemble_wavefunction(gauge, coeffs, mapping: Mapping) -> WaveFunction:
    """Compose gauge, polynomial coefficients and mapping into an
    evaluator."""
    return WaveFunction(gauge=gauge,
                        coeffs=tuple(np.asarray(coeffs, float).tolist()),
                        mapping=mapping)
