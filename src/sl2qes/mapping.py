"""Coordinate chains xi <-> u <-> x, the induced potential, and wavefunctions.

The stretched coordinate u satisfies (dxi/du)^2 = B4(xi) on a branch where
B4 > 0; composing with a fixed u(x) (either a shift u = x - a or the
half-line map u = 2*sqrt(x)) produces a Schroedinger problem in x.  The
potential and the gauge factor of the wavefunction are both determined by
the operator polynomials B4, B3, B2 evaluated along xi(u(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from .algebra import BPolynomials, Polynomial, poly_gcd
from .errors import BranchError, SingularPointError

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
    "GaugeFactor",
    "build_gauge",
    "PrefactorTag",
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
    coeffs = poly.float_coeffs()[::-1]  # descending for numpy
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    scale = 1.0 + max(abs(r) for r in roots) if len(roots) else 1.0
    return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * scale)


class Mapping:
    """Evaluator for xi(u(x)) on one branch of (dxi/du)^2 = B4(xi)."""

    def __init__(self, b4: Polynomial, branch: Branch, transform: UTransform,
                 xi_fn, dxi_fn, closed_form: str | None, u_of_xi_fn=None):
        self.b4 = b4
        self.branch = branch
        self.transform = transform
        self._xi_fn = xi_fn
        self._dxi_fn = dxi_fn
        self.closed_form = closed_form
        self._u_of_xi_fn = u_of_xi_fn

    def xi_of_u(self, u):
        return self._xi_fn(np.asarray(u, float))

    def dxi_du(self, u):
        return self._dxi_fn(np.asarray(u, float))

    def xi_of_x(self, x):
        return self.xi_of_u(self.transform.u(x))

    def u_of_xi(self, xi):
        """Inverse map (where defined); numeric mode integrates the weight."""
        if self._u_of_xi_fn is None:
            raise BranchError("this mapping does not expose an inverse")
        return self._u_of_xi_fn(np.asarray(xi, float))


def _recognize_shape(b4: Polynomial):
    """Match B4 against the closed-form shapes; returns (tag, c, k) or None.

    Shapes, with c > 0: constant c; c*xi; c*xi^2; c*(xi^2 - k^2);
    c*(xi^2 + k^2); c*(k^2 - xi^2).
    """
    if b4.degree == 0:
        c = b4.coefficient(0)
        if c > 0:
            return ("affine", float(c), 0.0)
        return None
    if b4.degree == 1:
        if b4.coefficient(0) == 0 and b4.coefficient(1) > 0:
            return ("sqrt", float(b4.coefficient(1)), 0.0)
        return None
    if b4.degree == 2 and b4.coefficient(1) == 0:
        p = b4.coefficient(2)
        q = b4.coefficient(0)
        if p > 0 and q == 0:
            return ("exp", float(p), 0.0)
        if p > 0 and q < 0:
            return ("cosh", float(p), math.sqrt(float(-q / p)))
        if p > 0 and q > 0:
            return ("sinh", float(p), math.sqrt(float(q / p)))
        if p < 0 and q > 0:
            return ("cos", float(-p), math.sqrt(float(-q / p)))
    return None


def _closed_form_maps(tag: str, c: float, k: float, branch: Branch):
    """xi(u) and dxi/du for a recognized shape, pinned at xi(0) = xi0."""
    s = float(branch.sign)
    rc = math.sqrt(c)
    xi0 = branch.xi0

    if tag == "affine":
        return (lambda u: xi0 + s * rc * u,
                lambda u: s * rc * np.ones_like(u))
    if tag == "sqrt":
        # xi >= 0 branch; xi0 = 0 gives the even map xi = c u^2 / 4
        r0 = math.sqrt(max(xi0, 0.0))
        return (lambda u: (r0 + s * rc * u / 2.0) ** 2,
                lambda u: (r0 + s * rc * u / 2.0) * s * rc)
    if tag == "exp":
        if xi0 == 0:
            raise BranchError("exponential map needs a nonzero anchor")
        sg = 1.0 if xi0 > 0 else -1.0
        return (lambda u: xi0 * np.exp(s * sg * rc * u),
                lambda u: xi0 * s * sg * rc * np.exp(s * sg * rc * u))
    if tag == "cosh":
        if abs(xi0) < k:
            raise BranchError("anchor must satisfy |xi0| >= k on a cosh branch")
        sg = 1.0 if xi0 > 0 else -1.0
        t0 = math.acosh(abs(xi0) / k)
        if t0 == 0.0:
            # even map anchored at the turning point; recorded sign applies
            # on the u > 0 side
            return (lambda u: sg * k * np.cosh(rc * u),
                    lambda u: sg * k * rc * np.sinh(rc * u))
        return (lambda u: sg * k * np.cosh(t0 + s * sg * rc * u),
                lambda u: sg * k * rc * s * sg * np.sinh(t0 + s * sg * rc * u))
    if tag == "sinh":
        t0 = math.asinh(xi0 / k)
        return (lambda u: k * np.sinh(t0 + s * rc * u),
                lambda u: k * rc * s * np.cosh(t0 + s * rc * u))
    if tag == "cos":
        if abs(xi0) > k:
            raise BranchError("anchor must satisfy |xi0| <= k on a cos branch")
        if xi0 == k:
            return (lambda u: k * np.cos(rc * u),
                    lambda u: -k * rc * np.sin(rc * u))
        if xi0 == -k:
            return (lambda u: -k * np.cos(rc * u),
                    lambda u: k * rc * np.sin(rc * u))
        t0 = math.acos(xi0 / k)
        return (lambda u: k * np.cos(t0 - s * rc * u),
                lambda u: k * rc * s * np.sin(t0 - s * rc * u))
    raise ValueError(f"unknown shape {tag}")


def _closed_form_inverse(tag: str, c: float, k: float, branch: Branch):
    s = float(branch.sign)
    rc = math.sqrt(c)
    xi0 = branch.xi0
    if tag == "affine":
        return lambda xi: (xi - xi0) / (s * rc)
    if tag == "sqrt":
        r0 = math.sqrt(max(xi0, 0.0))
        return lambda xi: (np.sqrt(xi) - r0) * 2.0 / (s * rc)
    if tag == "exp":
        sg = 1.0 if xi0 > 0 else -1.0
        return lambda xi: np.log(np.asarray(xi, float) / xi0) / (s * sg * rc)
    return None  # even maps are not globally invertible


def _integrate_inv_sqrt(b4_fn, a: float, b: float, roots: list[float]) -> float:
    """integral of B4^(-1/2) from a to b, with substitution near simple-root
    endpoints so the inverse-square-root singularity is removed.  Raises
    BranchError where B4 is not positive in floats: next to a root, rounding
    ends the branch there."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    near = 1e-12 * (1.0 + abs(a) + abs(b))

    def b4_pos(t):
        value = b4_fn(t)
        if not value > 0:
            raise BranchError(f"B4 is not positive at xi={t!r} in floats")
        return value

    def plain(lo, hi):
        val, _ = quad(lambda t: b4_pos(t) ** -0.5, lo, hi, epsabs=1e-14,
                      epsrel=1e-11, limit=200)
        return val

    total = 0.0
    lo, hi = a, b
    # split off endpoint neighborhoods that sit on a root of B4
    for r in roots:
        if abs(lo - r) <= near:
            w = min(0.1 * (hi - lo), 1.0)
            val, _ = quad(lambda t: 2.0 * t / b4_pos(r + t * t) ** 0.5,
                          0.0, math.sqrt(w), epsabs=1e-14, epsrel=1e-11,
                          limit=200)
            total += val
            lo = r + w
        if abs(hi - r) <= near:
            w = min(0.1 * (hi - lo), 1.0)
            val, _ = quad(lambda t: 2.0 * t / b4_pos(r - t * t) ** 0.5,
                          0.0, math.sqrt(w), epsabs=1e-14, epsrel=1e-11,
                          limit=200)
            total += val
            hi = r - w
    if lo < hi:
        total += plain(lo, hi)
    return sign * total


def _numeric_maps(b4: Polynomial, branch: Branch, u_range: tuple[float, float]):
    """Quadrature table for u(xi) plus a monotone Hermite inverse for xi(u)."""
    if not (branch.lo < branch.xi0 < branch.hi):
        raise BranchError("numeric mapping needs an interior anchor")

    roots = _real_roots(b4)
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
            try:
                du = _integrate_inv_sqrt(b4, x_cur, x_next, roots)
            except BranchError:   # the rounding zone of a root of B4
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
    dspline = spline.derivative()

    def xi_fn(u):
        u = np.asarray(u, float)
        if np.any(u < us[0] - 1e-9) or np.any(u > us[-1] + 1e-9):
            raise BranchError("u outside the tabulated range")
        return spline(u)

    def u_of_xi(xi):
        xi = np.atleast_1d(np.asarray(xi, float))
        out = np.array([s * _integrate_inv_sqrt(b4, branch.xi0, t, roots)
                        for t in xi])
        return out if out.size > 1 else float(out[0])

    return xi_fn, (lambda u: dspline(np.asarray(u, float))), u_of_xi


def build_mapping(bp: BPolynomials, branch: Branch,
                  transform: UTransform | None = None,
                  u_range: tuple[float, float] = (-10.0, 10.0)) -> Mapping:
    """Construct the xi(u(x)) evaluator for one branch.

    Recognizes the closed-form shapes of B4 and installs the exact inverse;
    anything else falls back to numeric quadrature of u(xi) inverted through
    a monotone table.  Raises BranchError when B4 is not positive on the
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

    shape = _recognize_shape(b4)
    if shape is not None:
        tag, c, k = shape
        xi_fn, dxi_fn = _closed_form_maps(tag, c, k, branch)
        inv = _closed_form_inverse(tag, c, k, branch)
        return Mapping(b4, branch, transform, xi_fn, dxi_fn, tag, inv)

    xi_fn, dxi_fn, u_of_xi = _numeric_maps(b4, branch, u_range)
    return Mapping(b4, branch, transform, xi_fn, dxi_fn, None, u_of_xi)


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


def _cumulative_quad(fn, base: float, targets: np.ndarray, epsrel: float) -> np.ndarray:
    """Integrals of fn from base to each target, reusing shared segments."""
    pts = np.unique(np.concatenate([[base], targets]))
    seg = np.zeros(len(pts))
    for i in range(1, len(pts)):
        val, _ = quad(fn, pts[i - 1], pts[i], epsabs=0.0, epsrel=epsrel, limit=200)
        seg[i] = val
    cum = np.cumsum(seg)
    cum -= cum[np.searchsorted(pts, base)]
    return cum[np.searchsorted(pts, targets)]


@dataclass
class GaugeFactor:
    """Multiplicative non-polynomial factor of the wavefunction, normalized
    to 1 at the reference point x0."""

    x0: float
    _fn: object

    def __call__(self, x):
        return self._fn(x)


def build_gauge(bp: BPolynomials, mapping: Mapping, x0: float,
                epsrel: float = 1e-10) -> GaugeFactor:
    """Gauge factor g(x) = (u')^(-1/2) exp[(1/2) Int (2 B3 - B4')/(2 sqrt(B4)) du].

    On a fixed branch the u-integral reduces to the xi-integral of
    (2 B3 - B4')/(2 B4), independent of the recorded square-root sign, which
    is how it is computed here (adaptive quadrature).  Common polynomial
    factors of numerator and denominator are cancelled exactly first, so
    only genuine poles of the integrand count as singular.  The returned
    factor satisfies g(x0) = 1.  Each call integrates from x0 across every
    requested point, so sample it once per grid and hand the samples to
    each level's ``WaveFunction.__call__``.
    """
    b4 = mapping.b4
    numer = 2 * bp.b3 - b4.derivative()
    denom = 2 * b4
    common = poly_gcd(numer, denom)
    if common.degree >= 1:
        numer, _ = divmod(numer, common)
        denom, _ = divmod(denom, common)
    roots = _real_roots(denom)

    def integrand(t):
        return numer(t) / denom(t)

    t0 = mapping.transform
    base_xi = float(np.asarray(mapping.xi_of_x(x0)))
    base_du = float(np.asarray(t0.du(x0)))

    def fn(x):
        xs = np.atleast_1d(np.asarray(x, float))
        xi = np.atleast_1d(mapping.xi_of_x(xs))
        lo = min(float(xi.min()), base_xi)
        hi = max(float(xi.max()), base_xi)
        for r in roots:
            if lo - 1e-12 <= r <= hi + 1e-12:
                raise SingularPointError(
                    f"gauge integration path crosses a pole at xi={r:g}"
                )
        expo = 0.5 * _cumulative_quad(integrand, base_xi, xi, epsrel)
        g = np.sqrt(base_du / t0.du(xs)) * np.exp(expo)
        if np.ndim(x) == 0:
            return float(g[0])
        return g

    return GaugeFactor(x0=float(x0), _fn=fn)


_PREFACTOR_FUNCS = {
    "none": lambda arg: np.ones_like(arg),
    "cos": np.cos,
    "sin": np.sin,
    "cosh": np.cosh,
    "sinh": np.sinh,
}


@dataclass(frozen=True)
class PrefactorTag:
    """Closed-form multiplicative factor trig(freq * (x - center))."""

    kind: str = "none"
    freq: float = 0.0
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in _PREFACTOR_FUNCS:
            raise ValueError(f"unknown prefactor kind {self.kind!r}")

    def __call__(self, x):
        arg = self.freq * (np.asarray(x, float) - self.center)
        return _PREFACTOR_FUNCS[self.kind](arg)


@dataclass
class WaveFunction:
    """psi(x) = prefactor(x) * g(x) * sum_r b_r xi(u(x))^r (unnormalized)."""

    gauge: object
    coeffs: tuple[float, ...]
    mapping: Mapping
    prefactor: PrefactorTag

    def __call__(self, x, gauge_samples=None):
        """psi at x; pass the gauge already sampled on x to skip its pass."""
        xi = self.mapping.xi_of_x(x)
        poly = np.polyval(self.coeffs[::-1], xi)
        g = self.gauge(x) if gauge_samples is None else gauge_samples
        out = self.prefactor(x) * g * poly
        if np.ndim(x) == 0:
            return float(np.asarray(out))
        return out

    def l2_norm(self, grid: np.ndarray) -> float:
        vals = self(grid)
        return float(np.sqrt(np.trapezoid(vals ** 2, grid)))


def assemble_wavefunction(gauge, coeffs, mapping: Mapping,
                          prefactor: PrefactorTag | None = None) -> WaveFunction:
    """Compose gauge, polynomial coefficients, mapping, and optional
    closed-form prefactor into an evaluator."""
    if prefactor is None:
        prefactor = PrefactorTag("none")
    return WaveFunction(gauge=gauge, coeffs=tuple(float(c) for c in coeffs),
                        mapping=mapping, prefactor=prefactor)
