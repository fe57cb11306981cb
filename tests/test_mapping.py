import math
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from sl2qes.algebra import AlgebraCoefficients, Polynomial, b_polynomials
from sl2qes.catalog import FAMILY_NAMES, make_entry
from sl2qes.errors import BranchError, SingularPointError
from sl2qes.specfun import scaled_exp
from sl2qes.mapping import (
    Branch,
    assemble_wavefunction,
    build_gauge,
    build_mapping,
    evaluate_potential,
    half_line_sqrt,
)

from oracles import MARCH_SET, hand_written_psi, march_map, quadrature_gauge


def bp_of(**kw):
    return b_polynomials(AlgebraCoefficients(**kw))


_RATIONAL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


# ------------------------------------------------------------ closed shapes

def test_constant_weight_gives_identity_map():
    bp = bp_of(c_mm=1, n=1)
    m = build_mapping(bp, Branch(-np.inf, np.inf, sign=1, xi0=0.0))
    assert m.closed_form == "affine"
    assert m.xi_of_u(1.7) == pytest.approx(1.7, abs=1e-15)


def test_trig_weight_gives_cosine():
    bp = bp_of(c_00=-1, c_mm=1, c_p=-1, c_0=-2, c_m=2, n=1)  # B4 = 1 - xi^2
    m = build_mapping(bp, Branch(-1.0, 1.0, sign=-1, xi0=1.0))
    assert m.closed_form == "cos"
    u = np.linspace(0.1, 3.0, 7)
    assert np.allclose(m.xi_of_u(u), np.cos(u), atol=1e-14)


def test_hyperbolic_weight_gives_cosh():
    # B4 = 4 (xi^2 - 1)
    bp = bp_of(c_00=4, c_mm=-4, c_p=-2, c_0=0, c_m=2, n=0)
    m = build_mapping(bp, Branch(1.0, np.inf, sign=1, xi0=1.0))
    assert m.closed_form == "cosh"
    assert m.xi_of_u(1.0) == pytest.approx(math.cosh(2.0), rel=1e-15)


def test_linear_weight_with_sqrt_transform():
    bp = bp_of(c_0m=2, c_0=1, c_m=2, n=0)  # B4 = 4 xi
    m = build_mapping(bp, Branch(0.0, np.inf, sign=1, xi0=0.0),
                      half_line_sqrt())
    assert m.closed_form == "sqrt"
    assert m.xi_of_x(2.5) == pytest.approx(10.0, rel=1e-14)  # xi = 4x


def test_square_weight_gives_exponential():
    bp = bp_of(c_00=1, c_0=-1, n=0)  # B4 = xi^2
    m = build_mapping(bp, Branch(0.0, np.inf, sign=1, xi0=1.0))
    assert m.closed_form == "exp"
    assert m.xi_of_u(2.0) == pytest.approx(math.exp(2.0), rel=1e-15)


def test_shifted_sinh_map():
    bp = bp_of(c_00=1, c_mm=1, c_0=-1, n=0)  # B4 = xi^2 + 1
    m = build_mapping(bp, Branch(-np.inf, np.inf, sign=1, xi0=0.0))
    assert m.closed_form == "sinh"
    assert m.xi_of_u(0.8) == pytest.approx(math.sinh(0.8), rel=1e-15)


@pytest.mark.parametrize("name,params,sign,n", [
    ("harmonic", {"omega": 2}, None, 1),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 1),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 1),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1),
    ("coulomb", {"e2": 2, "l": 0}, None, 1),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1),
])
def test_chain_rule_against_weight(name, params, sign, n):
    entry = make_entry(name, params, sign=sign, n=n)
    m = entry.mapping
    # sample the u > 0 side, where the recorded sign applies
    if name == "periodic-v1":
        u = np.linspace(0.01, math.pi - 0.01, 100)
    else:
        u = np.linspace(0.01, 1.5, 100)
    xi = m.xi_of_u(u)
    rhs = m.branch.sign * np.sqrt(np.asarray(m.b4(xi), float))
    h = 1e-6
    num = (m.xi_of_u(u + h) - m.xi_of_u(u - h)) / (2 * h)
    assert np.max(np.abs(num - rhs)) < 1e-7


def test_shifted_weight_matches_exact_solution():
    # B4 = 2 + xi - xi^2 = 9/4 - (xi - 1/2)^2 is the cos shape about h = 1/2;
    # the exact solution of the flow is xi = 1/2 + (3/2) sin(u) from
    # xi0 = 1/2, through both turning points
    bp = bp_of(c_00=-1, c_0m=Q(1, 2), c_mm=2, n=1)
    m = build_mapping(bp, Branch(-1.0, 2.0, sign=1, xi0=0.5))
    assert m.closed_form == "cos"
    assert sorted(m.root_factors) == [-1.0, 2.0]
    u = np.linspace(-4.0, 4.0, 41)
    assert np.max(np.abs(m.xi_of_u(u) - (0.5 + 1.5 * np.sin(u)))) < 1e-14


def test_negative_slope_linear_weight():
    bp = bp_of(c_0m=-1, c_mm=3, n=0)   # B4 = 3 - 2 xi, positive for xi < 3/2
    m = build_mapping(bp, Branch(-np.inf, 1.5, sign=1, xi0=1.0))
    assert m.closed_form == "sqrt"
    assert list(m.root_factors) == [1.5]
    # xi = 3/2 - (sqrt(1/2) - u/sqrt(2))^2 reaches the root at u = 1
    u = np.linspace(-2.0, 3.0, 11)
    want = 1.5 - (math.sqrt(0.5) - u / math.sqrt(2.0)) ** 2
    assert np.max(np.abs(m.xi_of_u(u) - want)) < 1e-14


def _positive_branches(p, q, r):
    """Intervals where B4 = p xi^2 + q xi + r > 0, between its real roots
    (found from the exact discriminant, so a double root stays one root)."""
    disc = q * q - 4 * p * r
    if p == 0:
        roots = [] if q == 0 else [float(-r / q)]
    elif disc == 0:
        roots = [float(-q / (2 * p))]
    elif disc > 0:
        roots = sorted((-float(q) + s * math.sqrt(disc)) / float(2 * p)
                       for s in (-1, 1))
    else:
        roots = []
    bounds = [-np.inf] + roots + [np.inf]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:])
            if p * _inside(lo, hi) ** 2 + q * _inside(lo, hi) + r > 0]


def _inside(lo, hi, frac=0.5):
    if np.isfinite(lo) and np.isfinite(hi):
        return lo + frac * (hi - lo)
    if np.isfinite(hi):
        return hi - 2.0 * frac
    return lo + 2.0 * frac if np.isfinite(lo) else 4.0 * frac - 2.0


@settings(max_examples=50, deadline=None)
@given(p=_RATIONAL, q=_RATIONAL, r=_RATIONAL, pick=st.integers(0, 2),
       frac=st.floats(0.1, 0.9), sign=st.sampled_from([1, -1]))
# a double root at -7/6, which float root finding splits into two
@example(p=Q(1, 4), q=Q(7, 12), r=Q(49, 144), pick=1, frac=0.5, sign=1)
@example(p=Q(1, 4), q=Q(7, 12), r=Q(49, 144), pick=0, frac=0.3, sign=-1)
@example(p=Q(0), q=Q(-1), r=Q(1), pick=0, frac=0.5, sign=-1)
@example(p=Q(0), q=Q(0), r=Q(2), pick=0, frac=0.5, sign=1)
def test_quadratic_weight_has_closed_form(p, q, r, pick, frac, sign):
    """Every B4 of degree <= 2 that is positive on its branch is mapped in
    closed form: xi(0) = xi0, a central difference of xi(u) is
    sign * sqrt(B4), and the numeric march agrees to 1e-9."""
    branches = _positive_branches(p, q, r)
    assume(branches)
    lo, hi = branches[pick % len(branches)]
    xi0 = _inside(lo, hi, frac)
    branch = Branch(lo, hi, sign=sign, xi0=xi0)
    bp = bp_of(c_00=p, c_0m=q / 2, c_mm=r, n=0)
    b4 = bp.b4

    def reach(end):
        """u from xi0 to a branch end: finite at a simple root only."""
        if not np.isfinite(end) or (p != 0 and q * q == 4 * p * r):
            return np.inf
        return abs(quad(lambda t: float(b4(t)) ** -0.5, xi0, end)[0])

    down, up = (reach(lo), reach(hi))[::sign]
    u_lo, u_hi = max(-1.0, -0.7 * down), min(1.0, 0.7 * up)

    m = build_mapping(bp, branch)
    assert m.closed_form is not None
    assert m.xi_of_u(0.0) == pytest.approx(xi0, rel=1e-12, abs=1e-12)
    u = np.linspace(u_lo, u_hi, 21)
    xi = m.xi_of_u(u)
    h = 1e-6
    num = (m.xi_of_u(u + h) - m.xi_of_u(u - h)) / (2 * h)
    want = sign * np.sqrt(b4(xi))
    assert np.max(np.abs(num - want)) < 1e-7
    march = march_map(b4, branch, (u_lo, u_hi))
    assert np.max(np.abs(march(u) - xi)) < 1e-9 * max(1.0, np.max(np.abs(xi)))


# ------------------------------------------------------------ elliptic maps

def cubic_case():
    # B4 = (1 - xi^2)(2 + xi) is cubic: no closed shape, an elliptic map
    return bp_of(c_p0=Q(-1, 2), c_00=-2, c_0m=Q(1, 2), c_mm=2, n=1)


def test_cubic_weight_is_elliptic():
    bp = cubic_case()
    m = build_mapping(bp, Branch(-1.0, 1.0, sign=1, xi0=0.0))
    assert m.closed_form == "elliptic"
    assert m.root_factors == {}
    u = np.linspace(-1.3, 0.9, 41)
    h = 1e-6
    num = (m.xi_of_u(u + h) - m.xi_of_u(u - h)) / (2 * h)
    assert np.max(np.abs(num - np.sqrt(bp.b4(m.xi_of_u(u))))) < 1e-7
    # the exact reach of the branch, from xi0 = 0 to the roots -1 and 1
    assert list(m.xi_of_u(np.array([-1.3701716332668719, 0.0]))) == [-1, 0]
    with pytest.raises(BranchError, match=r"unreachable on this branch "
                       r"\(covered \[-1.37017, 0.972669\]\)"):
        m.xi_of_u(np.array([0.0, 1.0]))
    assert np.isnan(m.xi_of_u(np.nan))
    with pytest.raises(BranchError, match="interior anchor"):
        build_mapping(bp, Branch(-1.0, 1.0, sign=1, xi0=1.0))


def test_elliptic_map_agrees_with_march():
    """MARCH_SET's branch as general mode picks it, over most of its reach."""
    bp = b_polynomials(AlgebraCoefficients.from_json_dict(MARCH_SET))
    branch = Branch(-1.0, 1.0, sign=1, xi0=0.0)
    u = np.linspace(-1.3, 0.9, 45)
    march = march_map(bp.b4, branch, (-1.3, 0.9))
    assert np.max(np.abs(build_mapping(bp, branch).xi_of_u(u) - march(u))) \
        < 1e-9


def _mp_integral(b4, a, b):
    """Int_a^b B4^(-1/2) at 30 digits, split at the real parts of B4's
    complex roots, where the integrand peaks."""
    peaks = [float(r.real) for r in np.roots(b4.float_coeffs()[::-1])]
    points = sorted({a, b} | {p for p in peaks if min(a, b) < p < max(a, b)})
    with mpmath.workdps(30):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in b4.coeffs]
        val = mpmath.quad(lambda t: 1 / mpmath.sqrt(mpmath.polyval(
            coeffs[::-1], t)), points)
    return float(val) if b >= a else -float(val)


_PAIR = st.tuples(_RATIONAL, st.fractions(Q(1, 4), 2, max_denominator=4))
_ROOT_SETS = {
    "3 real": st.tuples(_RATIONAL, _RATIONAL, _RATIONAL),
    "1 real + pair": st.tuples(_RATIONAL, _PAIR),
    "4 real": st.tuples(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL),
    "2 real + pair": st.tuples(_RATIONAL, _RATIONAL, _PAIR),
    "two pairs": st.tuples(_PAIR, _PAIR),
    "double real": st.tuples(_RATIONAL, _RATIONAL).map(lambda r: (r[0],) + r),
    "double real + 2 real": st.tuples(_RATIONAL, _RATIONAL, _RATIONAL).map(
        lambda r: (r[0],) + r),
    "double real + pair": st.tuples(_RATIONAL, _PAIR).map(
        lambda r: (r[0],) + r),
    "double pair": _PAIR.map(lambda p: (p, p)),
}


@settings(max_examples=60, deadline=None)
@given(roots=st.one_of(*_ROOT_SETS.values()),
       lead=st.sampled_from([Q(-2), Q(-1, 3), Q(1, 2), Q(3)]),
       pick=st.integers(0, 3), frac=st.floats(0.1, 0.9),
       sign=st.sampled_from([1, -1]),
       fracs=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4))
@example(roots=(Q(-1), Q(1), Q(-2)), lead=Q(-1), pick=1, frac=0.5, sign=1,
         fracs=[0.02, 0.5, 0.98])
@example(roots=((Q(0), Q(1)), (Q(0), Q(1))), lead=Q(1), pick=0, frac=0.5,
         sign=-1, fracs=[0.02, 0.98])
def test_cubic_and_quartic_weights_are_elliptic(roots, lead, pick, frac, sign,
                                                fracs):
    """B4 from rational roots in every configuration: xi(0) = xi0, a
    central difference of xi(u) is sign * sqrt(B4), and mpmath's
    Int_xi0^xi(u) B4^(-1/2) is sign * u."""
    b4 = Polynomial.of(lead)
    for r in roots:
        if isinstance(r, tuple):   # the pair p +- i q
            b4 = b4 * Polynomial.of(r[0] ** 2 + r[1] ** 2, -2 * r[0], 1)
        else:
            b4 = b4 * Polynomial.of(-r, 1)
    real = sorted({float(r) for r in roots if not isinstance(r, tuple)})
    bounds = [-np.inf] + real + [np.inf]
    branches = [(lo, hi) for lo, hi in zip(bounds, bounds[1:])
                if lo < hi and b4(Q(_inside(lo, hi))) > 0]
    assume(branches)
    lo, hi = branches[pick % len(branches)]
    xi0 = _inside(lo, hi, frac)
    b = [b4.coefficient(k) for k in range(5)]
    bp = bp_of(c_pp=b[4], c_p0=b[3] / 2, c_00=b[2], c_0m=b[1] / 2, c_mm=b[0],
               n=0)
    m = build_mapping(bp, Branch(lo, hi, sign=sign, xi0=xi0))
    assert m.closed_form == "elliptic"
    assert m.xi_of_u(0.0) == pytest.approx(xi0, rel=1e-15, abs=1e-15)
    # u at points of the branch, by mpmath, so every u is reachable
    u = np.array([sign * _mp_integral(b4, xi0, _inside(lo, hi, f))
                  for f in fracs])
    xi = m.xi_of_u(u)
    h = 1e-6
    num = (m.xi_of_u(u + h) - m.xi_of_u(u - h)) / (2 * h)
    want = sign * np.sqrt(np.asarray(b4(xi), float))
    assert np.all(np.abs(num - want) < 1e-7 * np.maximum(1.0, np.abs(want)))
    for x, target in zip(xi, u):
        assert abs(sign * _mp_integral(b4, xi0, float(x)) - target) < 1e-12


def test_negative_weight_rejected():
    bp = bp_of(c_00=-1, c_mm=-1, n=1)   # B4 = -1 - xi^2 < 0 everywhere
    with pytest.raises(BranchError):
        build_mapping(bp, Branch(-1.0, 1.0, sign=1, xi0=0.0))


def test_interior_zero_rejected():
    bp = bp_of(c_00=-1, c_mm=1, c_p=1, n=1)  # B4 = 1 - xi^2, zeros at +-1
    with pytest.raises(BranchError):
        build_mapping(bp, Branch(-2.0, 2.0, sign=1, xi0=0.0))


# -------------------------------------------------------- induced potential

def test_harmonic_potential_value_and_level_independence():
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    values = []
    for j in (0, 1, 4):
        bp, d, e, mp = entry.operator_potential_data(j)
        values.append(evaluate_potential(bp, d, mp, e, 1.0))
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[0] == pytest.approx(values[2], abs=1e-12)


@pytest.mark.parametrize("name,params,grid", [
    ("harmonic", {"omega": 2}, np.linspace(-3, 3, 60)),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, np.linspace(-2, 4, 60)),
    ("poschl-teller", {"alpha": 1, "A": 5, "B": 1}, np.linspace(0.1, 3, 60)),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, np.linspace(-3, 3, 60)),
    ("coulomb", {"e2": 2, "l": 0}, np.linspace(0.05, 20, 60)),
])
def test_potential_level_independence_all_solvable(name, params, grid):
    entry = make_entry(name, params, n=1)
    vals = []
    for j in (0, 1):
        bp, d, e, mp = entry.operator_potential_data(j)
        vals.append(np.array([evaluate_potential(bp, d, mp, e, float(t))
                              for t in grid]))
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-10 * max(
        1.0, float(np.max(np.abs(vals[0]))))


def test_qes_level_independence():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=1)
    grid = np.linspace(0.3, 2.8, 40)
    vals = []
    for j in (0, 1):
        bp, d, e, mp = entry.operator_potential_data(j)
        vals.append(np.array([evaluate_potential(bp, d, mp, e, float(t))
                              for t in grid]))
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-10


def test_periodic_potential_value_at_origin():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=0)
    bp, d, e, mp = entry.operator_potential_data(0)
    assert e == pytest.approx(-5.0 / 8.0, abs=1e-14)
    # the weight vanishes at xi = 1 but the polynomial division cancels it
    assert evaluate_potential(bp, d, mp, e, 0.0) == pytest.approx(-11.0 / 8.0,
                                                                  abs=1e-12)


def test_singular_point_error_at_weight_zero():
    entry = make_entry("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, n=1)
    bp, d, e, mp = entry.operator_potential_data(0)
    with pytest.raises(SingularPointError):
        evaluate_potential(bp, d, mp, e, 0.0)


# ------------------------------------------------------------- gauge factor

def test_harmonic_gauge_profile():
    entry = make_entry("harmonic", {"omega": 2}, n=1)
    g = build_gauge(entry.bp, entry.mapping, 0.0)
    xs = np.array([-1.5, -0.3, 0.4, 1.0, 2.0])
    ratio = g(xs) / np.exp(-xs ** 2 / 2.0)
    assert np.max(ratio) - np.min(ratio) < 1e-10


def test_trivial_gauge_is_unity():
    # B3 identically zero and B4 constant: integrand vanishes, u' = 1
    bp = bp_of(c_mm=1, n=2)
    m = build_mapping(bp, Branch(-np.inf, np.inf, sign=1, xi0=0.0))
    g = build_gauge(bp, m, 0.0)
    assert g(1.7) == pytest.approx(1.0, abs=1e-14)
    assert g(-2.4) == pytest.approx(1.0, abs=1e-14)


def test_morse_gauge_matches_closed_form():
    entry = make_entry("morse", {"alpha": 1, "A": 3, "B": 1}, n=1)
    g = build_gauge(entry.bp, entry.mapping, 0.0)
    xs = np.linspace(-1.0, 3.0, 21)
    closed = np.exp(-3.0 * xs - np.exp(-xs))
    ratio = g(xs) / closed
    assert (np.max(ratio) - np.min(ratio)) / abs(np.mean(ratio)) < 1e-8


def test_gauge_rejects_path_through_pole():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=1)
    # x = pi maps to xi = -1, a residue-1 pole of the reduced integrand: the
    # cos map reaches it at a turning point, and the gauge continues as
    # exp(cos(x)/2) cos(x/2) through x = pi; it is +1 at x0 on either side
    xs = np.array([0.5, 2.0, math.pi, 4.0, 6.0])
    for x0 in (entry.gauge_x0, 4.0):
        g = build_gauge(entry.bp, entry.mapping, x0)
        want = np.exp(0.5 * (np.cos(xs) - math.cos(x0))) * np.cos(xs / 2.0)
        want /= math.cos(x0 / 2.0)
        assert np.max(np.abs(np.asarray(g(xs)) - want)) < 1e-14
    # short of the turning point the quadrature oracle agrees
    g = build_gauge(entry.bp, entry.mapping, entry.gauge_x0)
    quad_g = quadrature_gauge(entry.bp, entry.mapping, entry.gauge_x0)
    assert np.allclose(np.asarray(g(xs[:2])), quad_g(xs[:2]), rtol=1e-10,
                       atol=0)

    # residue -1 at xi = 1 (B4 = 1 - xi^2, A2 = 1 + xi): |xi - 1|^(-1/2)
    # has no continuation through the turning point at u = pi/2, where the
    # map xi = sin(u) turns back; no sample beyond it lands on the pole
    bp = bp_of(c_00=-1, c_mm=1, c_0=1, c_m=1, n=0)
    m = build_mapping(bp, Branch(-1.0, 1.0, sign=1, xi0=0.0))
    g = build_gauge(bp, m, 0.0)
    g(np.array([0.5, 1.5]))
    for xs in ([0.5, math.pi / 2], [0.5, 2.0], [3.0]):
        with pytest.raises(SingularPointError):
            g(np.array(xs))


# B4 shapes with their branch and a safe x range, and what the reduced
# integrand's denominator holds there
GAUGE_SHAPES = [
    # 1 - xi^2 with the turning points out of range: simple real roots
    (dict(c_00=-1, c_mm=1), Branch(-1.0, 1.0, sign=-1, xi0=0.2), (-1.0, 1.0)),
    # xi^2 - 1 on xi > 1, away from the turning point: simple real roots
    (dict(c_00=1, c_mm=-1), Branch(1.0, np.inf, sign=1, xi0=1.5), (0.0, 1.5)),
    # xi^2 + 1: a complex pair
    (dict(c_00=1, c_mm=1), Branch(-np.inf, np.inf, sign=1, xi0=0.3),
     (-1.5, 1.5)),
    # 2 xi^2: a double root at 0
    (dict(c_00=2), Branch(0.0, np.inf, sign=1, xi0=1.0), (-1.0, 1.0)),
    # 2 + xi - xi^2, the cos shape about 1/2: simple real roots
    (dict(c_00=-1, c_0m=Q(1, 2), c_mm=2), Branch(-1.0, 2.0, sign=1, xi0=0.5),
     (-1.0, 1.0)),
    # (1 - xi^2)(2 + xi): simple real roots under the elliptic map
    (dict(c_p0=Q(-1, 2), c_00=-2, c_0m=Q(1, 2), c_mm=2),
     Branch(-1.0, 1.0, sign=1, xi0=0.0), (-0.8, 0.8)),
]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(GAUGE_SHAPES), c_p=_RATIONAL, c_0=_RATIONAL,
       c_m=_RATIONAL, n=st.integers(0, 4))
def test_gauge_matches_quadrature_oracle(shape, c_p, c_0, c_m, n):
    """The closed-form antiderivative against adaptive quadrature of the
    same integrand, to 1e-10 relative."""
    quadratic, branch, (lo, hi) = shape
    bp = bp_of(**quadratic, c_p=c_p, c_0=c_0, c_m=c_m, n=n)
    mapping = build_mapping(bp, branch)
    xs = np.linspace(lo, hi, 13)
    x0 = 0.5 * (lo + hi) + 0.1
    want = quadrature_gauge(bp, mapping, x0)(xs)
    got = np.asarray(build_gauge(bp, mapping, x0)(xs))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def _family_params(name, sign, negative):
    """Parameters of a QES family; negative flips alpha, beta resp. gamma."""
    flip = -1 if negative else 1
    if name.startswith("periodic"):
        return {"alpha": flip * 0.7, "beta": flip * 1.2, "a": 0.3}
    sigma = {"hyperbolic-v1": 1, "hyperbolic-v2": -1}.get(
        name, 1 if sign == "+" else -1)
    return {"gamma": flip * 0.9, "eta": -sigma * 1.5, "a": -0.2}


@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", [f for f in FAMILY_NAMES
                                  if f.startswith(("periodic", "hyperbolic"))])
def test_qes_gauge_matches_hand_written_rule(name, sign, negative):
    """Every column over the whole plot range, turning points included,
    equals the per-shape exponent-and-prefactor rule up to one constant."""
    entry = make_entry(name, _family_params(name, sign, negative), sign, 4)
    x = np.linspace(*entry.plot_range, 401)
    g = entry.gauge(x)
    for j in range(entry.n + 1):
        got = entry.closed_form_wavefunction(j)(x, g)
        want = hand_written_psi(entry, j)(x)
        k = int(np.argmax(np.abs(want)))
        scale = got[k] / want[k]
        assert np.max(np.abs(got - scale * want)) <= \
            1e-12 * np.max(np.abs(got)), f"psi_{j}"


# ------------------------------------------------------------ wavefunctions

def test_scaled_exp_overflows_to_inf():
    """Just inside the float range the value is exact; past it, +-inf
    rather than a clipped +-exp(709); below it, 0."""
    assert scaled_exp(709.5, 1.0) == math.exp(709.5)
    assert scaled_exp(800.0, -1.0) == -math.inf
    assert scaled_exp(-800.0, 1.0) == 0.0


def test_assemble_constant_polynomial():
    bp = bp_of(c_00=-1, c_mm=1, c_p=-1, c_0=-2, c_m=2, n=0)
    m = build_mapping(bp, Branch(-1.0, 1.0, sign=-1, xi0=1.0))
    psi = assemble_wavefunction(lambda x: np.ones_like(np.asarray(x, float)),
                                [1.0], m)
    assert psi(0.0) == pytest.approx(1.0)
    assert psi(2 * math.pi) == pytest.approx(1.0)


def test_assemble_periodic_family_four_ground_state():
    entry = make_entry("periodic-v4", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=0)
    psi = entry.closed_form_wavefunction(0)
    xs = np.linspace(-2.0, 2.0, 9)
    # the gauge is 1 at gauge_x0
    x0 = entry.gauge_x0
    assert np.allclose(psi(xs), np.exp(np.sin(xs / 2.0) ** 2
                                       - math.sin(x0 / 2.0) ** 2), rtol=1e-12)


def test_assemble_hyperbolic_family_three():
    entry = make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0},
                       sign="-", n=1)
    lv = entry.spectral().levels[0]
    psi = entry.closed_form_wavefunction(0)
    xs = np.linspace(-1.5, 1.5, 9)
    # the gauge is 1 at gauge_x0
    expected = (np.exp(-0.5 * (np.cosh(2 * xs) - math.cosh(2 * entry.gauge_x0)))
                * (lv.b[0] + lv.b[1] * np.cosh(2 * xs)))
    assert np.allclose(psi(xs), expected, rtol=1e-12)
