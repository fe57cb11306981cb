import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2qes.algebra import (
    AlgebraCoefficients,
    BPolynomials,
    Generator,
    Polynomial,
    apply_generator,
    apply_operator,
    b_polynomials,
    commutator,
    hamiltonian_matrix,
    hamiltonian_matrix_from_b,
    poly_gcd,
)
from sl2qes.catalog import make_entry
from sl2qes.errors import InvalidParameterError, RepresentationError

from oracles import euclid_gcd, matches_fractions, random_algebra

P = Generator.PLUS
M = Generator.MINUS
Z = Generator.ZERO

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def mono(r, c=1):
    return Polynomial.monomial(r, c)


# ---------------------------------------------------------------- generators

def test_lowering_is_differentiation():
    assert apply_generator(M, mono(2), 3) == mono(1, 2)


def test_raising_annihilates_top_monomial():
    for n in range(0, 7):
        assert apply_generator(P, mono(n), n).is_zero


def test_weight_operator_zero_at_half_filling():
    assert apply_generator(Z, mono(1), 2).is_zero


def test_rejects_polynomials_outside_representation():
    with pytest.raises(RepresentationError):
        apply_generator(M, mono(4), 3)


@pytest.mark.parametrize("n", range(0, 13))
def test_commutation_relations_exact(n):
    for r in range(n + 1):
        p = mono(r)
        assert commutator(P, M, p, n) == -2 * apply_generator(Z, p, n)
        assert commutator(Z, P, p, n) == apply_generator(P, p, n)
        assert commutator(Z, M, p, n) == -1 * apply_generator(M, p, n)
        assert commutator(P, P, p, n).is_zero


# ------------------------------------------------------------- b polynomials

def test_b_polynomials_harmonic_data():
    c = AlgebraCoefficients(c_mm=1, c_0=-2, d=Q(3), n=3)
    bp = b_polynomials(c)
    assert bp.b4 == Polynomial.of(1)
    assert bp.b3 == Polynomial.of(0, -2)
    assert bp.b2_base == Polynomial.of(3)   # n * omega / 2
    assert bp.b2(c.d) == Polynomial.of(6)   # n * omega


def test_b_polynomials_periodic_quartic():
    c = AlgebraCoefficients(c_00=-1, c_mm=1, c_p=-1, c_0=-2, c_m=2, n=1)
    bp = b_polynomials(c)
    assert bp.b4 == Polynomial.of(1, 0, -1)  # 1 - xi^2


def test_b_polynomials_free_particle_kernel():
    c = AlgebraCoefficients(c_mm=1, d=Q(0), n=5)
    bp = b_polynomials(c)
    assert bp.b4 == Polynomial.of(1)
    assert bp.b3.is_zero
    assert bp.b2_base.is_zero


@given(rationals, rationals, rationals, rationals, rationals, rationals,
       rationals, rationals, st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_b_polynomials_linear_in_coefficients(pp, p0, c00, c0m, mm, cp, c0,
                                              cm, n):
    base = dict(c_pp=pp, c_p0=p0, c_00=c00, c_0m=c0m, c_mm=mm,
                c_p=cp, c_0=c0, c_m=cm)
    if not any(base[k] != 0 for k in ("c_pp", "c_p0", "c_00", "c_0m", "c_mm")):
        base["c_mm"] = Q(1)
    other = dict(c_pp=Q(1, 2), c_p0=Q(-1), c_00=Q(2), c_0m=Q(0), c_mm=Q(3),
                 c_p=Q(1), c_0=Q(-2), c_m=Q(5, 3))
    c1 = AlgebraCoefficients(**base, d=Q(1), n=n)
    c2 = AlgebraCoefficients(**other, d=Q(-2), n=n)
    summed = AlgebraCoefficients(
        **{k: base[k] + other[k] for k in base}, d=Q(-1), n=n)
    b1, b2, bs = b_polynomials(c1), b_polynomials(c2), b_polynomials(summed)
    assert bs.b4 == b1.b4 + b2.b4
    assert bs.b3 == b1.b3 + b2.b3
    assert bs.b2(summed.d) == b1.b2(c1.d) + b2.b2(c2.d)


# ----------------------------------------------------------------- matrices

def test_harmonic_matrix_n1_is_diagonal():
    c = AlgebraCoefficients(c_mm=1, c_0=-2, d=Q(0), n=1)
    assert matches_fractions(hamiltonian_matrix(c), [[Q(-1), Q(0)],
                                                     [Q(0), Q(1)]])


def test_matrix_n0_is_minus_shift():
    c = AlgebraCoefficients(c_mm=1, c_0=-2, d=Q(5), n=0)
    # derivative terms annihilate constants and the base zeroth-order
    # coefficient carries a factor n, so only -d survives
    assert matches_fractions(hamiltonian_matrix(c), [[Q(-5)]])
    assert matches_fractions(hamiltonian_matrix(c.with_free_d()), [[Q(0)]])


def test_dual_construction_equality_random():
    rng = random.Random(20240517)
    for _ in range(60):
        c = random_algebra(rng, n_max=6)
        m1 = hamiltonian_matrix(c)
        m2 = hamiltonian_matrix_from_b(b_polynomials(c), c.d, c.n)
        assert matches_fractions(m1, m2)


def _composed_matrix(c):
    """The Hamiltonian matrix from dense generator compositions: column r is
    minus the quadratic and linear combination applied to xi^r, minus d."""
    n = c.n
    words = ((P, P, c.c_pp), (P, Z, c.c_p0), (Z, P, c.c_p0), (Z, Z, c.c_00),
             (Z, M, c.c_0m), (M, Z, c.c_0m), (M, M, c.c_mm),
             (P, c.c_p), (Z, c.c_0), (M, c.c_m))
    cols = []
    for r in range(n + 1):
        acc = Polynomial.zero()
        for *gens, coeff in words:
            img = mono(r)
            for g in reversed(gens):
                img = apply_generator(g, img, n)
            acc = acc + coeff * img
        img = -acc - c.d_or_zero * mono(r)
        assert img.degree <= n
        cols.append([img.coefficient(i) for i in range(n + 1)])
    return [list(row) for row in zip(*cols)] if cols else []


@given(rationals, rationals, rationals, rationals, rationals, rationals,
       rationals, rationals, st.one_of(st.none(), rationals),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_matrix_matches_dense_composition(pp, p0, c00, c0m, mm, cp, c0, cm,
                                          d, n):
    if not any((pp, p0, c00, c0m, mm)):
        mm = Q(1)
    c = AlgebraCoefficients(c_pp=pp, c_p0=p0, c_00=c00, c_0m=c0m, c_mm=mm,
                            c_p=cp, c_0=c0, c_m=cm, d=d, n=n)
    reference = _composed_matrix(c)
    assert matches_fractions(hamiltonian_matrix(c), reference)
    assert hamiltonian_matrix_from_b(b_polynomials(c), c.d_or_zero, n) == \
        reference


def _qes_algebra(name, sign, n):
    if name.startswith("periodic"):
        params = {"alpha": Q(3, 2), "beta": 1, "a": Q(1, 3)}
    else:   # eta of the sign that every hyperbolic family's predicate needs
        sigma = {"hyperbolic-v1": 1, "hyperbolic-v2": -1}.get(
            name, 1 if sign == "+" else -1)
        params = {"gamma": Q(1, 2), "eta": -2 * sigma, "a": 0}
    return make_entry(name, params, sign=sign, n=n).algebra


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", [f"{shape}-v{i}" for shape in
                                  ("periodic", "hyperbolic")
                                  for i in range(1, 5)])
def test_dual_construction_qes_families_n160(name, sign):
    c = _qes_algebra(name, sign, 160)
    m, _ = assembled = hamiltonian_matrix(c)
    assert matches_fractions(assembled,
                             hamiltonian_matrix_from_b(b_polynomials(c), 0,
                                                       160))
    # banded in the monomial basis: one diagonal below, two above
    assert all(m[i][r] == 0 for r in range(161) for i in range(161)
               if not -2 <= i - r <= 1)


@pytest.mark.parametrize("name, sign", [("periodic-v1", "+"),
                                        ("hyperbolic-v3", "-")])
def test_dual_construction_n1000(name, sign):
    c = _qes_algebra(name, sign, 1000)
    assert matches_fractions(hamiltonian_matrix(c),
                             hamiltonian_matrix_from_b(b_polynomials(c), 0,
                                                       1000))


def test_b_route_rejects_leakage_above_degree_n():
    bp = b_polynomials(AlgebraCoefficients(c_mm=1, n=2))
    leaky = BPolynomials(b4=Polynomial.of(0, 0, 0, 1), b3=bp.b3,
                         b2_base=bp.b2_base, a2=bp.a2)
    with pytest.raises(RepresentationError, match="leakage at degree 3"):
        hamiltonian_matrix_from_b(leaky, 0, 2)


def test_composition_route_rejects_leaving_p_n(monkeypatch):
    from sl2qes import algebra

    def no_kill(g, r, n):   # T+ without the (r - n) factor that kills xi^n
        return (r + 1, 1) if g is P else monomial_image(g, r, n)

    monomial_image = algebra._monomial_image
    monkeypatch.setattr(algebra, "_monomial_image", no_kill)
    with pytest.raises(RepresentationError, match="left P_n"):
        hamiltonian_matrix(AlgebraCoefficients(c_pp=1, n=2))


@given(st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_representation_space_closure(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    c = random_algebra(rng, n_max=0)
    c = AlgebraCoefficients(
        c_pp=c.c_pp, c_p0=c.c_p0, c_00=c.c_00, c_0m=c.c_0m, c_mm=c.c_mm,
        c_p=c.c_p, c_0=c.c_0, c_m=c.c_m, d=c.d, n=n)
    bp = b_polynomials(c)
    for r in range(n + 1):
        img_gen = apply_generator(P, apply_generator(P, mono(r), n), n)
        assert img_gen.degree <= n
        img_op = apply_operator(bp, c.d, mono(r))
        assert img_op.degree <= n, "coefficient leakage above degree n"


# ------------------------------------------------------------- housekeeping

def test_json_round_trip():
    c = AlgebraCoefficients(c_pp=Q(1, 3), c_00=Q(-2), c_mm=Q(5), c_0=Q(7, 2),
                            d=None, n=4)
    data = c.to_json_dict()
    assert data["d"] == "free"
    assert data["C+0"] == "0"
    assert AlgebraCoefficients.from_json_dict(data) == c
    c2 = AlgebraCoefficients(c_mm=1, d=Q(-3, 4), n=1)
    assert AlgebraCoefficients.from_json_dict(c2.to_json_dict()) == c2


def test_coefficients_require_a_quadratic_term():
    with pytest.raises(InvalidParameterError):
        AlgebraCoefficients(c_p=1, n=2)


@given(st.lists(rationals, min_size=1, max_size=9),
       st.lists(st.floats(-20, 20), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_float_evaluation_matches_polyval_bits(coeffs, points):
    """The float Horner pass keeps np.polyval's operation order, so every
    value has the same bits; the zero polynomial is left out, because
    0.0 * x keeps the sign of a negative x where np.polyval starts at +0."""
    p = Polynomial.of(*coeffs)
    assume(not p.is_zero)
    desc = p.float_coeffs()[::-1]

    def bits(value):
        return np.asarray(value, np.float64).tobytes()

    for t in points + [0.0, -0.0, -1.5]:
        assert bits(p(t)) == bits(np.polyval(desc, t))
        assert bits(p(np.float64(t))) == bits(np.polyval(desc, np.float64(t)))
    xs = np.array(points)
    assert bits(p(xs)) == bits(np.polyval(desc, xs))


def test_polynomial_division_and_gcd():
    a = Polynomial.of(-1, 0, 1)          # xi^2 - 1
    b = Polynomial.of(1, 1)              # xi + 1
    q, r = divmod(a, b)
    assert r.is_zero and q == Polynomial.of(-1, 1)
    g = poly_gcd(a, Polynomial.of(2, 2))
    assert g == Polynomial.of(1, 1)
    assert poly_gcd(a, Polynomial.of(5)).degree == 0


_polys = st.lists(rationals, max_size=5).map(lambda cs: Polynomial.of(*cs))


@given(st.lists(rationals, max_size=2), _polys, _polys, st.booleans())
@settings(max_examples=300)
def test_gcd_with_a_linear_or_constant_is_euclids(small, other, factor,
                                                  swap):
    """A nonzero argument of degree <= 1 decides poly_gcd by one exact
    evaluation; it agrees with Euclid, also where it divides the other."""
    small = Polynomial.of(*small)
    for big in (other, other * small, small * factor):
        a, b = (big, small) if swap else (small, big)
        assert poly_gcd(a, b) == euclid_gcd(a, b)
