import math
import random
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

from sl2qes.algebra import AlgebraCoefficients
from sl2qes.catalog import make_entry
from sl2qes.spectral import (
    NonRealSpectrumWarning,
    compose_energies,
    sector_ode_residual,
    solve_algebraic_sector,
)

from oracles import char_roots, random_algebra


def periodic_v1_algebra(n, alpha=Q(1), beta=Q(1), sign=1):
    return AlgebraCoefficients(
        c_00=-beta * beta, c_mm=beta * beta,
        c_p=-alpha, c_0=-(n + 1) * beta * beta, c_m=sign * beta * beta + alpha,
        d=None, n=n)


def test_anchor_case_vanishes_exactly():
    for alpha, beta in ((Q(1), Q(1)), (Q(3), Q(2)), (Q(-2), Q(1, 2))):
        res = solve_algebraic_sector(periodic_v1_algebra(0, alpha, beta))
        assert len(res.levels) == 1
        assert abs(res.levels[0].d) <= 1e-14
        assert res.levels[0].b == pytest.approx([1.0])


def test_harmonic_free_shift_pair():
    c = AlgebraCoefficients(c_mm=1, c_0=-2, d=None, n=1)
    res = solve_algebraic_sector(c)
    assert [lv.d for lv in res.levels] == pytest.approx([-1.0, 1.0], abs=1e-13)


def test_periodic_v1_n1_matches_exact_characteristic_roots():
    res = solve_algebraic_sector(periodic_v1_algebra(1))
    expected = sorted((0.25 - math.sqrt(3.0), 0.25 + math.sqrt(3.0)))
    assert [lv.d for lv in res.levels] == pytest.approx(expected, abs=1e-12)


def test_requires_free_shift():
    c = AlgebraCoefficients(c_mm=1, c_0=-2, d=Q(1), n=1)
    with pytest.raises(ValueError):
        solve_algebraic_sector(c)


def test_against_exact_characteristic_polynomial():
    from sl2qes.algebra import hamiltonian_matrix

    rng = random.Random(411)
    checked = 0
    while checked < 30:
        c = random_algebra(rng, n_max=4).with_free_d()
        roots = char_roots(hamiltonian_matrix(c))
        if max(abs(r.imag) for r in roots) > 1e-20:
            # complex pair: the solver must warn, not hide it
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                solve_algebraic_sector(c)
            assert any(issubclass(w.category, NonRealSpectrumWarning)
                       for w in log)
            continue
        res = solve_algebraic_sector(c)
        got = sorted(lv.d for lv in res.levels)
        want = sorted(r.real for r in roots)
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9
        checked += 1


def test_level_count_and_eigen_residual():
    rng = random.Random(99)
    for _ in range(15):
        c = random_algebra(rng, n_max=5).with_free_d()
        from sl2qes.algebra import hamiltonian_matrix
        m = np.array([[float(v) for v in row] for row in hamiltonian_matrix(c)])
        scale = max(np.linalg.norm(m, np.inf), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonRealSpectrumWarning)
            res = solve_algebraic_sector(c)
        assert len(res.levels) == c.n + 1
        for lv in res.levels:
            if lv.imag_residual > 1e-9 * (1 + abs(lv.d)):
                continue
            assert np.max(np.abs(m @ lv.b - lv.d * lv.b)) <= 1e-10 * scale


def test_polynomial_equation_residual_for_catalog_entries():
    cases = [
        make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 2),
        make_entry("periodic-v3", {"alpha": 2, "beta": 1, "a": 0}, "-", 3),
        make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 2),
        make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 3),
    ]
    for entry in cases:
        res = solve_algebraic_sector(entry.algebra)
        for lv in res.levels:
            assert sector_ode_residual(entry.bp, lv.d, lv.b) < 1e-9


def test_vector_normalization_convention():
    res = solve_algebraic_sector(periodic_v1_algebra(3))
    for lv in res.levels:
        assert np.max(np.abs(lv.b)) == pytest.approx(1.0, abs=1e-12)
        first = next(v for v in lv.b if abs(v) > 1e-12)
        assert first > 0


def test_compose_energies():
    res = solve_algebraic_sector(periodic_v1_algebra(0))
    same = compose_energies(res, 0.0)
    assert same.levels[0].E == pytest.approx(same.levels[0].d, abs=1e-15)

    # family-1 offset at n=0, upper branch: -1/8 - 1/2
    shifted = compose_energies(res, -1.0 / 8.0 - 1.0 / 2.0)
    assert shifted.levels[0].E == pytest.approx(-5.0 / 8.0, abs=1e-14)

    h3 = make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1)
    raw = solve_algebraic_sector(h3.algebra)
    composed = compose_energies(raw, -1.0)
    for lv_raw, lv in zip(raw.levels, composed.levels):
        assert lv.E == pytest.approx(-1.0 + lv_raw.d, abs=1e-13)


def test_energies_sorted_ascending():
    res = compose_energies(solve_algebraic_sector(periodic_v1_algebra(4)), 2.5)
    energies = [lv.E for lv in res.levels]
    assert energies == sorted(energies)
