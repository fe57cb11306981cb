import math
import random
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl2qes.algebra import AlgebraCoefficients, hamiltonian_matrix
from sl2qes.catalog import make_entry
from sl2qes import spectral
from sl2qes.spectral import (
    NonRealSpectrumWarning,
    _band_matrix,
    _bandwidths,
    _every_pivot_zero,
    _refine,
    _shifted_solve,
    compose_energies,
    sector_ode_residual,
    solve_algebraic_sector,
)

from oracles import char_roots, fraction_matrix, random_algebra


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
        roots = char_roots(fraction_matrix(hamiltonian_matrix(c)))
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


QES_FAMILIES = (
    [(f"periodic-v{v}", {"alpha": 1.5, "beta": -0.75, "a": 0.25})
     for v in range(1, 5)]
    + [(f"hyperbolic-v{v}", {"gamma": 0.8, "eta": eta, "a": -0.5})
       for v, eta in ((1, -1.25), (2, 1.25), (3, -1.25), (4, -1.25))])


def test_level_count_and_eigen_residual():
    """One inverse-iteration step brings every real level's residual
    within 1e-10 of the matrix's inf-norm: random data up to n = 40 and
    the eight QES families up to n = 160."""
    rng = random.Random(99)
    sectors = [random_algebra(rng, n_max=5).with_free_d() for _ in range(15)]
    sectors += [random_algebra(rng, n_max=40).with_free_d()
                for _ in range(60)]
    sectors += [make_entry(name, params, "+", n).algebra
                for name, params in QES_FAMILIES for n in (20, 80, 160)]
    for c in sectors:
        m = np.array([[float(v) for v in row]
                      for row in fraction_matrix(hamiltonian_matrix(c))])
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


def _bits(m):
    return np.asarray(m, np.float64).view(np.uint64)


def test_band_holds_the_whole_sector_matrix():
    """Every entry off the band of 2 diagonals below and 2 above is exactly
    zero, so converting the band gives the dense float matrix, bit for
    bit."""
    rng = random.Random(7)
    for _ in range(40):
        c = random_algebra(rng, n_max=12).with_free_d()
        assembled = hamiltonian_matrix(c)
        dense = [[float(v) for v in row] for row in fraction_matrix(assembled)]
        assert np.array_equal(_bits(_band_matrix(*assembled)), _bits(dense))


def _dense_refine(m, lam, v):
    """The per-level rule: a dense solve, the start vector where its LU
    meets a zero pivot, and the vector with the smaller residual."""
    def res(vec):
        return float(np.max(np.abs(m @ vec - lam * vec)))

    a = m - lam * np.eye(m.shape[0])
    try:
        w = np.linalg.solve(a, v)
    except np.linalg.LinAlgError:
        return v
    if not np.all(np.isfinite(w)) or np.max(np.abs(w)) == 0.0:
        return v
    w = w / np.max(np.abs(w))
    return w if res(w) < res(v) else v


def _random_band(rng, size, kl, ku):
    m = np.zeros((size, size))
    for k in range(-kl, ku + 1):
        rows = np.arange(max(0, -k), min(size, size - k))
        m[rows, rows + k] = rng.uniform(-2.0, 2.0, rows.size)
    return m


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 40), kl=st.integers(0, 2), ku=st.integers(0, 2),
       count=st.integers(1, 6), on_diagonal=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_banded_shifted_solve_matches_dense_solve(size, kl, ku, count,
                                                  on_diagonal, seed):
    """The batched band LU agrees with np.linalg.solve on every system; an
    upper-triangular matrix shifted by its own diagonal entries meets an
    exactly zero pivot and keeps its start vector, as the dense route does."""
    rng = np.random.default_rng(seed)
    m = _random_band(rng, size, kl, ku)
    assert _bandwidths(m) == (min(kl, size - 1), min(ku, size - 1))
    kl, ku = _bandwidths(m)
    rhs = rng.standard_normal((count, size))
    if on_diagonal and kl == 0:
        lam = m.diagonal()[rng.integers(0, size, count)]
        w, zero = _shifted_solve(m, kl, ku, lam, rhs)
        assert zero.all()
        out = _refine(m, kl, ku, lam, rhs)
        for i in range(count):
            assert np.array_equal(out[i], _dense_refine(m, lam[i], rhs[i]))
        return
    lam = rng.uniform(-3.0, 3.0, count)
    w, zero = _shifted_solve(m, kl, ku, lam, rhs)
    assert not zero.any()
    for i in range(count):
        a = m - lam[i] * np.eye(size)
        want = np.linalg.solve(a, rhs[i])
        bound = 1e-12 * np.linalg.cond(a, np.inf) * np.max(np.abs(want))
        assert np.max(np.abs(w[i] - want)) <= bound


def test_zero_pivot_keeps_the_levels_own_vector():
    """Least squares on m - lam I lands in its row space, orthogonal to the
    level's null vector: here on (0, -1), the vector of the other level,
    whose residual 1 beats the start vector's 1.3."""
    start = np.array([[0.33, -1.30]])
    out = _refine(np.diag([1.0, 2.0]), 0, 0, np.array([1.0]), start)
    assert np.array_equal(out, start)


def test_banded_solve_pivots_past_a_zero_diagonal():
    # without the row swap the first pivot would be 0
    m = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [0.0, 4.0, 0.0]])
    rhs = np.array([[1.0, 2.0, 3.0]])
    w, zero = _shifted_solve(m, 1, 2, np.zeros(1), rhs)
    assert not zero.any()
    assert np.allclose(w[0], np.linalg.solve(m, rhs[0]), rtol=1e-14)


# ------------------------------------------------------------ the refine skip

_ES_DEFAULTS = (
    ("harmonic", {"omega": 2}),
    ("morse", {"alpha": 1, "A": 3, "B": 1}),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}),
    ("coulomb", {"e2": 2, "l": 0}),
)


def _levels_bits(result):
    return [(lv.d, lv.b.tobytes(), lv.imag_residual) for lv in result.levels]


def _triangular_sectors():
    for family, params in _ES_DEFAULTS:
        for n in (0, 2, 5):
            yield pytest.param(make_entry(family, params, n=n).algebra,
                               id=f"{family}-n{n}")
    # the general-numeric benchmark's shapes: no raising term
    for n in (2, 4, 8):
        for c0m, cmm in (("1/4", "3/2"), ("-1/3", "5/2")):
            yield pytest.param(AlgebraCoefficients.from_json_dict(
                {"C00": "-1", "C0-": c0m, "C--": cmm, "C0": "-1/2",
                 "C-": "1/4", "n": n}), id=f"general-n{n}-{c0m}-{cmm}")


@pytest.mark.parametrize("coeffs", list(_triangular_sectors()))
def test_refine_skip_keeps_every_bit(monkeypatch, coeffs):
    """Exactly solvable and general-numeric sectors skip _refine, and
    running it anyway changes no bit of the result."""
    coeffs = coeffs.with_free_d()
    m = _band_matrix(*hamiltonian_matrix(coeffs))
    kl, _ = _bandwidths(m)
    assert _every_pivot_zero(m, kl, np.linalg.eig(m)[0].real)
    got = _levels_bits(solve_algebraic_sector(coeffs))
    monkeypatch.setattr(spectral, "_every_pivot_zero", lambda *args: False)
    assert _levels_bits(solve_algebraic_sector(coeffs)) == got


@pytest.mark.parametrize("coeffs", [
    # tridiagonal: T+ raises by one, T- lowers by one
    AlgebraCoefficients(c_00=-1, c_p=1, c_0=Q(1, 2), c_m=-2, n=6),
    # lower triangular: raising terms only
    AlgebraCoefficients(c_pp=1, c_p0=Q(1, 3), c_00=-1, c_p=2, c_0=1, n=6),
    periodic_v1_algebra(5),
], ids=["tridiagonal", "lower-triangular", "periodic-v1"])
def test_sectors_with_a_subdiagonal_still_refine(monkeypatch, coeffs):
    calls = []
    refine = spectral._refine

    def counted(*args):
        calls.append(args[1:3])
        return refine(*args)

    monkeypatch.setattr(spectral, "_refine", counted)
    solve_algebraic_sector(coeffs)
    assert len(calls) == 1 and calls[0][0] > 0


# ------------------------------------------------ the band and level order

def _coefficient_sets():
    """This module's coefficient sets: random data, the eight QES families
    at n = 20, 80 and 160, the triangular sectors and the refined ones."""
    rng = random.Random(99)
    sets = [random_algebra(rng, n_max=40).with_free_d() for _ in range(30)]
    sets += [make_entry(name, params, "+", n).algebra
             for name, params in QES_FAMILIES for n in (20, 80, 160)]
    sets += [p.values[0].with_free_d() for p in _triangular_sectors()]
    sets += [AlgebraCoefficients(c_00=-1, c_p=1, c_0=Q(1, 2), c_m=-2, n=6),
             AlgebraCoefficients(c_pp=1, c_p0=Q(1, 3), c_00=-1, c_p=2, c_0=1,
                                 n=6),
             periodic_v1_algebra(5, Q(-2), Q(1, 3), -1)]
    # a third beside binary floats: numerators past 2^53 over a den that
    # is no power of two, where float(num) / float(den) rounds twice
    sets += [make_entry(name, params, "+", 160).algebra for name, params in (
        ("periodic-v1", {"alpha": "1/3", "beta": 0.9, "a": 0.1}),
        ("hyperbolic-v3", {"gamma": 0.8, "eta": "-1/3", "a": 0.0}))]
    return sets


def test_band_is_the_float_of_each_exact_fraction():
    """Each band entry num / den is float(Fraction(num, den)) bit for bit,
    signed zeros included; every other entry is +0.0."""
    for c in _coefficient_sets():
        num, den = hamiltonian_matrix(c)
        size = len(num)
        want = np.zeros((size, size))
        for i in range(size):
            for r in range(max(0, i - 2), min(size, i + 3)):
                want[i, r] = float(Q(num[i][r], den))
        assert np.array_equal(_bits(_band_matrix(num, den)), _bits(want))


_KEYS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_KEYS, st.lists(_KEYS, min_size=3, max_size=3)),
                max_size=12))
def test_order_is_the_tuple_sort(draws):
    """Ties in the key, -0.0 against 0.0 and rows equal in full keep the
    order of a stable sort on (key, row.tolist())."""
    keys = np.array([k for k, _ in draws], float)
    rows = np.array([row for _, row in draws], float).reshape(len(draws), 3)
    want = sorted(range(len(draws)),
                  key=lambda i: (keys[i], rows[i].tolist()))
    assert spectral._order(keys, rows) == want


def test_tied_shifts_keep_the_tuple_order():
    # the diagonal sector -(r - 2)^2 has d = -4 and d = -1 twice each, on
    # the unit vectors: b orders the tied pairs against their index order
    res = solve_algebraic_sector(AlgebraCoefficients(c_00=1, n=4))
    assert [lv.d for lv in res.levels] == [-4.0, -4.0, -1.0, -1.0, 0.0]
    assert [int(np.argmax(lv.b)) for lv in res.levels] == [4, 0, 3, 1, 2]
    keys = [(lv.d, lv.b.tolist()) for lv in res.levels]
    assert keys == sorted(keys)


def test_energies_tied_by_the_offset_keep_the_tuple_order():
    # d = 0 and 1e-17 differ, but 1 + d does not: b orders that pair
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    raw = spectral.SpectralResult([
        spectral.Level(d=d, b=b, imag_residual=0.0)
        for d, b in zip((0.0, 1e-17, 2.0), rows)])
    composed = compose_energies(raw, 1.0)
    assert [lv.E for lv in composed.levels] == [1.0, 1.0, 3.0]
    assert [lv.d for lv in composed.levels] == [1e-17, 0.0, 2.0]
    assert [lv.b.tolist() for lv in composed.levels] == [[0.0, 1.0],
                                                         [1.0, 0.0],
                                                         [1.0, 1.0]]
    # the levels share their b with the raw result's
    assert all(lv.b is raw.levels[i].b
               for lv, i in zip(composed.levels, (1, 0, 2)))


def test_level_vectors_are_shared_and_read_only():
    entry = make_entry("periodic-v1", {"alpha": 1.5, "beta": -0.75, "a": 0.25},
                       "+", 20)
    raw = solve_algebraic_sector(entry.algebra)
    composed = compose_energies(raw, entry.energy_offset)
    for lv in raw.levels + composed.levels + entry.spectral().levels:
        with pytest.raises(ValueError, match="read-only"):
            lv.b[0] = 2.0
    assert {id(lv.b.base) for lv in raw.levels + composed.levels} == {
        id(raw.levels[0].b.base)}
