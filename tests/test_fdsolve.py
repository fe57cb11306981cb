import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2qes.catalog import make_entry
from sl2qes.errors import GridError
from sl2qes.fdsolve import (SQRT_STRETCH, Grid, _ring_matrix, band_edges,
                            count_nodes, fd_eigensolve)
from sl2qes.pipeline import verification_report

from oracles import fd_vectors, residual


def flat(x):
    return np.zeros_like(np.asarray(x, float))


def test_grid_invariants():
    g = Grid(-1.0, 1.0, 21)
    assert g.h == pytest.approx(0.1)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 8)
    with pytest.raises(GridError):
        Grid(1.0, 0.0, 50)


def test_harmonic_spectrum_and_nodes():
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    grid = Grid(-10, 10, 2001)
    spec = fd_eigensolve(entry.potential, grid, k=4, refine=False)
    assert np.allclose(spec.eigenvalues, [1, 3, 5, 7], atol=1e-3)
    _, vecs = fd_vectors(entry.potential, grid, 4)
    for j in range(4):
        assert count_nodes(vecs[:, j]) == j


def test_particle_in_a_box():
    grid = Grid(0.0, math.pi, 1001)
    spec = fd_eigensolve(flat, grid, k=2, refine=False)
    assert np.allclose(spec.eigenvalues, [1.0, 4.0], atol=5e-5)
    # Sturm oscillation
    _, vecs = fd_vectors(flat, grid, 2)
    for j in range(2):
        assert count_nodes(vecs[:, j]) == j


def test_eigenvector_residual_bound():
    entry = make_entry("harmonic", {"omega": 2}, n=0)
    grid = Grid(-10, 10, 1201)
    w, vecs = fd_vectors(entry.potential, grid, 3)
    assert np.array_equal(
        w, fd_eigensolve(entry.potential, grid, k=3, refine=False).eigenvalues)
    h2 = grid.h ** 2
    x = grid.nodes[1:-1]
    v = entry.potential(x)
    scale = np.max(2.0 / h2 + np.abs(v))
    for j in range(3):
        vec = vecs[1:-1, j]
        hv = (-np.concatenate([[0.0], vec[:-1]])
              + 2.0 * vec
              - np.concatenate([vec[1:], [0.0]])) / h2 + v * vec
        assert np.max(np.abs(hv - w[j] * vec)) <= 1e-8 * scale


def test_convergence_order_second():
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    exact = np.array([1.0, 3.0, 5.0, 7.0])
    coarse = fd_eigensolve(entry.potential, Grid(-10, 10, 1001), k=4,
                           refine=False).eigenvalues
    fine = fd_eigensolve(entry.potential, Grid(-10, 10, 2001), k=4,
                         refine=False).eigenvalues
    ratio = np.abs(coarse - exact) / np.abs(fine - exact)
    assert np.all(ratio > 3.6) and np.all(ratio < 4.4)


def test_richardson_estimate_tracks_error():
    entry = make_entry("harmonic", {"omega": 2}, n=0)
    spec = fd_eigensolve(entry.potential, Grid(-10, 10, 1001), k=2,
                         refine=True)
    true_err = abs(spec.eigenvalues[0] - 1.0)
    assert spec.convergence_estimate[0] == pytest.approx(true_err, rel=0.2)


def test_free_particle_band_edges():
    edges = band_edges(flat, 2 * math.pi, count=3, points=801)
    energies = [e.energy for e in edges]
    parities = [e.parity for e in edges]
    assert energies[0] == pytest.approx(0.0, abs=1e-9)
    assert parities[0] == "periodic"
    assert energies[1] == pytest.approx(0.25, abs=1e-4)
    assert energies[2] == pytest.approx(0.25, abs=1e-4)
    assert parities[1] == parities[2] == "antiperiodic"
    assert energies[3] == pytest.approx(1.0, abs=1e-3)


def test_periodic_v1_lowest_edge():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=0)
    edges = band_edges(entry.potential, entry.period, count=4, points=801)
    best = min(abs(e.energy - (-5.0 / 8.0)) for e in edges)
    assert best < 1e-3


@pytest.mark.parametrize("name,sign", [
    ("periodic-v1", "+"), ("periodic-v2", "-"),
    ("periodic-v3", "+"), ("periodic-v4", "-"),
])
def test_band_edge_interlacing(name, sign):
    entry = make_entry(name, {"alpha": 1, "beta": 1, "a": 0}, sign=sign, n=1)
    edges = band_edges(entry.potential, entry.period, count=4, points=601)
    pattern = "".join("p" if e.parity == "periodic" else "a"
                      for e in edges[:7])
    assert pattern == "paappaa"


def test_count_nodes_examples():
    xs = np.linspace(0, 1.5 * math.pi, 400)
    assert count_nodes(np.sin(xs)) == 1
    assert count_nodes(np.ones(50)) == 0
    noisy = np.concatenate([np.full(20, 1.0), np.full(3, 1e-14),
                            np.full(20, 1.0)])
    assert count_nodes(noisy) == 0


@given(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=2,
                max_size=60),
       st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_count_nodes_ignores_near_zero_samples(signs, insertions):
    base = count_nodes(signs)
    padded = list(signs)
    rng = np.random.default_rng(insertions)
    for _ in range(insertions):
        pos = int(rng.integers(0, len(padded) + 1))
        padded.insert(pos, 1e-13)
    assert count_nodes(padded) == base


def test_residual_values():
    entry = make_entry("harmonic", {"omega": 2}, n=0)
    psi = entry.closed_form_wavefunction(0)
    grid = Grid(-8, 8, 4001)
    assert residual(entry.potential, psi, 1.0, grid) <= 1e-6
    assert residual(entry.potential, psi, 2.0, grid) >= 0.5

    p4 = make_entry("periodic-v4", {"alpha": 1, "beta": 1, "a": 0},
                    sign="+", n=0)
    psi4 = p4.closed_form_wavefunction(0)
    e4 = p4.closed_form_energy(0)
    grid4 = Grid(0.01, 2 * math.pi - 0.01, 4001)
    assert residual(p4.potential, psi4, e4, grid4) <= 1e-6


def test_grid_errors():
    entry = make_entry("harmonic", {"omega": 2}, n=0)
    with pytest.raises(GridError):
        fd_eigensolve(entry.potential, Grid(-1, 1, 16), k=20, refine=False)

    def bad(x):
        x = np.asarray(x, float)
        return np.where(x > 0, np.inf, 0.0)

    with pytest.raises(GridError):
        fd_eigensolve(bad, Grid(-1, 1, 64), k=2, refine=False)


# ---------------------------------------------------------------------------
# Dirichlet solves on a grid uniform in u = 2 sqrt(x)

HYDROGEN = make_entry("coulomb", {"e2": 2, "l": 0}, n=3)
HYDROGEN_E = -1.0 / np.arange(1, 5) ** 2


def test_stretched_grid_nodes():
    grid = Grid(0.0, 4.0, 21, SQRT_STRETCH)
    u = np.linspace(0.0, 4.0, 21)
    assert np.array_equal(grid.u_nodes, u)
    assert grid.h == pytest.approx(0.2)
    assert np.allclose(grid.nodes, u * u / 4.0)
    assert grid.refined() == Grid(0.0, 4.0, 41, SQRT_STRETCH)
    with pytest.raises(GridError, match="x_min >= 0"):
        Grid(-1.0, 4.0, 21, SQRT_STRETCH)
    with pytest.raises(GridError, match="unknown grid stretch"):
        Grid(0.0, 4.0, 21, "log")


def test_hydrogen_on_stretched_grid_converges_at_second_order():
    errors = []
    for points in (801, 1601):
        spec = fd_eigensolve(HYDROGEN.potential,
                             Grid(0.0, 200.0, points, SQRT_STRETCH), k=4,
                             refine=False)
        errors.append(np.abs(spec.eigenvalues - HYDROGEN_E))
    assert np.all(errors[0] / errors[1] > 3.5)


def test_stretched_eigenvectors_are_psi_on_the_x_nodes():
    grid = Grid(0.0, 200.0, 1601, SQRT_STRETCH)
    _, vecs = fd_vectors(HYDROGEN.potential, grid, 4)
    for j in range(4):
        assert count_nodes(vecs[:, j]) == j
    # psi_0 = x exp(-x), max-norm 1
    x = grid.nodes
    psi0 = vecs[:, 0] * np.sign(vecs[1, 0])
    assert np.max(np.abs(psi0 - x * np.exp(-x) / np.exp(-1.0))) < 1e-4


def test_stretched_grid_is_dirichlet_only():
    grid = Grid(0.0, 4.0, 64, SQRT_STRETCH)
    for bc in ("periodic", "antiperiodic"):
        with pytest.raises(GridError, match="grid uniform in x"):
            fd_eigensolve(flat, grid, bc=bc, k=2, refine=False)


def test_residual_needs_a_plain_grid():
    entry = make_entry("harmonic", {"omega": 2}, n=0)
    psi = entry.closed_form_wavefunction(0)
    with pytest.raises(GridError, match="grid uniform in x"):
        residual(entry.potential, psi, 1.0,
                 Grid(0.0, 8.0, 401, SQRT_STRETCH))


# ---------------------------------------------------------------------------
# periodic and antiperiodic solves against a dense reference built here

def _dense_cyclic(potential, grid, bc):
    """The cyclic FD matrix as a dense array; small grids only."""
    x = grid.nodes[:-1]
    m = len(x)
    inv_h2 = 1.0 / grid.h ** 2
    ham = (np.diag(2.0 * inv_h2 + potential(x))
           - inv_h2 * (np.eye(m, k=1) + np.eye(m, k=-1)))
    corner = -inv_h2 if bc == "periodic" else inv_h2
    ham[0, m - 1] += corner
    ham[m - 1, 0] += corner
    return ham


_PERIODIC_ENTRIES = [
    make_entry(name, {"alpha": 1, "beta": 1, "a": 0}, sign=sign, n=1)
    for name in ("periodic-v1", "periodic-v2", "periodic-v3", "periodic-v4")
    for sign in "+-"
]


_CYCLIC_POTENTIALS = [("flat", flat, 2 * math.pi)] + [
    (f"{e.name}{'+' if e.sign > 0 else '-'}", e.potential, e.period)
    for e in _PERIODIC_ENTRIES]
# cell nodes of the solved grid: both parities (an odd ring's middle mirror
# pair sits between nodes, an even ring's on node m / 2) and one ring above
# 512; its refine grid has twice as many
_RING_SIZES = (200, 256, 512, 513)


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
@pytest.mark.parametrize(
    "potential,x0,period,m",
    [(potential, 0.0, period, m)
     for m in _RING_SIZES for _, potential, period in _CYCLIC_POTENTIALS],
    ids=[name if m == 200 else f"{name}-m{m}"
         for m in _RING_SIZES for name, _, _ in _CYCLIC_POTENTIALS])
def test_cyclic_solve_matches_dense_reference(potential, x0, period, m, bc):
    k = 8
    grid = Grid(x0, x0 + period, m + 1)
    spec = fd_eigensolve(potential, grid, bc=bc, k=k)
    w = np.linalg.eigvalsh(_dense_cyclic(potential, grid, bc))[:k]
    w_fine = np.linalg.eigvalsh(_dense_cyclic(potential, grid.refined(),
                                              bc))[:k]
    assert np.max(np.abs(spec.eigenvalues - w)) <= 1e-9
    assert np.max(np.abs(spec.convergence_estimate
                         - np.abs(w - w_fine) * (4.0 / 3.0))) <= 4e-9


def test_free_particle_degenerate_pairs():
    # periodic: 0, then cos/sin pairs at j^2; antiperiodic: pairs at
    # (j + 1/2)^2; the FD values are (4/h^2) sin^2(theta h / 2) exactly
    count = 7
    points = 801
    h = 2 * math.pi / (points - 1)
    edges = band_edges(flat, 2 * math.pi, count=count, points=points)
    thetas = [(0.0, "periodic")]
    for j in range(1, 4):
        thetas += [(j - 0.5, "antiperiodic")] * 2 + [(j, "periodic")] * 2
    thetas += [(3.5, "antiperiodic")]
    fd = [4.0 / h ** 2 * math.sin(t * h / 2) ** 2 for t, _ in thetas]
    assert len(edges) == 2 * count == len(thetas)
    for edge, exact, (_, parity) in zip(edges, fd, thetas):
        assert edge.energy == pytest.approx(exact, abs=1e-8)
        assert edge.parity == parity


def test_band_edges_are_deterministic():
    entry = _PERIODIC_ENTRIES[0]
    # a ring of 400 cell nodes and one of 1024
    for points in (401, 1025):
        first = band_edges(entry.potential, entry.period, count=6,
                           points=points)
        fd_eigensolve(flat, Grid(0.0, 3.0, 301), bc="antiperiodic", k=5)
        second = band_edges(entry.potential, entry.period, count=6,
                            points=points)
        assert first == second


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("m", [15, 16, 17, 40])
def test_ring_blocks_are_the_ring(m, bc):
    # the reflection-even and reflection-odd blocks, joined by the one zero
    # off-diagonal, hold the m eigenvalues of the ring matrix between them
    entry = _PERIODIC_ENTRIES[2]
    grid = Grid(0.0, entry.period, m + 1)
    diag, off = _ring_matrix(entry.potential, grid, bc)
    (join,) = np.flatnonzero(off == 0.0)
    blocks = [(diag[:join + 1], off[:join]), (diag[join + 1:], off[join + 1:])]
    assert sum(len(d) for d, _ in blocks) == m
    values = np.sort(np.concatenate([
        np.linalg.eigvalsh(np.diag(d) + np.diag(o, 1) + np.diag(o, -1))
        for d, o in blocks]))
    dense = np.linalg.eigvalsh(_dense_cyclic(entry.potential, grid, bc))
    assert np.max(np.abs(values - dense)) <= 1e-9


def test_ring_needs_a_potential_even_about_its_first_node():
    # sin x on [0, 2 pi] is odd about x = 0: its worst node is x = pi / 2
    grid = Grid(0.0, 2 * math.pi, 201)
    for bc in ("periodic", "antiperiodic"):
        with pytest.raises(GridError, match=r"even about the ring's first "
                                            r"node x=0, but V\(x=1.5708\)"):
            fd_eigensolve(np.sin, grid, bc=bc, k=3)
    with pytest.raises(GridError, match="even about the ring's first node"):
        band_edges(np.sin, 2 * math.pi, count=3)


def test_ring_from_a_shifted_anchor_verifies():
    # periodic-v2 at a = 0.3 is even about x = a, where its ring starts
    entry = make_entry("periodic-v2", {"alpha": 1, "beta": 1, "a": 0.3},
                       sign="+", n=1)
    report = verification_report(entry)
    assert report["grid"]["x_min"] == 0.3 and report["all_pass"]


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("call", ["dirichlet", "periodic", "antiperiodic",
                                  "band-edges"])
def test_k_below_one_is_named(call, k):
    with pytest.raises(GridError, match=f"k={k} must be at least 1"):
        if call == "band-edges":
            band_edges(flat, 1.0, count=k)
        else:
            fd_eigensolve(flat, Grid(0.0, 1.0, 64), bc=call, k=k)


@pytest.mark.parametrize("entry", _PERIODIC_ENTRIES[:2],
                         ids=["periodic-v1+", "periodic-v1-"])
def test_band_edges_are_the_merged_eigenvalues(entry):
    grid = Grid(0.0, entry.period, 401)
    merged = sorted((float(e), bc) for bc in ("periodic", "antiperiodic")
                    for e in fd_eigensolve(entry.potential, grid, bc, 6,
                                           refine=False).eigenvalues)
    edges = band_edges(entry.potential, entry.period, count=6, points=401)
    assert [(e.energy, e.parity) for e in edges] == merged


def test_free_particle_band_edges_large_grid():
    # a dense matrix of this size would take about 0.5 GB
    points = 8001
    h = 2 * math.pi / (points - 1)
    edges = band_edges(flat, 2 * math.pi, count=5, points=points)
    periodic = [e.energy for e in edges if e.parity == "periodic"]
    antiperiodic = [e.energy for e in edges if e.parity == "antiperiodic"]
    for values, thetas in ((periodic, [0, 1, 1, 2, 2]),
                           (antiperiodic, [0.5, 0.5, 1.5, 1.5, 2.5])):
        for energy, t in zip(values, thetas):
            # FD error t^2 - (4/h^2) sin^2(t h / 2) lies in [0, t^4 h^2 / 12]
            error = t ** 2 - energy
            assert -1e-8 <= error <= t ** 4 * h ** 2 / 12 + 1e-8


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
def test_cyclic_k_limit(bc):
    grid = Grid(0.0, 1.0, 16)            # 15 cell nodes
    spec = fd_eigensolve(flat, grid, bc=bc, k=14)
    assert len(spec.eigenvalues) == 14
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    with pytest.raises(GridError, match="k=15 must be at most 14"):
        fd_eigensolve(flat, grid, bc=bc, k=15)


@pytest.mark.parametrize("potential, grid, k", [
    (make_entry("harmonic", {"omega": 2}, n=3).potential,
     Grid(-6.0, 6.0, 1201), 4),
    (HYDROGEN.potential, Grid(1e-7, 60.0, 801, SQRT_STRETCH), 4),
], ids=["plain", "stretched"])
def test_dirichlet_eigenvalues_match_the_full_solve(potential, grid, k):
    # the refine pass leaves the values as they are, and its estimate is
    # the same solve on the refined grid, bit for bit
    values = fd_eigensolve(potential, grid, k=k, refine=False).eigenvalues
    spec = fd_eigensolve(potential, grid, k=k)
    fine = fd_eigensolve(potential, grid.refined(), k=k,
                         refine=False).eigenvalues
    assert np.array_equal(spec.eigenvalues, values)
    assert np.array_equal(spec.convergence_estimate,
                          np.abs(values - fine) * (4.0 / 3.0))


@pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
def test_cyclic_eigenvalues_match_the_full_solve(bc):
    entry = _PERIODIC_ENTRIES[0]
    grid = Grid(0.0, entry.period, 401)
    spec = fd_eigensolve(entry.potential, grid, bc=bc, k=6)
    # the refine pass leaves the values as they are, bit for bit
    values = fd_eigensolve(entry.potential, grid, bc=bc, k=6,
                           refine=False).eigenvalues
    assert np.array_equal(values, spec.eigenvalues)
    # the refine pass is this solve on the refined grid, bit for bit
    fine = fd_eigensolve(entry.potential, grid.refined(), bc=bc, k=6,
                         refine=False).eigenvalues
    assert np.array_equal(spec.convergence_estimate,
                          np.abs(spec.eigenvalues - fine) * (4.0 / 3.0))


def test_eigenvalues_only_checks_the_boundary_condition():
    with pytest.raises(GridError, match="unknown boundary condition"):
        fd_eigensolve(flat, Grid(0.0, 1.0, 64), bc="neumann")
