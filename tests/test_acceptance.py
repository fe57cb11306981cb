"""Acceptance checklist.

Every check below is pinned to its agreed tolerance and prints one
PASS/FAIL line (visible with `pytest -s`), so the suite doubles as a
human-readable report.
"""

import math
import random

import numpy as np

from sl2qes.algebra import (
    Generator,
    Polynomial,
    apply_generator,
    b_polynomials,
    commutator,
    hamiltonian_matrix,
    hamiltonian_matrix_from_b,
)
from sl2qes.catalog import make_entry
from sl2qes.fdsolve import (SQRT_STRETCH, Grid, band_edges, count_nodes,
                            fd_eigensolve, residual)
from sl2qes.mapping import build_gauge
from sl2qes.spectral import solve_algebraic_sector

from oracles import char_roots, hand_written_potential, jacobi, random_algebra


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# --------------------------------------------------------------------------

def test_criterion_01_exact_algebra_suite():
    rng = random.Random(17041)
    worst = True
    for _ in range(100):
        c = random_algebra(rng, n_max=8)
        m1 = hamiltonian_matrix(c)
        m2 = hamiltonian_matrix_from_b(b_polynomials(c), c.d, c.n)
        worst &= (m1 == m2)
        n = c.n
        for r in range(n + 1):
            p = Polynomial.monomial(r)
            worst &= (commutator(Generator.PLUS, Generator.MINUS, p, n)
                      == -2 * apply_generator(Generator.ZERO, p, n))
            worst &= (commutator(Generator.ZERO, Generator.PLUS, p, n)
                      == apply_generator(Generator.PLUS, p, n))
            worst &= (commutator(Generator.ZERO, Generator.MINUS, p, n)
                      == -1 * apply_generator(Generator.MINUS, p, n))
    report(1, "commutation relations and dual operator construction are "
              "exact for 100 random coefficient sets, n <= 8", worst)


def test_criterion_02_harmonic_oscillator():
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    spec = fd_eigensolve(entry.potential, Grid(-10, 10, 2001), k=4,
                         refine=False)
    errs = np.abs(spec.eigenvalues - np.array([1.0, 3.0, 5.0, 7.0]))
    nodes = [count_nodes(spec.eigenvectors[:, j]) for j in range(4)]
    report(2, "harmonic levels {1,3,5,7} within 1e-3 and node counts "
              "{0,1,2,3}",
           bool(np.all(errs < 1e-3)) and nodes == [0, 1, 2, 3],
           f"max err {errs.max():.2e}, nodes {nodes}")


def test_criterion_03_morse():
    entry = make_entry("morse", {"alpha": 1, "A": 3, "B": 1}, n=2)
    fd = entry.fd_defaults
    spec = fd_eigensolve(entry.potential,
                         Grid(fd["x_min"], fd["x_max"], fd["points"]),
                         k=3, refine=False)
    errs = np.abs(spec.eigenvalues - np.array([-9.0, -4.0, -1.0]))
    report(3, "Morse levels {-9,-4,-1} within 1e-3 on the truncated domain",
           bool(np.all(errs < 1e-3)), f"max err {errs.max():.2e}")


def test_criterion_04_coulomb():
    entry = make_entry("coulomb", {"e2": 2, "l": 0}, n=2)
    fd = entry.fd_defaults
    # the grid verification_report solves on: uniform in u = 2 sqrt(x)
    grid = Grid(fd["x_min"], fd["x_max"], fd["points"], SQRT_STRETCH)
    spec = fd_eigensolve(entry.potential, grid, k=3, refine=True)
    exact = np.array([-1.0, -0.25, -1.0 / 9.0])
    errs = np.abs(spec.eigenvalues - exact)
    # inner-cutoff sensitivity folded into the confirmation
    half = fd_eigensolve(entry.potential,
                         Grid(fd["x_min"] / 2, fd["x_max"], fd["points"],
                              SQRT_STRETCH),
                         k=3, refine=False)
    estimates = np.maximum(spec.convergence_estimate,
                           np.abs(half.eigenvalues - spec.eigenvalues))
    report(4, "Coulomb levels {-1,-1/4,-1/9} within 1e-3 with confirming "
              "convergence estimates",
           bool(np.all(errs < 1e-3)) and bool(np.all(estimates < 1e-3)),
           f"max err {errs.max():.2e}, max estimate {estimates.max():.2e}")


def test_criterion_05_poschl_teller():
    entry = make_entry("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, n=0)
    fd = entry.fd_defaults
    spec = fd_eigensolve(entry.potential,
                         Grid(fd["x_min"], fd["x_max"], fd["points"]),
                         k=2, refine=False)
    err = abs(spec.eigenvalues[0] + 4.0)
    lone = spec.eigenvalues[1] > -1e-2   # no second bound state
    report(5, "Poschl-Teller single bound state at -4 within 1e-3",
           err < 1e-3 and lone,
           f"err {err:.2e}, next level {spec.eigenvalues[1]:.3f}")


def test_criterion_06_scarf():
    entry = make_entry("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, n=1)
    fd = entry.fd_defaults
    spec = fd_eigensolve(entry.potential,
                         Grid(fd["x_min"], fd["x_max"], fd["points"]),
                         k=2, refine=False)
    errs = np.abs(spec.eigenvalues - np.array([-4.0, -1.0]))
    # reality of the complex-parameter Jacobi composition
    xs = np.linspace(-4, 4, 41)
    ok_real = True
    for j in (0, 1):
        val = (1j) ** (-j) * jacobi(j, -1j - 2.5, 1j - 2.5, 1j * np.sinh(xs))
        ok_real &= bool(np.max(np.abs(np.imag(val)))
                        <= 1e-10 * (1 + np.max(np.abs(np.real(val)))))
    report(6, "Scarf II levels {-4,-1} within 1e-3 and real wavefunctions "
              "despite complex intermediates",
           bool(np.all(errs < 1e-3)) and ok_real,
           f"max err {errs.max():.2e}")


_OPERATOR_ROUTE_CASES = [
    ("harmonic", {"omega": 2}, None, 2, lambda e: np.linspace(-3, 3, 200)),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2,
     lambda e: np.linspace(-2, 4, 200)),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 2,
     lambda e: np.linspace(0.08, 3, 200)),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 2,
     lambda e: np.linspace(-3, 3, 200)),
    ("coulomb", {"e2": 2, "l": 0}, None, 2,
     lambda e: np.linspace(0.05, 20, 200)),
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1, None),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "-", 1, None),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "+", 1, None),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "-", 1, None),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1, None),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1, None),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1, None),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1, None),
]


def _operator_route_grid(entry):
    if entry.kind == "qes-periodic":
        p = entry.period
        return np.concatenate([
            np.linspace(0.05, p / 2 - 0.05, 100),
            np.linspace(p / 2 + 0.05, p - 0.05, 100),
        ])
    return np.concatenate([np.linspace(-3, -0.05, 100),
                           np.linspace(0.05, 3, 100)])


def test_criterion_07_operator_route_reproduces_potentials():
    worst = 0.0
    for name, params, sign, n, grid_fn in _OPERATOR_ROUTE_CASES:
        entry = make_entry(name, params, sign=sign, n=n)
        xs = grid_fn(entry) if grid_fn is not None else _operator_route_grid(entry)
        got = np.asarray(entry.potential(xs), float)
        want = np.asarray(hand_written_potential(entry)(xs), float)
        dev = float(np.max(np.abs(got - want)))
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, dev / scale)
    report(7, "transformed-operator potentials match all 13 closed forms, "
              "deviation < 1e-8", worst < 1e-8,
           f"worst relative deviation {worst:.2e}")


def test_criterion_08_gauge_reproduction():
    harm = make_entry("harmonic", {"omega": 2}, n=1)
    g = build_gauge(harm.bp, harm.mapping, 0.0)
    xs = np.array([-1.5, -0.3, 0.4, 1.0, 2.0])
    r1 = g(xs) / np.exp(-xs ** 2 / 2.0)
    var1 = (r1.max() - r1.min()) / abs(r1.mean())

    morse = make_entry("morse", {"alpha": 1, "A": 3, "B": 1}, n=1)
    gm = build_gauge(morse.bp, morse.mapping, 0.0)
    xm = np.linspace(-1.0, 3.0, 21)
    r2 = gm(xm) / np.exp(-3.0 * xm - np.exp(-xm))
    var2 = (r2.max() - r2.min()) / abs(r2.mean())
    report(8, "numeric gauge factor matches closed-form profiles for "
              "harmonic and Morse, ratio variation < 1e-8",
           var1 < 1e-8 and var2 < 1e-8,
           f"variations {var1:.2e}, {var2:.2e}")


def test_criterion_09_periodic_family_one():
    # n = 0: lowest algebraic energy is a band edge at -5/8
    e0 = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                    sign="+", n=0)
    edges0 = band_edges(e0.potential, e0.period, count=4, points=801)
    gap0 = min(abs(e.energy + 5.0 / 8.0) for e in edges0)

    # n = 1: both sign branches, four energies, the 2(n+1) sector count
    energies = []
    entries = []
    for sgn in ("+", "-"):
        entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                           sign=sgn, n=1)
        entries.append(entry)
        energies.extend(lv.E for lv in entry.spectral().levels)
    expected = sorted([3 / 8 - math.sqrt(3.0), 3 / 8, 19 / 8,
                       3 / 8 + math.sqrt(3.0)])
    match_analytic = np.max(np.abs(np.array(sorted(energies))
                                   - np.array(expected)))
    assert entries[0].sector_count() == 4

    edges1 = band_edges(entries[0].potential, entries[0].period, count=8,
                        points=1201)
    edge_vals = np.array([e.energy for e in edges1])
    gaps = [min(abs(edge_vals - e)) for e in energies]

    # closed-form states solve the eigenproblem
    res = 0.0
    grid = Grid(0.01, 2 * math.pi - 0.01, 4001)
    for entry in entries:
        for j in range(2):
            psi = entry.closed_form_wavefunction(j)
            res = max(res, residual(entry.potential, psi,
                                    entry.closed_form_energy(j), grid))
    ok = (gap0 < 1e-3 and match_analytic < 1e-12 and max(gaps) < 1e-3
          and res <= 1e-5)
    report(9, "periodic family 1: -5/8 edge at n=0; all 2(n+1)=4 branch "
              "energies are band edges at n=1; state residuals <= 1e-5",
           ok, f"edge gap {gap0:.2e}, worst match {max(gaps):.2e}, "
               f"residual {res:.2e}")


def test_criterion_10_hyperbolic_family_three():
    entry = make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0},
                       sign="-", n=1)
    expected = [-2.0 - 2.0 * math.sqrt(5.0), -2.0 + 2.0 * math.sqrt(5.0)]
    got = [lv.E for lv in entry.spectral().levels]
    assert np.allclose(got, expected, atol=1e-12)

    spec = fd_eigensolve(entry.potential, Grid(-8, 8, 3201), k=8,
                         refine=False, v_cap=1e8)
    gaps = [min(abs(spec.eigenvalues - e)) for e in got]
    grid = Grid(-2.5, 2.5, 4001)
    res = max(residual(entry.potential, entry.closed_form_wavefunction(j),
                       got[j], grid) for j in range(2))
    report(10, "hyperbolic family 3 (n=1): both algebraic energies match "
               "Dirichlet eigenvalues on [-8,8] within 1e-3, residuals "
               "<= 1e-5",
           max(gaps) < 1e-3 and res <= 1e-5,
           f"worst match {max(gaps):.2e}, residual {res:.2e}")


def test_criterion_11_spectral_oracle():
    rng = random.Random(5150)
    worst = 0.0
    checked = 0
    while checked < 25:
        c = random_algebra(rng, n_max=4).with_free_d()
        roots = char_roots(hamiltonian_matrix(c))
        if max(abs(r.imag) for r in roots) > 1e-20:
            continue
        res = solve_algebraic_sector(c)
        got = np.array(sorted(lv.d for lv in res.levels))
        want = np.array(sorted(r.real for r in roots))
        worst = max(worst, float(np.max(np.abs(got - want))))
        checked += 1

    anchors = []
    for alpha, beta in ((1, 1), (3, 2), (-2, 1)):
        entry = make_entry("periodic-v1",
                           {"alpha": alpha, "beta": beta, "a": 0},
                           sign="+", n=0)
        anchors.append(abs(solve_algebraic_sector(entry.algebra).levels[0].d))
    report(11, "floating-point shifts match exact characteristic roots "
               "within 1e-9 (n <= 4); n=0 anchor vanishes to 1e-14",
           worst < 1e-9 and max(anchors) <= 1e-14,
           f"worst root error {worst:.2e}, anchor {max(anchors):.2e}")


def test_criterion_12_convergence_order():
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    exact = np.array([1.0, 3.0, 5.0, 7.0])
    coarse = fd_eigensolve(entry.potential, Grid(-10, 10, 1001), k=4,
                           refine=False).eigenvalues
    fine = fd_eigensolve(entry.potential, Grid(-10, 10, 2001), k=4,
                         refine=False).eigenvalues
    ratios = np.abs(coarse - exact) / np.abs(fine - exact)
    report(12, "halving the harmonic grid spacing shrinks eigenvalue errors "
               "by a factor in [3.6, 4.4]",
           bool(np.all(ratios > 3.6) and np.all(ratios < 4.4)),
           f"ratios {np.round(ratios, 3)}")
