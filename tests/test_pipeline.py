"""End-to-end verification of every catalog family against the numeric
oracle, exercising the same path the verify subcommand uses."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2qes import catalog
from sl2qes.algebra import Polynomial
from sl2qes.catalog import make_entry
from sl2qes.cli import main
from sl2qes.errors import NoBoundStateError
from sl2qes.fdsolve import SQRT_STRETCH, Grid, fd_eigensolve
from sl2qes.pipeline import verification_report

ES_CASES = [
    ("harmonic", {"omega": 2}, None, 3),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1),
    ("coulomb", {"e2": 2, "l": 0}, None, 2),
]

QES_CASES = [
    ("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1),
    ("periodic-v2", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("periodic-v3", {"alpha": 1, "beta": 1, "a": 0}, "+", 0),
    ("periodic-v4", {"alpha": 1, "beta": 1, "a": 0}, "-", 1),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "-", 0),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1),
]


@pytest.mark.parametrize("name,params,sign,n", ES_CASES)
def test_solvable_families_verify(name, params, sign, n):
    entry = make_entry(name, params, sign=sign, n=n)
    report = verification_report(entry, j_max=n)
    assert report["all_pass"], report["levels"]
    for row in report["levels"]:
        assert row["abs_diff"] <= row["tolerance"]


@pytest.mark.parametrize("name,params,sign,n", QES_CASES)
def test_quasi_solvable_families_verify(name, params, sign, n):
    entry = make_entry(name, params, sign=sign, n=n)
    report = verification_report(entry)
    assert len(report["levels"]) == n + 1
    assert report["all_pass"], report["levels"]


@pytest.mark.parametrize("name,params,sign,n", [ES_CASES[0], QES_CASES[0]])
def test_verification_checks_the_b_polynomials(monkeypatch, name, params,
                                               sign, n):
    # the FD oracle reads the potential the B polynomials give, while the
    # levels come from the closed forms resp. the generator composition, so
    # a B2 one unit off shifts every numeric level against its algebraic one
    real = catalog.b_polynomials

    def shifted(alg):
        bp = real(alg)
        return dataclasses.replace(bp, b2_base=bp.b2_base + Polynomial.of(1))

    monkeypatch.setattr(catalog, "b_polynomials", shifted)
    entry = make_entry(name, params, sign=sign, n=n)
    assert not verification_report(entry)["all_pass"]


def test_report_structure():
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0},
                       sign="+", n=0)
    report = verification_report(entry)
    assert set(report) == {"family", "params", "n", "sign", "grid", "levels",
                           "all_pass"}
    row = report["levels"][0]
    assert set(row) == {"level", "algebraic_E", "numeric_E", "abs_diff",
                        "tolerance", "pass"}
    assert report["grid"]["bc"] == "periodic+antiperiodic"


def test_report_records_the_coulomb_stretch():
    coulomb = verification_report(make_entry("coulomb", {"e2": 2, "l": 0},
                                             n=1))
    assert coulomb["grid"] == {"x_min": 1e-5, "x_max": 200.0,
                               "points": 1601, "bc": "dirichlet",
                               "stretch": "u = 2 sqrt(x)"}
    harmonic = verification_report(make_entry("harmonic", {"omega": 2}))
    assert "stretch" not in harmonic["grid"]


_PER = {"alpha": 1, "beta": 1, "a": 0}
_BANDS = (0.0, 6.283185307179586, 801, "periodic+antiperiodic")
_HYP = (-8.0, 8.0, 3201, "dirichlet")
# the 14 default cases and the grid block each writes, value for value
DEFAULT_GRIDS = [
    ("harmonic", {"omega": 2}, None, 3, (-10.0, 10.0, 2001, "dirichlet")),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2,
     (-2.8, 22.0, 4001, "dirichlet")),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0,
     (1e-05, 12.0, 2401, "dirichlet")),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1,
     (-16.0, 16.0, 3201, "dirichlet")),
    ("coulomb", {"e2": 2, "l": 0}, None, 2,
     (1e-05, 200.0, 1601, "dirichlet", "u = 2 sqrt(x)")),
    ("periodic-v1", _PER, "+", 1, _BANDS),
    ("periodic-v1", _PER, "-", 1, _BANDS),
    ("periodic-v2", _PER, "+", 1, _BANDS),
    ("periodic-v3", _PER, "-", 1, _BANDS),
    ("periodic-v4", _PER, "+", 1, _BANDS),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1, _HYP),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1, _HYP),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1, _HYP),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1, _HYP),
]


@pytest.mark.parametrize("name,params,sign,n,grid", DEFAULT_GRIDS)
def test_default_grid_blocks(name, params, sign, n, grid):
    report = verification_report(make_entry(name, params, sign=sign, n=n),
                                 j_max=n)
    # the same keys in the same order keep the artifact bytes
    keys = ("x_min", "x_max", "points", "bc", "stretch")
    assert list(report["grid"].items()) == list(zip(keys, grid))


@pytest.mark.parametrize("e2, l, n", [(2, 0, 2), (3, 1, 1), (7, 2, 3)])
def test_coulomb_tolerance_is_the_common_rule(e2, l, n):
    entry = make_entry("coulomb", {"e2": e2, "l": l}, n=n)
    report = verification_report(entry, j_max=n)
    grid = report["grid"]
    k = len(report["levels"]) + 6
    spec = fd_eigensolve(entry.potential,
                         Grid(grid["x_min"], grid["x_max"], grid["points"],
                              SQRT_STRETCH), k=k)
    half = fd_eigensolve(entry.potential,
                         Grid(grid["x_min"] / 2, grid["x_max"],
                              grid["points"], SQRT_STRETCH),
                         k=k, refine=False)
    estimates = np.maximum(spec.convergence_estimate,
                           np.abs(half.eigenvalues - spec.eigenvalues))
    for row in report["levels"]:
        idx = int(np.argmin(np.abs(spec.eigenvalues - row["algebraic_E"])))
        assert row["tolerance"] == pytest.approx(
            max(1e-3, 10.0 * float(estimates[idx])), rel=1e-9)


@given(st.floats(1.0, 8.0), st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_coulomb_verifies_across_parameters(e2, l, n):
    # every diff must sit within the 1e-3 base tolerance itself, not pass
    # through the 10 x Richardson widening
    report = verification_report(make_entry("coulomb", {"e2": e2, "l": l},
                                            n=n), j_max=n)
    assert report["all_pass"], report["levels"]
    assert len(report["levels"]) == n + 1
    for row in report["levels"]:
        assert row["abs_diff"] <= 1e-3, row


def test_wavefunction_norms_are_finite():
    from sl2qes.mapping import assemble_wavefunction, build_gauge

    entry = make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0},
                       sign="-", n=1)
    lv = entry.spectral().levels[0]
    gauge = build_gauge(entry.bp, entry.mapping, entry.gauge_x0)
    grid = np.linspace(-4.0, 4.0, 2001)
    psi = assemble_wavefunction(gauge, lv.b, entry.mapping)(grid)
    norm = float(np.sqrt(np.trapezoid(psi ** 2, grid)))
    assert np.isfinite(norm) and norm > 0


@pytest.mark.parametrize("name, params, j_max", [
    ("morse", {"alpha": 1, "A": -1, "B": 1}, None),
    ("poschl-teller", {"alpha": 1, "A": 1, "B": 2}, None),
    ("harmonic", {"omega": 2}, -1),
])
def test_no_level_to_verify_is_an_error(tmp_path, capsys, name, params,
                                       j_max):
    entry = make_entry(name, params)
    with pytest.raises(NoBoundStateError, match=f"^{name}: no bound state"):
        verification_report(entry, j_max=j_max)

    # the verify subcommand fails the same way before it writes anything
    out = tmp_path / "out"
    argv = ["verify", "--family", name, "--out-dir", str(out)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    if j_max is not None:
        argv += ["--j-max", str(j_max)]
    assert main(argv) == 2
    if j_max is None:
        assert f"error: {name}: no bound state" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
