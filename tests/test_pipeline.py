"""End-to-end verification of every catalog family against the numeric
oracle, exercising the same path the verify subcommand uses."""

import builtins
import contextlib
import dataclasses
import errno
import gc
import itertools
import json
import math
import os
import runpy
import signal
import stat
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sl2qes import catalog, cli, floattext, pipeline
from sl2qes.algebra import Polynomial
from sl2qes.catalog import make_entry
from sl2qes.cli import main
from sl2qes.errors import GridError, NoBoundStateError
from sl2qes.fdsolve import SQRT_STRETCH, Grid, fd_eigensolve
from sl2qes.floattext import CHUNK
from sl2qes.pipeline import (RowSampler, _match_levels, json_pieces,
                             sample_wavefunctions, verification_report,
                             wavefunction_rows, write_artifacts,
                             write_csv_atomic, write_json_atomic)

ES_CASES = [
    ("harmonic", {"omega": 2}, None, 3),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1),
    ("coulomb", {"e2": 2, "l": 0}, None, 2),
    # wells left and right of the plot range (-2.5, 8), near x = -8 and 13
    ("morse", {"alpha": 0.25, "A": 4, "B": 0.5}, None, 0),
    ("morse", {"alpha": 0.25, "A": 2, "B": 60}, None, 0),
    # shallow levels in narrow wells, whose half wavelength is longer than
    # the well: found by the hypothesis test below
    ("scarf-ii", {"alpha": 2, "A": 0.5, "B": 0}, None, 0),
    ("scarf-ii", {"alpha": 1.290, "A": 0.376, "B": 0.235}, None, 0),
    ("scarf-ii", {"alpha": 2, "A": 0.35, "B": 0.25}, None, 0),
    ("scarf-ii", {"alpha": 1.681, "A": 0.375, "B": -0.541}, None, 3),
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
    assert list(row) == ["level", "algebraic_E", "numeric_E", "fd_E",
                         "order", "richardson_estimate", "fd_index",
                         "abs_diff", "tolerance", "pass", "cause"]
    assert row["cause"] is None and row["tolerance"] == 1e-3
    assert report["grid"]["bc"] == "antiperiodic"
    # a half-line row has the same fields: its wall sits at x = 0, with no
    # cutoff to move
    pt = verification_report(make_entry("poschl-teller",
                                        {"alpha": 1, "A": 3, "B": 1}))
    assert list(pt["levels"][0]) == list(row)


def test_report_records_the_coulomb_stretch():
    # every half line is stretched, with its wall at u = 0
    for name, params in (("coulomb", {"e2": 2, "l": 0}),
                         ("poschl-teller", {"alpha": 1, "A": 6, "B": 1})):
        report = verification_report(make_entry(name, params, n=1))
        grid = report["grid"]
        assert list(grid) == ["x_min", "x_max", "points", "bc", "stretch",
                              "k"]
        assert grid["stretch"] == "u = 2 sqrt(x)"
        assert grid["x_min"] == 0.0 and grid["x_max"] < 200.0
    harmonic = verification_report(make_entry("harmonic", {"omega": 2}))
    assert "stretch" not in harmonic["grid"]


_PER = {"alpha": 1, "beta": 1, "a": 0}
_TWO_PI = 6.283185307179586
# the 14 default cases and the grid block each derives, value for value;
# the points are the pilot's, from the window and E_top - V_min (no default
# needs a second round)
DEFAULT_GRIDS = [
    ("harmonic", {"omega": 2}, None, 3,
     (-5.605, 5.605, 115, "dirichlet", 4)),
    ("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2,
     (-3.03025, 11.5805, 189, "dirichlet", 3)),
    ("poschl-teller", {"alpha": 1, "A": 3, "B": 1}, None, 0,
     (0.0, 5.99702, 33, "dirichlet", "u = 2 sqrt(x)", 1)),
    ("scarf-ii", {"alpha": 1, "A": 2, "B": 1}, None, 1,
     (-12.04, 8.84, 181, "dirichlet", 2)),
    ("coulomb", {"e2": 2, "l": 0}, None, 2,
     (0.0, 58.41695, 85, "dirichlet", "u = 2 sqrt(x)", 3)),
    ("periodic-v1", _PER, "+", 1, (0.0, _TWO_PI, 53, "antiperiodic", 4)),
    ("periodic-v1", _PER, "-", 1, (0.0, _TWO_PI, 55, "antiperiodic", 4)),
    ("periodic-v2", _PER, "+", 1, (0.0, _TWO_PI, 55, "antiperiodic", 4)),
    ("periodic-v3", _PER, "-", 1, (0.0, _TWO_PI, 65, "periodic", 5)),
    ("periodic-v4", _PER, "+", 1, (0.0, _TWO_PI, 45, "periodic", 3)),
    ("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0}, "+", 1,
     (-2.442, 2.442, 81, "dirichlet", 4)),
    ("hyperbolic-v2", {"gamma": 1, "eta": 1, "a": 0}, "-", 1,
     (-2.436, 2.436, 71, "dirichlet", 3)),
    ("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0}, "-", 1,
     (-2.055, 2.055, 57, "dirichlet", 3)),
    ("hyperbolic-v4", {"gamma": 1, "eta": -2, "a": 0}, "+", 1,
     (-2.136, 2.136, 81, "dirichlet", 4)),
]


@pytest.mark.parametrize("name,params,sign,n,grid", DEFAULT_GRIDS)
def test_default_grid_blocks(name, params, sign, n, grid):
    report = verification_report(make_entry(name, params, sign=sign, n=n),
                                 j_max=n)
    # the same keys in the same order keep the artifact bytes; the window
    # ends are sums of scan steps, so they match to rounding
    keys = ("x_min", "x_max", "points", "bc", "stretch", "k")
    if len(grid) == 5:
        keys = keys[:4] + keys[5:]
    assert list(report["grid"]) == list(keys)
    assert list(report["grid"].values()) == [
        pytest.approx(v, rel=1e-12) if isinstance(v, float) else v
        for v in grid]


@pytest.mark.parametrize("e2, l, n", [(2, 0, 2), (3, 1, 1), (7, 2, 3)])
def test_coulomb_tolerance_is_the_common_rule(e2, l, n):
    # Coulomb's rows follow the common rule: E_R from independent solves at
    # 2h, h and h/2 on the report's stretched grid, compared at 1e-3 with
    # no widening
    entry = make_entry("coulomb", {"e2": e2, "l": l}, n=n)
    report = verification_report(entry, j_max=n)
    grid = report["grid"]
    k = grid["k"]
    w2h, wh, wh2 = (fd_eigensolve(entry.potential,
                                  Grid(grid["x_min"], grid["x_max"], points,
                                       SQRT_STRETCH),
                                  k=k, refine=False).eigenvalues
                    for points in ((grid["points"] + 1) // 2,
                                   grid["points"], 2 * grid["points"] - 1))
    assert grid["x_min"] == 0.0
    for row in report["levels"]:
        i = row["fd_index"]
        order = np.log2((wh[i] - w2h[i]) / (wh2[i] - wh[i]))
        assert row["order"] == pytest.approx(order, rel=1e-12)
        assert row["numeric_E"] == pytest.approx(
            wh2[i] + (wh2[i] - wh[i]) / (2.0 ** order - 1.0), rel=1e-12)
        assert row["fd_E"] == wh[i]
        assert row["tolerance"] == 1e-3
        assert row["abs_diff"] <= 1e-3 and row["pass"], row


@pytest.mark.parametrize("points", [4001, 16001, 64001])
def test_coulomb_holds_on_fine_grids(points):
    # the stretched diagonal grows as 1/u^4 next to the wall, so a
    # bisection that stopped at eps ||T|| would lose the levels as h
    # shrinks; stopping relative to each eigenvalue keeps them
    entry = make_entry("coulomb", {"e2": 2, "l": 0}, n=3)
    report = verification_report(entry, j_max=3, points=points)
    assert report["all_pass"], report["levels"]
    for row in report["levels"]:
        assert row["abs_diff"] <= 1e-7 and row["order"] >= 1.7, row


def test_poschl_teller_wall_below_three_halves_passes():
    # s = 1.379: a plain grid sees the wall's h^(2s - 1) term, where a
    # small pilot's estimate read 1.6e-4 and E_R missed by 2.9e-3; the
    # stretched grid sees 2s - 1/2 in u, and the order is 2
    entry = make_entry("poschl-teller", {"alpha": 1.8848, "A": 13.2569,
                                         "B": 2.5995}, n=0)
    report = verification_report(entry, j_max=0)
    assert report["all_pass"], report["levels"]
    row = report["levels"][0]
    assert row["order"] >= 1.7 and row["abs_diff"] <= row["tolerance"]


def test_matching_claims_each_eigenvalue_once():
    # nearest-value matching would give both levels eigenvalue 0; walked
    # one to one, level 1 takes eigenvalue 1 (and then misses it by 0.4)
    assert _match_levels([(0, 1.0), (1, 1.0005)],
                         np.array([1.0002, 1.4])) == [0, 1]


def test_periodic_levels_take_their_own_period_class():
    # the lowest band is 1.3e-5 wide and its antiperiodic edge is the
    # nearer one to level 0, but the sector (dq = 0) holds periodic states
    entry = make_entry("periodic-v4", {"alpha": 1.32, "beta": -0.852,
                                       "a": -0.224}, sign="-", n=3)
    report = verification_report(entry, j_max=3)
    assert report["all_pass"], report["levels"]
    grid = Grid(-0.224, -0.224 + entry.period, report["grid"]["points"])
    k = entry.sector_count()
    own, other = (fd_eigensolve(entry.potential, grid, bc=bc, k=k,
                                refine=False).eigenvalues
                  for bc in ("periodic", "antiperiodic"))
    level0 = report["levels"][0]
    assert (abs(other[0] - level0["algebraic_E"])
            < abs(own[0] - level0["algebraic_E"]))
    assert level0["fd_E"] == own[0]
    assert report["grid"]["bc"] == "periodic" and report["grid"]["k"] == k
    assert [row["fd_index"] for row in report["levels"]] == [0, 2, 4, 6]


def test_count_takes_in_the_fd_partner_above_the_top_level(monkeypatch):
    # lowered by 1e-4, the top level sits just below its FD eigenvalue
    # (index 3, above another state at index 2); half a level spacing
    # above it, the count still takes that eigenvalue in
    entry = make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0},
                       sign="+", n=1)
    levels = [(j, energy - 1e-4) for j, energy in entry.verification_levels()]
    monkeypatch.setattr(entry, "verification_levels", lambda j_max: levels)
    report = verification_report(entry)
    assert report["all_pass"], report["levels"]
    assert [row["fd_index"] for row in report["levels"]] == [1, 3]
    assert report["levels"][-1]["numeric_E"] > levels[-1][1]


def test_a_count_above_the_pilot_regrids_from_it(monkeypatch):
    # the Sturm count claims as many eigenvalues as the pilot's 2h grid has
    # nodes: the derived grid grows to hold them and COARSE_SPARE more
    entry = make_entry("harmonic", {"omega": 2}, n=3)
    pilots = []

    def count(potential, grid, energy):
        pilots.append(grid.points)
        return (grid.points + 1) // 2

    monkeypatch.setattr(pipeline, "count_below", count)
    report = verification_report(entry)
    [pilot] = pilots
    k = (pilot + 1) // 2
    assert report["grid"]["k"] == k
    assert report["grid"]["points"] == 2 * (k + pipeline.COARSE_SPARE) - 1
    assert report["grid"]["points"] > pilot


_UNIT = st.floats(0.25, 2.0)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_solvable_families_verify_across_their_predicates(data):
    # the FD window, count and match follow each draw; level j is the j-th
    # Dirichlet eigenvalue
    family = data.draw(st.sampled_from(["harmonic", "morse", "poschl-teller",
                                        "scarf-ii", "coulomb"]))
    n = data.draw(st.integers(0, 3))
    if family == "harmonic":
        params = {"omega": data.draw(st.floats(0.25, 6.0))}
    elif family == "coulomb":
        params = {"e2": data.draw(st.floats(0.5, 8.0)),
                  "l": data.draw(st.integers(0, 3))}
    elif family == "poschl-teller":
        # B >= alpha: no attractive inverse-square wall at x = 0
        alpha = data.draw(_UNIT)
        b = alpha * data.draw(st.floats(1.0, 3.0))
        params = {"alpha": alpha, "A": b + data.draw(st.floats(0.3, 12.0)),
                  "B": b}
    else:
        b = st.floats(0.25, 3.0) if family == "morse" else st.floats(-3.0, 3.0)
        params = {"alpha": data.draw(_UNIT),
                  "A": data.draw(st.floats(0.3, 8.0)), "B": data.draw(b)}
    entry = make_entry(family, params, n=n)
    try:
        levels = entry.verification_levels(n)
    except NoBoundStateError:
        assume(False)
    # the top level at least 0.1 below the continuum
    assume(family == "harmonic" or levels[-1][1] <= -0.1)
    report = verification_report(entry, j_max=n)
    assert report["all_pass"], report["levels"]
    assert ([row["fd_index"] for row in report["levels"]]
            == list(range(len(levels))))


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


# Attractive inverse-square walls, Poschl-Teller s = B/alpha < 1: the
# stretched grid sees the wall exponent 2s - 1/2 < 3/2 in u, where the FD
# error is not O(h^2), so the wall exponent fails every level before any
# solve.  At s = 0.892 the solved level 3 used to miss by "the FD energy
# differs", which blamed the algebra.
@pytest.mark.parametrize("params, n", [
    ({"alpha": 1.432, "A": 10.112, "B": 0.731}, 3),
    ({"alpha": 1, "A": 8, "B": 0.6}, 2),
    ({"alpha": 0.9922, "A": 12.5805, "B": 0.8849}, 3),
])
def test_attractive_wall_fails_by_its_order(tmp_path, capsys, params, n):
    entry = make_entry("poschl-teller", params, n=n)
    report = verification_report(entry, j_max=n)
    assert not report["all_pass"] and report["grid"] is None
    assert len(report["levels"]) == n + 1
    for row in report["levels"]:
        assert not row["pass"] and row["tolerance"] == 1e-3
        assert row["cause"].startswith(
            "the FD oracle does not converge at the expected order")
        assert f"s = {entry.wall_exponent:.4g}" in row["cause"]
        assert all(row[key] is None for key in (
            "numeric_E", "fd_E", "order", "richardson_estimate", "fd_index",
            "abs_diff"))
    argv = ["verify", "--family", "poschl-teller", "--n", str(n),
            "--j-max", str(n), "--out-dir", str(tmp_path / "run")]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL: the FD oracle does not converge" in out
    assert out.count("numeric - diff -") == n + 1


def test_a_coarse_grid_fails_by_the_observed_order(tmp_path, capsys):
    # 41 points are too few for Morse's ground state to converge at order 2
    out = tmp_path / "run"
    assert main(["verify", "--family", "morse", "--alpha", "1", "--A", "3",
                 "--B", "1", "--n", "2", "--j-max", "2", "--points", "41",
                 "--out-dir", str(out)]) == 1
    cause = ("the FD oracle does not converge at the expected order: "
             "observed 0.772, expected at least 1.7")
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("level 0: ") and first.endswith(f"[FAIL: {cause}]")
    report = json.loads((out / "verification.json").read_text())
    ground = report["levels"][0]
    assert not ground["pass"] and ground["cause"] == cause


def test_hyperbolic_v1_n6_passes_unwidened():
    # E_top - V_min grows with n; the pilot grid follows it, and a second
    # round brings every estimate under the tolerance, which stays 1e-3
    entry = make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0},
                       sign="+", n=6)
    report = verification_report(entry)
    assert report["all_pass"], report["levels"]
    for row in report["levels"]:
        assert row["tolerance"] == 1e-3
        assert row["abs_diff"] <= 1e-3 and row["richardson_estimate"] <= 1e-3


def _workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def test_catalog_verify_seeds_pass_unwidened():
    """Every level of the benchmark's catalog-verify cases, seeds 1-10,
    passes at 1e-3 with no widening, as the verify subcommand runs them."""
    workloads = _workloads()
    for seed in range(1, 11):
        for case in workloads.generate("catalog-verify", seed):
            entry = make_entry(case.family, case.params, sign=case.sign,
                               n=case.n)
            report = verification_report(entry, j_max=case.n)
            assert report["all_pass"], (seed, case.case_id, report["levels"])
            assert {row["tolerance"] for row in report["levels"]} == {1e-3}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_order_gate_across_the_es_predicates(data):
    # the expected order is 2 at every wall, Poschl-Teller's s = B/alpha
    # >= 1 and Coulomb's included, as the stretched grid sees the exponent
    # 2 s - 1/2 >= 3/2 in u; no level off an attractive wall falls below the
    # band, and every level at one (s <= 0.9) fails by the order cause.
    family = data.draw(st.sampled_from(["harmonic", "morse", "poschl-teller",
                                        "scarf-ii", "coulomb"]))
    n = data.draw(st.integers(0, 3))
    attractive = False
    if family == "harmonic":
        params = {"omega": data.draw(st.floats(0.25, 6.0))}
    elif family == "coulomb":
        params = {"e2": data.draw(st.floats(0.5, 8.0)),
                  "l": data.draw(st.integers(0, 3))}
    elif family == "poschl-teller":
        alpha = data.draw(_UNIT)
        attractive = data.draw(st.booleans())
        s = data.draw(st.floats(0.5, 0.9) if attractive
                      else st.floats(1.0, 3.0))
        params = {"alpha": alpha, "A": alpha * s
                  + data.draw(st.floats(0.3, 12.0)), "B": alpha * s}
    else:
        b = st.floats(0.25, 3.0) if family == "morse" else st.floats(-3.0, 3.0)
        params = {"alpha": data.draw(_UNIT),
                  "A": data.draw(st.floats(0.3, 8.0)), "B": data.draw(b)}
    entry = make_entry(family, params, n=n)
    try:
        levels = entry.verification_levels(n)
    except NoBoundStateError:
        assume(False)
    assume(family == "harmonic" or levels[-1][1] <= -0.1)
    report = verification_report(entry, j_max=n)
    if attractive:
        assert not report["all_pass"]
        for row in report["levels"]:
            assert row["cause"].startswith(
                "the FD oracle does not converge at the expected order"), row
        return
    assert report["all_pass"], report["levels"]
    for row in report["levels"]:
        assert row["order"] >= 2.0 - 0.3, row


def test_points_fix_h(tmp_path):
    # hyperbolic-v1 at n = 6 takes a second round on its own; with points
    # given, the h grid has exactly them and the pilot is the only round
    entry = make_entry("hyperbolic-v1", {"gamma": 1, "eta": -1, "a": 0},
                       sign="+", n=6)
    assert verification_report(entry)["grid"]["points"] != 301
    report = verification_report(entry, points=301)
    grid = report["grid"]
    assert grid["points"] == 301
    wh = fd_eigensolve(entry.potential, Grid(grid["x_min"], grid["x_max"],
                                             301), k=grid["k"],
                       refine=False).eigenvalues
    assert [row["fd_E"] for row in report["levels"]] == [
        wh[row["fd_index"]] for row in report["levels"]]
    with pytest.raises(GridError, match="points must be odd"):
        verification_report(entry, points=302)
    # from the command line too
    out = tmp_path / "run"
    assert main(["verify", "--family", "hyperbolic-v1", "--gamma", "1",
                 "--eta", "-1", "--a", "0", "--sign", "+", "--n", "6",
                 "--points", "301", "--out-dir", str(out)]) == 0
    written = json.loads((out / "verification.json").read_text())
    assert written["grid"]["points"] == 301


def test_points_too_few_for_k_is_a_usage_error(tmp_path, capsys):
    # the 2h grid of 31 points has 15 cell nodes; periodic-v1 at n = 20
    # needs k = 42 eigenvalues of one period class
    out = tmp_path / "run"
    assert main(["verify", "--family", "periodic-v1", "--alpha", "1",
                 "--beta", "1", "--a", "0", "--sign", "+", "--n", "20",
                 "--points", "31", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "k=42 eigenvalues need at least 87 points" in err
    assert not out.exists()


def test_wavefunction_norms_are_finite():
    from sl2qes.mapping import WaveFunction, build_gauge

    entry = make_entry("hyperbolic-v3", {"gamma": 1, "eta": 2, "a": 0},
                       sign="-", n=1)
    lv = entry.spectral().levels[0]
    gauge = build_gauge(entry.bp, entry.mapping, entry.gauge_x0)
    grid = np.linspace(-4.0, 4.0, 2001)
    psi = WaveFunction(gauge, lv.b, entry.mapping)(grid)
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


def _rows(columns):
    """The text of a table's rows, as write_artifacts gives it to
    write_csv_atomic: the row-major table of ``columns`` as the one run of
    its own stream."""
    return pipeline._csv(pipeline._runs([pipeline._table(
        np.column_stack(columns))]), len(columns[0]))


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 401])
def test_csv_writes_each_value_as_its_float_repr(tmp_path, rows):
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5,
                       0.1, 1.0 / 3.0])
    # the values repeated to fill the rows
    columns = [np.resize(values, rows), np.resize(values[::-1], rows),
               np.arange(rows)]
    path = tmp_path / "table.csv"
    write_csv_atomic(str(path), ["a", "b", "k"], _rows(columns))
    want = "a,b,k\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode()
    lines = path.read_text().splitlines()
    assert len(lines) == rows + 1
    assert lines[1:5] == [
        "nan,0.3333333333333333,0.0", "inf,0.1,1.0", "-inf,1e-05,2.0",
        "-0.0,1e+16,3.0"][:rows]


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 40, -2 ** 100]),
    st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
    st.text())
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                       st.none())
def _lists(doc):
    """doc with every array replaced by its tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_lists, doc))
    return doc


_SPECIAL_FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16])


def _float_array(size: int, seed: int, special: bool) -> np.ndarray:
    """size floats of wide range, with specials among them if asked."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    if special and size:
        at = rng.integers(0, size, 3)
        values[at] = rng.choice(_SPECIAL_FLOATS, 3)
    return values


# float64 arrays: small ones of any floats, and large ones that take the
# documents above CHUNK floats
_JSON_ARRAYS = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 6)),
    st.builds(_float_array, st.integers(0, 2 * CHUNK),
              st.integers(0, 2**32 - 1), st.booleans()))
_JSON_DOCS = st.recursive(
    st.one_of(_JSON_SCALARS, _JSON_ARRAYS),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_JSON_KEYS, inner)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_pieces_join_to_json_dumps_indent_2(doc):
    assert "".join(json_pieces(doc)) == json.dumps(_lists(doc), indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, ()],
    (1, 2.5, "x"), {"t": (None, True, -0.0)}, ((1, 2), (3,)),
    {1: "int", 2.5: "float", True: "bool", None: "null", "s": [1, 2]},
    {1: [1, 2], 0.5: {"a": 1}, False: 3.0},
    [1, [2, 3], "a", {"b": [4, {}]}, 5.5, 6, (7,), None],
    {"a": 1, "b": [1, 2], "c": 3, "d": {"e": ()}, "f": "g"},
    [float("nan"), float("inf"), -float("inf"), 1e-320, 10 ** 40],
    # arrays that are no float64 vector are written as their lists
    {"i": np.arange(3), "m": np.eye(2), "f": np.float32([0.1]),
     "s": np.float64(2.5)},
], ids=lambda doc: json.dumps(_lists(doc))[:40])
def test_json_pieces_cases(doc):
    assert "".join(json_pieces(doc)) == json.dumps(_lists(doc), indent=2)


def test_an_encoded_document_keeps_no_array_alive():
    # json.dumps's encoder is a reference cycle that only the gc frees
    doc = {"levels": [{"b": np.full(3, 0.5)}], "x": np.arange(2.0)}
    refs = [weakref.ref(doc["levels"][0]["b"]), weakref.ref(doc["x"])]
    gc.disable()
    try:
        "".join(json_pieces(doc))
        del doc
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _object_column(rows: int, bad_row: int) -> np.ndarray:
    column = np.empty(rows, dtype=object)
    column[:] = 1.5
    column[bad_row] = "not a float"
    return column


def _can_fork_a_writer() -> bool:
    return (hasattr(os, "O_TMPFILE") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


forking = pytest.mark.skipif(not _can_fork_a_writer(),
                             reason="the table writer needs two CPUs and "
                             "unnamed temp files")


def _no_child_left():
    """No process is left once the table writer leaves, as it does at the
    interpreter's exit: at its socket's end of file, within 30 s."""
    if pipeline._worker is not None:
        pid, sock, _ = pipeline._worker
        pipeline._worker = None
        sock.close()
        deadline = time.monotonic() + 30.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            assert time.monotonic() < deadline, "the worker did not leave"
            time.sleep(0.001)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Columns:
    """A RowSampler block of fixed columns, one per level."""

    def __init__(self, cols):
        self.cols = self.coeffs = cols

    def __call__(self, rows, out):
        out[...] = np.column_stack([col[rows] for col in self.cols])
        return out


def _sampler(x, cols) -> RowSampler:
    return RowSampler(x, [_Columns(cols)])


def _table(columns):
    """A _Tail's table of fixed columns, the first one as x."""
    return _sampler(columns[0], columns[1:])


def _counting_tails(monkeypatch, threshold, write):
    """write() with FORK_MIN_FLOATS at threshold; the number of tables
    whose tail it sent to the table writer."""
    tails = []
    tail = pipeline._Tail

    class Counted(tail):
        def __init__(self, *args):
            tails.append(1)
            super().__init__(*args)

    monkeypatch.setattr(pipeline, "FORK_MIN_FLOATS", threshold)
    monkeypatch.setattr(pipeline, "_Tail", Counted)
    try:
        write()
    finally:
        monkeypatch.setattr(pipeline, "_Tail", tail)
    return len(tails)


def _write(monkeypatch, threshold, directory, x, doc, cols):
    """write_artifacts with FORK_MIN_FLOATS at threshold; the number of
    tables whose tail went to the table writer."""
    return _counting_tails(monkeypatch, threshold, lambda: write_artifacts(
        str(directory), x, x * x, doc, _sampler(x, cols)))


def _forked_build(directory, monkeypatch, doc=None, threshold=0):
    """_write on a 401-row table of 81 columns, forced onto the table
    writer unless threshold is raised."""
    x = np.linspace(-1.0, 1.0, 401)
    return _write(monkeypatch, threshold, directory, x,
                  {"levels": []} if doc is None else doc,
                  [np.cos(k * x) for k in range(80)])


_write_rows = pipeline._write_rows


def _child_stops_after_a_block(fd, table, start):
    _write_rows(fd, lambda first: table(first, start + 64), start)
    return errno.ENOSPC


@pytest.mark.parametrize("target, write, error, left", [
    # the set is in a second document, encoded once the first one's pieces
    # are written
    ("artifact", lambda path, mp: write_json_atomic(path, (
        piece for doc in ({"levels": [{"j": j, "b": np.full(200, 0.5)}
                                      for j in range(50)]},
                          {"warnings": ["done", {"a set"}]})
        for piece in json_pieces(doc))), TypeError, []),
    # a string that spells an array's stand-in, in the second document
    ("artifact", lambda path, mp: write_json_atomic(path, (
        piece for doc in ({"levels": [{"j": j, "b": np.full(200, 0.5)}
                                      for j in range(50)]},
                          {"b": np.full(3, 0.5), "s": pipeline._HOLE})
        for piece in json_pieces(doc))), ValueError, []),
    # spectrum.json holds a stand-in string among its arrays: it fails
    # before any file
    ("spectrum.json", lambda path, mp: _forked_build(
        os.path.dirname(path), mp, {
            "levels": [{"j": j, "b": np.full(200, 0.5)} for j in range(50)],
            "warnings": [pipeline._HOLE]}, threshold=10**9), ValueError, []),
    # the bad value sits in the second kernel pass of rows
    ("artifact", lambda path, mp: write_csv_atomic(path, ["x", "v"], _rows([
        np.arange(3000.0), _object_column(3000, CHUNK // 2 + 6)])),
     ValueError, []),
    # spectrum.json cannot be encoded: json.dumps fails before any file,
    # while the child formats its rows
    pytest.param("spectrum.json", lambda path, mp: _forked_build(
        os.path.dirname(path), mp, {
            "levels": [{"j": j, "b": [0.5] * 200} for j in range(50)],
            "warnings": ["done", {"a set"}]}), TypeError, [],
        marks=forking),
    # the child fails after its first block of rows
    pytest.param("wavefunctions.csv", lambda path, mp: (
        mp.setattr(pipeline, "_write_rows", _child_stops_after_a_block),
        _forked_build(os.path.dirname(path), mp)), OSError,
        ["potential.csv", "spectrum.json"], marks=forking),
], ids=["json", "json-stand-in", "stand-in", "csv", "forked-parent",
        "forked-child"])
def test_a_failure_mid_stream_leaves_nothing_behind(tmp_path, monkeypatch,
                                                    target, write, error,
                                                    left):
    path = tmp_path / target
    path.write_bytes(b"an earlier run\n")
    with pytest.raises(error):
        write(str(path), monkeypatch)
    assert path.read_bytes() == b"an earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [target, *left])
    _no_child_left()


@forking
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 401, 20_000])
def test_a_forked_tail_writes_the_same_bytes(tmp_path, rows):
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5,
                       0.1, 1.0 / 3.0])
    columns = [np.arange(rows) / 7.0, np.resize(values, rows),
               np.resize(values[::-1], rows)]
    single = tmp_path / "single.csv"
    write_csv_atomic(str(single), ["x", "a", "b"], _rows(columns))
    third = rows // 3
    # splits after the first row and a third, the whole table and its last
    # row
    for start in sorted({0, 1, third, rows - 1}):
        path = tmp_path / f"forked-{start}.csv"
        with pipeline._Tail(str(path), _table(columns), start) as tail:
            write_csv_atomic(str(path), ["x", "a", "b"],
                             _rows([col[:start] for col in columns]), tail)
        assert path.read_bytes() == single.read_bytes(), start
        _no_child_left()


@forking
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 401, 20_000])
def test_forked_artifacts_match_the_single_process_writer(tmp_path,
                                                          monkeypatch, rows):
    x = np.linspace(-2.0, 2.0, rows)
    cols = [np.exp(-k * x * x) for k in range(3)]
    doc = {"levels": [{"j": j, "b": [0.1 * j] * 5} for j in range(3)]}
    assert _write(monkeypatch, 10**12, tmp_path / "single", x, doc, cols) == 0
    assert _write(monkeypatch, 0, tmp_path / "forked", x, doc, cols) == 1
    _no_child_left()
    for name in ("potential.csv", "spectrum.json", "wavefunctions.csv"):
        assert ((tmp_path / "forked" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == [
        "potential.csv", "spectrum.json", "wavefunctions.csv"]


def _repr_table(header, columns) -> bytes:
    """A table's bytes as repr writes them, row by row."""
    rows = np.array(columns, float).T.tolist()
    return "".join([",".join(header) + "\n"] + [
        ",".join(map(repr, row)) + "\n" for row in rows]).encode()


def _counting_kernel(monkeypatch) -> list:
    """The sizes of pipeline's format_floats calls, from now on."""
    sizes = []
    kernel = pipeline.format_floats

    def counted(values, seps):
        sizes.append(np.size(values))
        return kernel(values, seps)

    monkeypatch.setattr(pipeline, "format_floats", counted)
    return sizes


def _assert_passes(sizes, floats: int):
    """Every float went through the kernel, at most CHUNK a call, in as
    few calls as CHUNK floats a call would take."""
    assert sum(sizes) == floats
    assert max(sizes) <= CHUNK
    assert len(sizes) == -(-floats // CHUNK)


# (rows, width): 4095, 4096 and 4097 table floats around floattext.CHUNK
_GATE_TABLES = [(819, 5), (1024, 4), (241, 17)]


@pytest.mark.parametrize("rows, width", _GATE_TABLES)
def test_tables_at_the_chunk_gate_are_repr_bytes(tmp_path, monkeypatch,
                                                 rows, width):
    rng = np.random.default_rng(rows)
    x = np.linspace(-3.0, 3.0, rows)
    cols = [x] + [rng.standard_normal(rows) * 10.0 ** k
                  for k in range(-4, width - 5)]
    header = ["x"] + [f"c{k}" for k in range(width - 1)]
    sizes = _counting_kernel(monkeypatch)
    write_csv_atomic(str(tmp_path / "t.csv"), header, _rows(cols))
    assert (tmp_path / "t.csv").read_bytes() == _repr_table(header, cols)
    _assert_passes(sizes, rows * width)


@pytest.mark.parametrize("rows, width", _GATE_TABLES)
def test_artifacts_at_the_chunk_gate_are_repr_bytes(tmp_path, monkeypatch,
                                                    rows, width):
    x = np.linspace(-2.0, 2.0, rows)
    cols = [np.exp(-k * x * x) * np.cos(k * x) for k in range(width - 1)]
    doc = {"levels": [{"j": j, "E": 0.5 * j} for j in range(width - 1)]}
    sizes = _counting_kernel(monkeypatch)
    assert _write(monkeypatch, 10**12, tmp_path, x, doc, cols) == 0
    # both tables are one stream, whose passes cross the edge between them
    _assert_passes(sizes, rows * 2 + rows * width)
    assert (tmp_path / "wavefunctions.csv").read_bytes() == _repr_table(
        ["x"] + [f"psi_{j}" for j in range(width - 1)], [x, *cols])
    assert (tmp_path / "potential.csv").read_bytes() == _repr_table(
        ["x", "V"], [x, x * x])
    assert (tmp_path / "spectrum.json").read_text() == json.dumps(
        doc, indent=2) + "\n"


@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=forking)])
def test_overflow_rows_through_the_kernel_are_repr_bytes(tmp_path,
                                                         monkeypatch, forked):
    # rows like an n = 160 build's overflowing columns: inf, -inf and nan
    # beside -0.0, subnormals and zeros, and 5000 floats per column
    x = np.linspace(-3.0, 3.0, 5000)
    with np.errstate(over="ignore", invalid="ignore"):
        wild = np.exp(300.0 * x * x) * np.sign(x) * np.cos(x)
    wild[::7] = -0.0
    wild[3::11] = 5e-324 * np.arange(len(wild[3::11]))
    cols = [wild, np.where(np.abs(x) > 2.5, np.nan, x ** 3), -wild]
    assert not np.isfinite(cols[0]).all() and np.isnan(cols[1]).any()
    sizes = _counting_kernel(monkeypatch)
    threshold = 0 if forked else 10**12
    assert _write(monkeypatch, threshold, tmp_path, x, {}, cols) == forked
    assert sizes
    assert (tmp_path / "wavefunctions.csv").read_bytes() == _repr_table(
        ["x", "psi_0", "psi_1", "psi_2"], [x, *cols])
    _no_child_left()


def _gate_document(floats: int, extra) -> dict:
    """A document with float64 arrays of ``floats`` values in all (ragged,
    -0.0 and 5e-324 among them), among ints, bools, None, strings, float
    lists and nested dicts, plus ``extra``."""
    values = np.arange(floats) / 7.0 - 100.0
    values[:2] = -0.0, 5e-324
    return {
        "mode": "test", "n": 3, "ok": True, "none": None,
        "levels": [{"j": j, "E": -0.5 * j, "b": values[j::4],
                    "nested": {"flag": False, "pair": [j, 1.5],
                               "deep": [values[j:j + 3],
                                        {"v": np.array([2.0])}]}}
                   for j in range(4)],
        "extra": extra,
        "empty": np.array([]), "tail": values[:1],
    }


@pytest.mark.parametrize("floats", [CHUNK - 18, CHUNK - 17, CHUNK + 10,
                                    3 * CHUNK + 5])
def test_json_documents_at_the_chunk_gate(tmp_path, monkeypatch, floats):
    # b arrays hold ``floats`` values; deep and v arrays add 4 * 3 + 4 = 16,
    # tail 1 more, and the arrays with inf or nan 3 + 2; the empty ones,
    # the float list and the tuple none
    extra = [np.array([0.5, math.nan, 1.0]), np.array([-0.0, np.inf]),
             np.array([]), [0.25, 0.75], (1.0, 2.0)]
    doc = _gate_document(floats, extra)
    total = floats + 4 * 3 + 4 + 1 + 3 + 2
    sizes = _counting_kernel(monkeypatch)
    write_json_atomic(str(tmp_path / "d.json"), json_pieces(doc))
    assert (tmp_path / "d.json").read_text() == json.dumps(
        _lists(doc), indent=2) + "\n"
    _assert_passes(sizes, total)


def test_json_float_lists_split_across_kernel_calls(tmp_path, monkeypatch):
    # arrays longer than a chunk, one-float and empty arrays, and an array
    # met three times
    long = np.arange(2 * CHUNK + 3) * 1e-3
    doc = {"a": long, "b": [np.array([1.0]), long, np.array([2.5, -0.0])],
           "c": [long[:5]] * 3, "d": np.array([]), "e": [long[7:9], []]}
    sizes = _counting_kernel(monkeypatch)
    write_json_atomic(str(tmp_path / "d.json"), json_pieces(doc))
    assert (tmp_path / "d.json").read_text() == json.dumps(
        _lists(doc), indent=2) + "\n"
    _assert_passes(sizes, 2 * long.size + 1 + 2 + 3 * 5 + 2)


def test_an_array_counts_by_its_size_in_the_split():
    doc = {"b": np.zeros(26), "c": [1.0, 2.0], "d": {"e": [np.ones(3)]},
           "f": np.array([])}
    assert pipeline._scalars(doc) == 26 + 2 + 3 + 0


@pytest.mark.parametrize("rows, width, other", [
    (401, 162, 26_000), (401, 82, 7_000), (401, 22, 1_300), (1, 3, 10),
    (20_000, 162, 66_000), (129, 3, 0), (64, 2, 10**6)])
def test_the_child_takes_about_half_the_floats_in_whole_blocks(rows, width,
                                                              other):
    start = pipeline._split(rows, width, other)
    assert 0 <= start < rows
    child = (rows - start) * width
    # half a row from half, unless the whole table or its last row is the
    # child's
    half = (other + rows * width) / 2
    assert (abs(child - half) <= width / 2 or start == 0
            or start == rows - 1)


def _child_killed(fd, table, start):
    os.kill(os.getpid(), signal.SIGKILL)


def _child_raises(fd, table, start):
    raise RuntimeError("a bug in the child")


@contextlib.contextmanager
def _imports_refused():
    def refuse(*args, **kwargs):
        raise ImportError("the child imported")

    hook = builtins.__import__
    builtins.__import__ = refuse
    try:
        yield
    finally:
        builtins.__import__ = hook


def _child_refuses_imports(fd, table, start):
    built = floattext.tables.cache_info()
    with _imports_refused():
        code = _write_rows(fd, table, start)
    now = floattext.tables.cache_info()
    # the child formats through floattext, on tables built before the fork
    if now.misses > built.misses or now.hits == built.hits:
        return 255
    return code


def _child_imports(fd, table, start):
    with _imports_refused():
        import fractions    # noqa: F401  (loaded already: only the hook runs)
    return 0


@forking
@pytest.mark.parametrize("child, message", [
    (_child_killed, "was killed by signal 9"),
    (_child_raises, "failed$"),
    (_child_stops_after_a_block, "failed: No space left on device"),
])
def test_a_failed_child_is_a_named_os_error(tmp_path, monkeypatch, child,
                                            message):
    monkeypatch.setattr(pipeline, "_write_rows", child)
    with pytest.raises(OSError, match="the writer process formatting rows "
                       r"from \d+ of .*wavefunctions.csv " + message):
        _forked_build(tmp_path, monkeypatch)
    _no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "potential.csv", "spectrum.json"]


@forking
def test_a_failed_child_leaves_the_json_samples(tmp_path, monkeypatch):
    # they are written while the child runs, before wavefunctions.csv
    monkeypatch.setattr(pipeline, "_write_rows", _child_stops_after_a_block)
    x = np.linspace(-1.0, 1.0, 401)
    sampler = _sampler(x, [np.cos(k * x) for k in range(80)])
    with pytest.raises(OSError, match="No space left on device"):
        _counting_tails(monkeypatch, 0, lambda: write_artifacts(
            str(tmp_path), x, x * x, {"levels": []}, sampler,
            json_samples=True))
    _no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "potential.csv", "potential.json", "spectrum.json",
        "wavefunctions.json"]


@forking
def test_the_child_imports_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_write_rows", _child_refuses_imports)
    floattext.tables.cache_clear()
    assert _forked_build(tmp_path / "forked", monkeypatch) == 1
    assert _forked_build(tmp_path / "single", monkeypatch,
                         threshold=10**12) == 0
    for name in ("potential.csv", "spectrum.json", "wavefunctions.csv"):
        assert ((tmp_path / "forked" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    # the child that samples its own rows: a sector whose xi^n overflows,
    # one whose gauge exponent reaches 2500 (scaled_exp's masked path),
    # and a general request
    for case, argv in _SAMPLING_REQUESTS.items():
        argv = [*argv, "--samples", "1000"]
        floattext.tables.cache_clear()
        assert _cli(monkeypatch, 0, argv, tmp_path / "forked" / case) == 1
        assert _cli(monkeypatch, 10**12, argv,
                    tmp_path / "single" / case) == 0
        for name in ("potential.csv", "spectrum.json", "wavefunctions.csv"):
            assert ((tmp_path / "forked" / case / name).read_bytes()
                    == (tmp_path / "single" / case / name).read_bytes()), name
    _no_child_left()
    # the refusing hook does fail a child that imports (a new worker, forked
    # after the patch)
    monkeypatch.setattr(pipeline, "_write_rows", _child_imports)
    with pytest.raises(OSError, match="failed$"):
        _forked_build(tmp_path / "importing", monkeypatch)


_COS_B4 = {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3"}
_SAMPLING_REQUESTS = {
    "hyperbolic-overflow": ["build", "--family", "hyperbolic-v1", "--gamma",
                            "0.95", "--eta", "-1", "--a", "0", "--sign", "+",
                            "--n", "160"],
    "hyperbolic-deep-gauge": ["build", "--family", "hyperbolic-v1", "--gamma",
                              "1.5", "--eta", "-2.5", "--a", "0", "--sign",
                              "+", "--n", "20"],
    "general": ["general", "--x-min=-1", "--x-max=1",
                f"--algebra={json.dumps(dict(_COS_B4, n=8))}"],
}


def _cli(monkeypatch, threshold, argv, out) -> int:
    """cli.main on argv, writing to out, with FORK_MIN_FLOATS at threshold
    (a general request's --algebra=<json> goes through a file); the number
    of tables whose tail went to the table writer."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg.startswith("--algebra="):
            out.mkdir(parents=True)
            (out / "algebra.json").write_text(arg.split("=", 1)[1])
            argv[i] = f"--algebra={out / 'algebra.json'}"
    codes = []
    tails = _counting_tails(monkeypatch, threshold, lambda: codes.append(
        main([*argv, "--out-dir", str(out)])))
    assert codes == [0]
    if (out / "algebra.json").exists():
        (out / "algebra.json").unlink()
    return tails


def _assert_repr_rows(path):
    """Every row of the CSV file under its header is its values' repr,
    comma separated, each value read back from the file."""
    lines = path.read_text().split("\n")
    assert lines[-1] == "" and lines[1:-1]
    for line in lines[1:-1]:
        assert ",".join(repr(float(v)) for v in line.split(",")) == line


@pytest.mark.parametrize("argv, floats", [
    # 401 rows of x, V and of x and psi_0..psi_3, and b of 1 + 2 + 3 + 4
    # floats (levels 1..3 each from the sector at n = j); then 401 rows of
    # x, V and of x and psi_0..psi_4, and five b of 5 floats
    (["verify", "--family", "harmonic", "--omega", "1"],
     401 * (2 + 5) + 10),
    (["general", "--x-min=-1", "--x-max=1",
      f"--algebra={json.dumps(dict(_COS_B4, n=4))}"], 401 * (2 + 6) + 25),
], ids=["verify", "general"])
def test_a_request_formats_its_tables_in_one_kernel_call(tmp_path,
                                                         monkeypatch, argv,
                                                         floats):
    # a verify's artifacts are formatted in this process
    monkeypatch.setattr(pipeline, "_writer_may_run", lambda: False)
    sizes = _counting_kernel(monkeypatch)
    assert _cli(monkeypatch, 10**12, argv, tmp_path / "run") == 0
    assert sizes == [floats]
    for name in ("potential.csv", "wavefunctions.csv"):
        _assert_repr_rows(tmp_path / "run" / name)


@pytest.mark.parametrize("samples", ["1", "2"])
def test_requests_of_one_and_two_samples_are_repr_bytes(tmp_path,
                                                        monkeypatch, samples):
    sizes = _counting_kernel(monkeypatch)
    argv = ["build", "--family", "morse", "--alpha", "1", "--A", "4", "--B",
            "2", "--samples", samples]
    assert _cli(monkeypatch, 10**12, argv, tmp_path / "run") == 0
    rows = int(samples)
    # the tables and spectrum.json's b of 1 + 2 + 3 + 4 floats
    assert sizes == [rows * (2 + 5) + 10]
    for name in ("potential.csv", "wavefunctions.csv"):
        path = tmp_path / "run" / name
        assert len(path.read_text().splitlines()) == rows + 1
        _assert_repr_rows(path)


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310,
                     2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1.0 / 3.0])


@pytest.mark.parametrize("rows", [1, 2, 7, 2049, 20_000])
def test_the_request_stream_is_repr_bytes(tmp_path, monkeypatch, rows):
    # at 2049 rows potential.csv's last row and the first wavefunction rows
    # share the second pass; at 20,000 they share the tenth
    x = np.linspace(-2.0, 2.0, rows)
    v = np.resize(_SPECIAL[::-1], rows)
    cols = [np.resize(_SPECIAL, rows), np.exp(-x * x),
            np.resize(_SPECIAL[3:], rows) * -3.0]
    sizes = _counting_kernel(monkeypatch)
    assert _counting_tails(monkeypatch, 10**12, lambda: write_artifacts(
        str(tmp_path), x, v, {}, _sampler(x, cols))) == 0
    _assert_passes(sizes, rows * 2 + rows * 4)
    assert (tmp_path / "potential.csv").read_bytes() == _repr_table(
        ["x", "V"], [x, v])
    assert (tmp_path / "wavefunctions.csv").read_bytes() == _repr_table(
        ["x", "psi_0", "psi_1", "psi_2"], [x, *cols])


@forking
@pytest.mark.parametrize("rows", [401, 2049])
def test_the_parents_share_of_a_forked_request_is_one_stream(tmp_path,
                                                            monkeypatch,
                                                            rows):
    x = np.linspace(-2.0, 2.0, rows)
    cols = [np.exp(-k * x * x) for k in range(40)]
    sizes = _counting_kernel(monkeypatch)
    assert _write(monkeypatch, 0, tmp_path, x, {}, cols) == 1
    _no_child_left()
    # the sizes of the parent's calls: potential.csv and its rows
    start = pipeline._split(rows, 41, 2 * rows + pipeline._scalars({}))
    _assert_passes(sizes, rows * 2 + start * 41)
    assert (tmp_path / "wavefunctions.csv").read_bytes() == _repr_table(
        ["x"] + [f"psi_{j}" for j in range(40)], [x, *cols])


@pytest.mark.parametrize("rows", [5, 700])
def test_csv_and_json_samples_spell_inf_and_nan_their_own_way(tmp_path,
                                                              monkeypatch,
                                                              rows):
    x = np.linspace(-2.0, 2.0, rows)
    cols = [np.resize(_SPECIAL, rows), np.exp(-x * x),
            np.resize(_SPECIAL[::-1], rows)]
    doc = {"levels": [{"j": 0, "b": np.array([1.0, -0.5])}]}
    sizes = _counting_kernel(monkeypatch)
    assert _counting_tails(monkeypatch, 10**12, lambda: write_artifacts(
        str(tmp_path), x, x * x, doc, _sampler(x, cols),
        json_samples=True)) == 0
    # one stream: the tables, spectrum.json's b and the samples' arrays
    _assert_passes(sizes, rows * 2 + 2 + rows * 2 + rows * 4 + rows * 4)
    csv = (tmp_path / "wavefunctions.csv").read_bytes()
    assert csv == _repr_table(["x", "psi_0", "psi_1", "psi_2"], [x, *cols])
    assert b"inf" in csv and b"nan" in csv and b"Infinity" not in csv
    text = (tmp_path / "wavefunctions.json").read_text()
    assert text == json.dumps({"x": x.tolist(), "psi": {
        str(j): col.tolist() for j, col in enumerate(cols)}}, indent=2) + "\n"
    assert all(word in text for word in ("Infinity", "-Infinity", "NaN"))
    assert "inf," not in text and "nan" not in text
    assert (tmp_path / "spectrum.json").read_text() == json.dumps(
        _lists(doc), indent=2) + "\n"


@forking
@pytest.mark.parametrize("rows", [401, 2049])
def test_a_forked_parent_streams_its_tables_and_spectrum_arrays(
        tmp_path, monkeypatch, rows):
    x = np.linspace(-2.0, 2.0, rows)
    cols = [np.exp(-k * x * x) for k in range(40)]
    doc = {"levels": [{"j": j, "E": 0.5 * j,
                       "b": np.linspace(-1.0, 1.0, 41)[:j + 2]}
                      for j in range(40)]}
    b_floats = sum(j + 2 for j in range(40))
    sizes = _counting_kernel(monkeypatch)
    assert _write(monkeypatch, 0, tmp_path / "forked", x, doc, cols) == 1
    _no_child_left()
    # potential.csv, the b arrays and the parent's rows, in one stream
    start = pipeline._split(rows, 41, 2 * rows + pipeline._scalars([doc]))
    _assert_passes(sizes, rows * 2 + b_floats + start * 41)
    assert _write(monkeypatch, 10**12, tmp_path / "single", x, doc, cols) == 0
    for name in ("potential.csv", "spectrum.json", "wavefunctions.csv"):
        assert ((tmp_path / "forked" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    assert (tmp_path / "single" / "spectrum.json").read_text() == json.dumps(
        _lists(doc), indent=2) + "\n"


def _qes_cases():
    """Each quasi-solvable family and sign at n = 20 and 160, eta of the
    sign each needs.  Two families take |gamma| = 1.5 and |eta| = 2.5 at
    n = 20, where the gauge exponent reaches 2500 (scaled_exp's masked
    path), and |gamma| = 1.1 at n = 160, above 0.87, where xi^n
    overflows."""
    for n in (20, 160):
        for family in [name for name, fam in catalog._FAMILIES.items()
                       if fam.kind != "es"]:
            for sign in "+-":
                if family.startswith("periodic"):
                    params = {"alpha": -1.2, "beta": 0.9, "a": 0.3}
                else:
                    low = family == "hyperbolic-v1" or (
                        family in ("hyperbolic-v3", "hyperbolic-v4")
                        and sign == "+")
                    if family not in ("hyperbolic-v1", "hyperbolic-v2"):
                        gamma, eta = 0.7, 1.3
                    elif n == 20:
                        gamma, eta = 1.5, 2.5
                    else:
                        gamma, eta = -1.1, 1.3
                    params = {"gamma": gamma, "eta": -eta if low else eta,
                              "a": -0.4}
                yield pytest.param(family, params, sign, n,
                                   id=f"{family}{sign}-n{n}")


@pytest.mark.parametrize("family, params, sign, n", _qes_cases())
def test_rows_sampled_in_pieces_are_the_whole_table(family, params, sign, n):
    entry = make_entry(family, params, sign=sign, n=n)
    x, _ = pipeline.sample_potential(entry, 401)
    rows = wavefunction_rows(entry, x, list(range(n + 1)))
    whole = rows()
    assert rows.width == n + 1
    assert whole.shape == (401, n + 2)
    assert whole[:, 0].tobytes() == x.tobytes()
    # from the first row alone to the last row alone
    for start in (1, 64, 100, 192, 320, 400):
        head, tail = rows(0, start), rows(start)
        for j, col in enumerate(whole.T):
            assert (np.concatenate([head[:, j], tail[:, j]]).tobytes()
                    == col.tobytes()), (start, j)


@forking
def test_a_pole_in_a_forked_general_request_is_named_before_the_fork(
        tmp_path, monkeypatch, capsys):
    # 4000 rows of 6 columns: above FORK_MIN_FLOATS; the x range runs past
    # the pole of the cos-shaped gauge at xi = 3/2
    (tmp_path / "cos.json").write_text(json.dumps(dict(_COS_B4, n=4)))
    assert 4000 * 6 >= pipeline.FORK_MIN_FLOATS
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    out = tmp_path / "run"
    assert main(["general", "--algebra", str(tmp_path / "cos.json"),
                 "--x-min=-3", "--x-max=3", "--samples", "4000",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == ("error: gauge integration path crosses "
                                    "a pole at xi=1.5")
    assert not out.exists()
    _no_child_left()


@forking
def test_a_forked_json_samples_build_keeps_its_bytes(tmp_path, monkeypatch):
    argv = ["build", "--family", "periodic-v1", "--alpha", "1.2", "--beta",
            "0.9", "--a", "0.1", "--sign", "-", "--n", "40", "--samples",
            "700", "--json-samples"]
    assert _cli(monkeypatch, 0, argv, tmp_path / "forked") == 1
    assert _cli(monkeypatch, 10**12, argv, tmp_path / "single") == 0
    names = sorted(p.name for p in (tmp_path / "single").iterdir())
    assert names == ["potential.csv", "potential.json", "spectrum.json",
                     "wavefunctions.csv", "wavefunctions.json"]
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == names
    for name in names:
        assert ((tmp_path / "forked" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    _no_child_left()


@forking
def test_an_interrupt_kills_and_reaps_the_child(tmp_path, monkeypatch):
    def interrupted(path, obj):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_write_rows",
                        lambda *args: time.sleep(120))
    monkeypatch.setattr(pipeline, "write_json_atomic", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _forked_build(tmp_path, monkeypatch)
    assert time.perf_counter() - start < 30.0
    _no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["potential.csv"]


@forking
def test_the_child_never_flushes_inherited_stdout(tmp_path):
    # stdout is a pipe, so the marker sits in its buffer at the fork
    code = (
        "import os, sys\n"
        "from sl2qes import cli, pipeline\n"
        "pipeline.FORK_MIN_FLOATS = 0\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('MARKER')\n"
        "code = cli.main(['build', '--family', 'periodic-v1', '--alpha',"
        " '1', '--beta', '1', '--a', '0', '--sign', '+', '--n', '20',"
        " '--out-dir', sys.argv[1]])\n"
        "print(f'forks {len(forks)}', file=sys.stderr)\n"
        "sys.exit(code)\n")
    proc = _python(code, tmp_path)
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines()[-1] == "forks 1"
    assert proc.stdout.decode().count("MARKER") == 1
    assert (tmp_path / "wavefunctions.csv").exists()


def _python(code: str, *args):
    """A fresh interpreter running code, with the package on its path and
    stdout a buffered pipe."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, timeout=120)


@forking
def test_one_worker_serves_a_process_and_leaves_with_it(tmp_path):
    # an atexit handler registered before the package's runs after it
    code = (
        "import atexit, os, sys\n"
        "def gone():\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        print('worker gone', file=sys.stderr)\n"
        "atexit.register(gone)\n"
        "from sl2qes import cli, pipeline\n"
        "pipeline.FORK_MIN_FLOATS = 0\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "for n in ('20', '40'):\n"
        "    assert cli.main(['build', '--family', 'periodic-v1', '--alpha',"
        " '1', '--beta', '1', '--a', '0', '--sign', '+', '--n', n,"
        " '--out-dir', os.path.join(sys.argv[1], n)]) == 0\n"
        "pid = pipeline._worker[0]\n"
        "print(f'forks {len(forks)} worker {pid}', file=sys.stderr)\n")
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, forks, gone = proc.stderr.decode().splitlines()
    assert forks.startswith("forks 1 worker ") and gone == "worker gone"
    with pytest.raises(ProcessLookupError):
        os.kill(int(forks.split()[-1]), 0)
    for n in ("20", "40"):
        assert (tmp_path / n / "wavefunctions.csv").exists()


def _same_files(*directories):
    for name in ("potential.csv", "spectrum.json", "wavefunctions.csv"):
        first, *rest = [(d / name).read_bytes() for d in directories]
        assert all(data == first for data in rest), name


@forking
def test_a_worker_killed_between_requests_is_named_then_replaced(
        tmp_path, monkeypatch):
    assert _forked_build(tmp_path / "single", monkeypatch,
                         threshold=10**12) == 0
    assert _forked_build(tmp_path / "first", monkeypatch) == 1
    pid = pipeline._worker[0]
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(OSError, match=r"the writer process formatting rows "
                       r"from \d+ of .*wavefunctions.csv was killed by "
                       r"signal 9$"):
        _forked_build(tmp_path / "second", monkeypatch)
    assert pipeline._worker is None
    assert sorted(p.name for p in (tmp_path / "second").iterdir()) == [
        "potential.csv", "spectrum.json"]
    assert _forked_build(tmp_path / "third", monkeypatch) == 1
    assert pipeline._worker[0] != pid
    _same_files(tmp_path / "single", tmp_path / "first", tmp_path / "third")
    _no_child_left()


@forking
def test_a_worker_killed_with_a_request_unread_is_named(tmp_path,
                                                        monkeypatch):
    # the request waits unread in the socket of a stopped worker, which is
    # then killed: the socket is reset, not at end of file
    x = np.linspace(-1.0, 1.0, 64)
    cols = [np.cos(k * x) for k in range(3)]
    assert _write(monkeypatch, 0, tmp_path / "first", x, {}, cols) == 1
    pid = pipeline._worker[0]
    os.kill(pid, signal.SIGSTOP)
    write_json = pipeline.write_json_atomic

    def killing(path, pieces):
        os.kill(pid, signal.SIGKILL)
        write_json(path, pieces)

    monkeypatch.setattr(pipeline, "write_json_atomic", killing)
    with pytest.raises(OSError, match="was killed by signal 9$"):
        _write(monkeypatch, 0, tmp_path / "second", x, {}, cols)
    assert pipeline._worker is None
    _no_child_left()


@forking
@pytest.mark.parametrize("bad, error", [({"a set"}, TypeError),
                                        (pipeline._HOLE, ValueError)],
                         ids=["json", "json-stand-in"])
def test_a_parent_that_fails_mid_request_leaves_the_next_one_whole(
        tmp_path, monkeypatch, bad, error):
    # the failed request reads its worker's status as it leaves, so the
    # worker is kept and the next request's status and rows are its own
    def slow(fd, table, start):
        time.sleep(0.2)
        return _write_rows(fd, table, start)

    monkeypatch.setattr(pipeline, "_write_rows", slow)
    assert _forked_build(tmp_path / "single", monkeypatch,
                         threshold=10**12) == 0
    assert _forked_build(tmp_path / "first", monkeypatch) == 1
    pid = pipeline._worker[0]
    with pytest.raises(error):
        _forked_build(tmp_path / "failed", monkeypatch,
                      {"levels": [], "warnings": [bad]})
    assert pipeline._worker[0] == pid
    assert not (tmp_path / "failed").exists()
    assert _forked_build(tmp_path / "next", monkeypatch) == 1
    assert pipeline._worker[0] == pid
    _same_files(tmp_path / "single", tmp_path / "first", tmp_path / "next")
    _no_child_left()


@forking
def test_a_forked_process_starts_a_worker_of_its_own(tmp_path, monkeypatch):
    assert _forked_build(tmp_path / "parent", monkeypatch) == 1
    worker = pipeline._worker
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # the parent's worker is forgotten at the fork; one left behind
            # anyway (a fork that runs no Python hook) is not this process's
            forgotten = pipeline._worker is None
            pipeline._worker = worker
            _forked_build(tmp_path / "child", monkeypatch)
            own = pipeline._worker
            pipeline._end_worker()
            code = 0 if forgotten and own[0] != worker[0] else 3
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert _forked_build(tmp_path / "again", monkeypatch) == 1
    assert pipeline._worker is worker
    _same_files(tmp_path / "parent", tmp_path / "child", tmp_path / "again")
    _no_child_left()


class _Noted:
    """A reference cycle that appends its note to a file when finalized."""

    def __init__(self, path, note: str):
        self.path, self.note, self.cycle = path, note, self

    def __del__(self):
        with open(self.path, "a") as handle:
            handle.write(self.note)


@forking
def test_the_worker_runs_no_finalizer_of_this_process(tmp_path, monkeypatch):
    notes = tmp_path / "notes"

    def collecting(fd, table, start):
        _Noted(notes, "worker ")     # the worker's own garbage
        gc.collect()
        return _write_rows(fd, table, start)

    monkeypatch.setattr(pipeline, "_write_rows", collecting)
    gc.disable()
    try:
        _Noted(notes, "parent ")     # garbage at the worker's fork
        for run in ("a", "b"):
            assert _forked_build(tmp_path / run, monkeypatch) == 1
        _no_child_left()
        assert notes.read_text() == "worker worker "
    finally:
        gc.enable()
        gc.collect()
    assert notes.read_text() == "worker worker parent "


@forking
def test_the_worker_holds_no_descriptor_of_this_process(tmp_path,
                                                       monkeypatch):
    read, write = os.pipe()
    try:
        assert _forked_build(tmp_path, monkeypatch) == 1
        os.close(write)
        os.set_blocking(read, False)
        assert os.read(read, 1) == b""      # no writer is left
    finally:
        os.close(read)
    _no_child_left()


@forking
def test_an_interrupt_between_requests_leaves_the_worker(tmp_path,
                                                         monkeypatch):
    assert _forked_build(tmp_path / "first", monkeypatch) == 1
    worker = pipeline._worker
    os.kill(worker[0], signal.SIGINT)
    assert _forked_build(tmp_path / "second", monkeypatch) == 1
    assert pipeline._worker is worker
    _same_files(tmp_path / "first", tmp_path / "second")
    _no_child_left()


# verify's hand-off: its artifacts go to the table writer as one job while
# the report runs

_CATALOG = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                              / "verify_catalog.py"))["CASES"]


def _verify_argv(family, params, sign, n) -> list[str]:
    """A verify request of the catalog entry, every level up to n."""
    args = ["verify", "--family", family]
    for key, value in params.items():
        args += [f"--{key}", str(value)]
    return args + (["--sign", sign] if sign else []) + ["--n", str(n),
                                                        "--j-max", str(n)]


_EDGE = ["verify", "--family", "morse", "--alpha", "1", "--A",
         "3.0000000001", "--B", "1", "--n", "3", "--j-max", "3"]


def _verify(monkeypatch, argv, out, worker: bool = True):
    """(exit code, jobs sent to the table writer) of cli.main on the verify
    request argv, writing to out: as a process's later verify, which may
    start the writer, or with ``worker`` false in this process alone."""
    jobs = []
    init = pipeline._Job.__init__

    def counted(self, *args):
        jobs.append(args[0])
        init(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(pipeline._Job, "__init__", counted)
        mp.setattr(cli, "_VERIFIES", itertools.count(1))
        if not worker:
            mp.setattr(pipeline, "_writer_may_run", lambda: False)
        code = main([*argv, "--out-dir", str(out)])
    return code, len(jobs)


@forking
@pytest.mark.parametrize("family, params, sign, n", _CATALOG)
def test_a_verify_job_writes_the_one_process_bytes(tmp_path, monkeypatch,
                                                   family, params, sign, n):
    argv = _verify_argv(family, params, sign, n)
    assert _verify(monkeypatch, argv, tmp_path / "single", False) == (0, 0)
    assert _verify(monkeypatch, argv, tmp_path / "job") == (0, 1)
    names = ["potential.csv", "spectrum.json", "verification.json",
             "wavefunctions.csv"]
    assert sorted(p.name for p in (tmp_path / "job").iterdir()) == names
    for name in names:
        single, job = tmp_path / "single" / name, tmp_path / "job" / name
        assert job.read_bytes() == single.read_bytes(), name
        assert job.stat().st_mode == single.stat().st_mode, name
    _no_child_left()


_artifact_texts = pipeline._artifact_texts


def _job_refuses_imports(fds, *args):
    built = floattext.tables.cache_info()
    with _imports_refused():
        code = _artifact_texts(fds, *args)
    now = floattext.tables.cache_info()
    # an import refused while the rows are sampled would hand the files
    # back to this process: it fails the job too
    if (now.misses > built.misses or now.hits == built.hits
            or code == pipeline._NOT_SET_UP):
        return 255
    return code


@forking
def test_a_json_samples_verify_job_at_n40_runs_in_one_process(
        tmp_path, monkeypatch):
    # 401 rows of 42 columns, above FORK_MIN_FLOATS: the job's table is
    # not split again, and the worker forks nothing; it imports nothing
    # and formats through floattext's tables, built before its fork
    argv = _verify_argv("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+",
                        40) + ["--json-samples"]
    assert 401 * 42 >= pipeline.FORK_MIN_FLOATS
    forks, fork = tmp_path / "forks", os.fork
    monkeypatch.setattr(os, "fork", lambda: (
        forks.open("a").write("fork\n"), fork())[1])
    monkeypatch.setattr(pipeline, "_artifact_texts", _job_refuses_imports)
    floattext.tables.cache_clear()
    assert _verify(monkeypatch, argv, tmp_path / "job") == (0, 1)
    assert _verify(monkeypatch, argv, tmp_path / "single", False) == (0, 0)
    assert forks.read_text() == "fork\n"
    names = sorted(p.name for p in (tmp_path / "single").iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in (tmp_path / "job").iterdir()) == names
    for name in names:
        assert ((tmp_path / "job" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    _no_child_left()


@forking
@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier"])
def test_a_report_that_raises_after_the_hand_off_leaves_the_files(
        tmp_path, monkeypatch, capsys, earlier):
    # the report's error comes after the job was sent: the job's status is
    # read, so the worker is kept, and none of its files is put in place
    ok = _verify_argv("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2)
    assert _verify(monkeypatch, ok, tmp_path / "first") == (0, 1)
    worker = pipeline._worker
    out = tmp_path / "out"
    if earlier:
        assert _verify(monkeypatch, ok, out) == (0, 1)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _verify(monkeypatch, _EDGE, out) == (2, 1)
    assert "sits too close to the continuum" in (
        capsys.readouterr().err.splitlines()[-1])
    assert pipeline._worker is worker
    if earlier:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["first"] + (["out"] if earlier else []))
    assert _verify(monkeypatch, ok, tmp_path / "next") == (0, 1)
    assert pipeline._worker is worker
    _same_files(tmp_path / "first", tmp_path / "next")
    _no_child_left()


@forking
def test_a_worker_killed_during_a_verify_job_is_named(tmp_path, monkeypatch,
                                                      capsys):
    ok = _verify_argv("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2)
    assert _verify(monkeypatch, ok, tmp_path / "first") == (0, 1)
    pid = pipeline._worker[0]
    report = pipeline.verification_report

    def killing(*args, **kwargs):
        os.kill(pid, signal.SIGKILL)
        return report(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verification_report", killing)
    capsys.readouterr()
    assert _verify(monkeypatch, ok, tmp_path / "killed") == (2, 1)
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: [Errno 5] the writer process formatting the artifacts of "
        f"{tmp_path / 'killed'} was killed by signal 9")
    assert pipeline._worker is None
    assert not (tmp_path / "killed").exists()
    monkeypatch.setattr(pipeline, "verification_report", report)
    assert _verify(monkeypatch, ok, tmp_path / "next") == (0, 1)
    assert pipeline._worker[0] != pid
    _same_files(tmp_path / "first", tmp_path / "next")
    _no_child_left()


@pytest.mark.parametrize("worker", [True, False], ids=["job", "single"])
def test_a_set_up_error_waits_for_the_report(tmp_path, monkeypatch, capsys,
                                             worker):
    # the report runs and passes; then this process sets up (the worker's
    # set-up raised too, and wrote nothing), its error is the request's,
    # and nothing is written
    calls = []
    report = pipeline.verification_report

    def noted(*args, **kwargs):
        calls.append("report")
        return report(*args, **kwargs)

    def broken(*args):
        calls.append("set-up")
        raise GridError("no samples")

    monkeypatch.setattr(pipeline, "verification_report", noted)
    monkeypatch.setattr(pipeline, "wavefunction_rows", broken)
    out = tmp_path / "out"
    argv = _verify_argv("harmonic", {"omega": 2}, None, 1)
    assert _verify(monkeypatch, argv, out, worker) == (2, int(worker))
    assert capsys.readouterr().err.splitlines()[-1] == "error: no samples"
    assert calls == ["report", "set-up"]
    assert not out.exists()
    _no_child_left()


_MORSE = _verify_argv("morse", {"alpha": 1, "A": 3, "B": 1}, None, 2)


def _noting(path, function):
    """function, which appends the pid of the process that called it and
    the name of what it raised, or "ok", to the file at path."""
    def noted(*args, **kwargs):
        outcome = "ok"
        try:
            return function(*args, **kwargs)
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        finally:
            with open(path, "a") as handle:
                handle.write(f"{os.getpid()} {outcome}\n")

    return noted


def _notes(path) -> tuple[list, list]:
    """The outcomes noted at path by the worker and by this process, each
    in its order; the notes are cleared."""
    notes = [line.split() for line in path.read_text().splitlines()]
    path.unlink()
    return tuple([outcome for pid, outcome in notes
                  if (int(pid) == os.getpid()) == here]
                 for here in (False, True))


class _Unsampled(RowSampler):
    """A RowSampler whose rows cannot be sampled."""

    def __call__(self, start=0, stop=None):
        raise GridError("no rows")


@forking
@pytest.mark.parametrize("where", ["set-up", "rows"])
def test_a_set_up_error_in_the_worker_keeps_the_worker(tmp_path, monkeypatch,
                                                       capsys, where):
    # the worker's set-up, or the sampling of its rows, raises and it
    # writes nothing; this process runs the report, then the set-up, whose
    # error is the request's
    notes, rows = tmp_path / "notes", pipeline.wavefunction_rows

    def broken(entry, x, j_values):
        if entry.name != "harmonic":
            return rows(entry, x, j_values)
        if where == "set-up":
            raise GridError("no samples")
        return _Unsampled(x, [])

    monkeypatch.setattr(pipeline, "wavefunction_rows",
                        _noting(notes, broken))
    monkeypatch.setattr(pipeline, "verification_report", _noting(
        notes, pipeline.verification_report))
    assert _verify(monkeypatch, _MORSE, tmp_path / "first") == (0, 1)
    assert _notes(notes) == (["ok"], ["ok"])
    worker = pipeline._worker
    out = tmp_path / "out"
    capsys.readouterr()
    argv = _verify_argv("harmonic", {"omega": 2}, None, 1)
    assert _verify(monkeypatch, argv, out) == (2, 1)
    error = "no samples" if where == "set-up" else "no rows"
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {error}"
    assert not out.exists()
    outcome = "GridError" if where == "set-up" else "ok"
    assert _notes(notes) == ([outcome], ["ok", outcome])
    assert pipeline._worker is worker
    assert _verify(monkeypatch, _MORSE, tmp_path / "next") == (0, 1)
    _same_files(tmp_path / "first", tmp_path / "next")
    _no_child_left()


_COSH = ["verify", "--family", "hyperbolic-v1", "--gamma", "200", "--eta",
         "-1", "--a", "0", "--sign", "+", "--n", "0"]


@forking
def test_the_callers_warning_filters_reach_the_worker(tmp_path, monkeypatch):
    # the filters and numpy's error state at each request, not at the
    # worker's fork, rule its set-up: V of the overflowing cosh is nan
    # (GridError), or its overflow raises
    notes = tmp_path / "notes"
    monkeypatch.setattr(pipeline, "sample_potential",
                        _noting(notes, pipeline.sample_potential))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _verify(monkeypatch, _MORSE, tmp_path / "first") == (0, 1)
    _notes(notes)
    worker = pipeline._worker
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _verify(monkeypatch, _COSH, tmp_path / "ignore") == (2, 1)
        assert _notes(notes) == (["GridError"], [])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _verify(monkeypatch, _COSH, tmp_path / "raise")
        assert _notes(notes) == (["FloatingPointError"], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            _verify(monkeypatch, _COSH, tmp_path / "error")
        assert _notes(notes) == (["RuntimeWarning"], [])
    assert pipeline._worker is worker
    assert not any((tmp_path / name).exists()
                   for name in ("ignore", "raise", "error"))
    _no_child_left()


@forking
def test_a_worker_forked_by_a_build_serves_the_first_verify(tmp_path,
                                                            monkeypatch):
    build = ["build", "--family", "periodic-v1", "--alpha", "1", "--beta",
             "1", "--a", "0", "--sign", "+", "--n", "160"]
    assert _verify(monkeypatch, _MORSE, tmp_path / "single", False) == (0, 0)
    assert main([*build, "--out-dir", str(tmp_path / "build")]) == 0
    worker = pipeline._worker
    assert worker is not None
    # the process's first verify starts no worker, but uses this one
    monkeypatch.setattr(cli, "_VERIFIES", itertools.count())
    jobs = []
    init = pipeline._Job.__init__
    monkeypatch.setattr(pipeline._Job, "__init__", lambda self, *args: (
        jobs.append(args[0]), init(self, *args))[1])
    assert main([*_MORSE, "--out-dir", str(tmp_path / "job")]) == 0
    assert len(jobs) == 1 and pipeline._worker is worker
    names = ["potential.csv", "spectrum.json", "verification.json",
             "wavefunctions.csv"]
    assert sorted(p.name for p in (tmp_path / "job").iterdir()) == names
    for name in names:
        assert ((tmp_path / "job" / name).read_bytes()
                == (tmp_path / "single" / name).read_bytes()), name
    _no_child_left()


@forking
@pytest.mark.parametrize("flags, message", [
    (["--family", "nope"], "error: unknown family 'nope'; known: harmonic, "),
    (["--family", "morse", "--alpha", "1", "--A", "3", "--B", "1", "--n",
      "-1"], "error: n must be a non-negative integer"),
], ids=["family", "n"])
def test_an_invalid_request_leaves_the_worker(tmp_path, monkeypatch, capsys,
                                              flags, message):
    assert _verify(monkeypatch, _MORSE, tmp_path / "first") == (0, 1)
    worker = pipeline._worker
    capsys.readouterr()
    assert _verify(monkeypatch, ["verify", *flags], tmp_path / "bad") == (2, 1)
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)
    assert not (tmp_path / "bad").exists()
    assert pipeline._worker is worker
    assert _verify(monkeypatch, _MORSE, tmp_path / "next") == (0, 1)
    _same_files(tmp_path / "first", tmp_path / "next")
    _no_child_left()


@forking
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_linked_artifacts_honour_the_umask(tmp_path, monkeypatch, umask,
                                           mode):
    old = os.umask(umask)
    try:
        assert _verify(monkeypatch, _MORSE, tmp_path / "run") == (0, 1)
    finally:
        os.umask(old)
    names = sorted(path.name for path in (tmp_path / "run").iterdir())
    assert names == ["potential.csv", "spectrum.json", "verification.json",
                     "wavefunctions.csv"]
    for name in names:
        assert stat.S_IMODE((tmp_path / "run" / name).stat().st_mode) == \
            mode, name
    _no_child_left()


@forking
@pytest.mark.parametrize("call", ["link", "replace"])
def test_a_failed_link_leaves_no_temp_name(tmp_path, monkeypatch, capsys,
                                           call):
    assert _verify(monkeypatch, _MORSE, tmp_path / "first") == (0, 1)
    real = getattr(os, call)

    def failing(*args, **kwargs):    # only the commit's calls name a dir fd
        if kwargs.get("dst_dir_fd") is None:
            return real(*args, **kwargs)
        raise PermissionError(errno.EACCES, "refused")

    capsys.readouterr()
    with monkeypatch.context() as mp:
        mp.setattr(os, call, failing)
        assert _verify(monkeypatch, _MORSE, tmp_path / "out") == (2, 1)
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: [Errno 13] refused")
    assert list((tmp_path / "out").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "out"]
    _no_child_left()


@forking
def test_a_filter_that_cannot_be_pickled_writes_in_this_process(
        tmp_path, monkeypatch):
    class Local(Warning):
        pass

    assert _verify(monkeypatch, _MORSE, tmp_path / "single", False) == (0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", Local)
        # the job is made, but fails to pickle before it forks the worker
        assert _verify(monkeypatch, _MORSE, tmp_path / "run") == (0, 1)
    assert pipeline._worker is None
    _same_files(tmp_path / "single", tmp_path / "run")
    _no_child_left()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_honour_the_umask(tmp_path, umask, mode):
    out = tmp_path / "run"
    old = os.umask(umask)
    try:
        assert main(["verify", "--family", "harmonic", "--omega", "2",
                     "--n", "1", "--j-max", "1", "--out-dir", str(out)]) == 0
    finally:
        os.umask(old)
    names = sorted(path.name for path in out.iterdir())
    assert names == ["potential.csv", "spectrum.json", "verification.json",
                     "wavefunctions.csv"]
    for name in names:
        assert stat.S_IMODE((out / name).stat().st_mode) == mode, name


def test_sampling_blocks_follow_the_gauges():
    """An ES entry takes levels above n from other sectors, each with its
    own gauge: every column still equals its level's own evaluation."""
    entry = make_entry("morse", {"alpha": 1, "A": 4, "B": 1}, None, 1)
    x = np.linspace(*entry.plot_range, 101)
    cols = sample_wavefunctions(entry, x, [0, 1, 2, 3])
    gauges = {id(entry.closed_form_wavefunction(j).gauge) for j in range(4)}
    assert len(gauges) == 3
    for j, col in enumerate(cols):
        assert np.array_equal(col, entry.closed_form_wavefunction(j)(x))
