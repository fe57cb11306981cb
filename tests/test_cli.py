import json
import warnings

import numpy as np
import pytest

from sl2qes.algebra import AlgebraCoefficients, b_polynomials
from sl2qes.catalog import make_entry
from sl2qes.cli import main
from sl2qes.mapping import (
    Branch,
    assemble_wavefunction,
    build_gauge,
    build_mapping,
    identity_shift,
)
from sl2qes.spectral import solve_algebraic_sector

from oracles import MARCH_SET


def run(args):
    return main(args)


def test_list_families_output(capsys):
    assert run(["list-families"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 13


def test_build_harmonic_spectrum(tmp_path):
    out = tmp_path / "run"
    code = run(["build", "--family", "harmonic", "--omega", "2", "--n", "3",
                "--j-max", "3", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert [lv["E"] for lv in doc["levels"]] == [1.0, 3.0, 5.0, 7.0]
    pot = (out / "potential.csv").read_text().splitlines()
    assert pot[0] == "x,V"
    assert len(pot) == 402
    waves = (out / "wavefunctions.csv").read_text().splitlines()
    assert waves[0] == "x,psi_0,psi_1,psi_2,psi_3"


def test_verify_periodic_v1(tmp_path):
    out = tmp_path / "run"
    code = run(["verify", "--family", "periodic-v1", "--alpha", "1",
                "--beta", "1", "--a", "0", "--n", "1", "--sign", "+",
                "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_pass"] is True
    assert len(report["levels"]) == 2
    for row in report["levels"]:
        assert row["pass"] is True
        assert row["abs_diff"] <= row["tolerance"]


def test_verify_failure_exit_code(tmp_path):
    out = tmp_path / "run"
    code = run(["verify", "--family", "harmonic", "--omega", "2", "--n", "0",
                "--j-max", "1", "--tolerance", "1e-12",
                "--out-dir", str(out)])
    assert code == 1
    report = json.loads((out / "verification.json").read_text())
    assert report["all_pass"] is False


def test_bad_parameters_exit_code(tmp_path):
    assert run(["build", "--family", "morse", "--alpha", "1", "--A", "3",
                "--B", "-1", "--out-dir", str(tmp_path)]) == 2
    assert run(["build", "--family", "nosuch",
                "--out-dir", str(tmp_path)]) == 2
    assert run(["build", "--family", "periodic-v1", "--alpha", "1",
                "--beta", "1", "--a", "0", "--out-dir", str(tmp_path)]) == 2
    # no bound state: nothing to verify is not a pass
    assert run(["verify", "--family", "morse", "--alpha", "1", "--A", "-1",
                "--B", "1", "--out-dir", str(tmp_path / "m")]) == 2
    assert not (tmp_path / "m" / "verification.json").exists()


def test_general_mode(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "C++": "0", "C+0": "0", "C00": "0", "C0-": "0", "C--": "1",
        "C+": "0", "C0": "-2", "C-": "0", "d": "free", "n": 2,
    }))
    out = tmp_path / "run"
    code = run(["general", "--algebra", str(alg), "--x-min", "-2",
                "--x-max", "2", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["mode"] == "general"
    assert len(doc["levels"]) == 3
    assert any("normalizability" in w for w in doc["warnings"])
    assert (out / "potential.csv").exists()
    assert (out / "wavefunctions.csv").exists()


def test_general_mode_fixed_shift(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "C++": "0", "C+0": "0", "C00": "0", "C0-": "0", "C--": "1",
        "C+": "0", "C0": "-2", "C-": "0", "d": "3/2", "n": 1,
    }))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--x-min", "-2",
                "--x-max", "2", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["d_used"] == 1.5


def test_general_mode_sqrt_transform(tmp_path):
    # linear weight with the half-line stretch, as in the radial family
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "C++": "0", "C+0": "0", "C00": "0", "C0-": "2", "C--": "0",
        "C+": "0", "C0": "1", "C-": "8", "d": "free", "n": 1,
    }))
    out = tmp_path / "run"
    code = run(["general", "--algebra", str(alg), "--u-transform",
                "two-sqrt", "--x-min", "0.05", "--x-max", "5",
                "--xi0", "0", "--xi-min", "0", "--xi-max", "1e9",
                "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert len(doc["levels"]) == 2


def test_general_without_positive_weight(tmp_path):
    alg = tmp_path / "bad.json"
    alg.write_text(json.dumps({
        "C++": "0", "C+0": "0", "C00": "-1", "C0-": "0", "C--": "-1",
        "C+": "0", "C0": "0", "C-": "0", "d": "free", "n": 1,
    }))
    assert run(["general", "--algebra", str(alg),
                "--out-dir", str(tmp_path / "run")]) == 2


def test_byte_identical_reruns(tmp_path):
    args = ["build", "--family", "periodic-v1", "--alpha", "1", "--beta", "1",
            "--a", "0", "--n", "1", "--sign", "+"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    for name in ("spectrum.json", "potential.csv", "wavefunctions.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_json_sample_export(tmp_path):
    out = tmp_path / "run"
    code = run(["build", "--family", "harmonic", "--omega", "2", "--n", "0",
                "--j-max", "1", "--samples", "51", "--json-samples",
                "--out-dir", str(out)])
    assert code == 0
    pot = json.loads((out / "potential.json").read_text())
    assert len(pot["x"]) == 51 and len(pot["V"]) == 51
    waves = json.loads((out / "wavefunctions.json").read_text())
    assert set(waves["psi"]) == {"0", "1"}


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = harmonic\nomega = 1\nn = 0\nj-max = 0\n")
    out1 = tmp_path / "c1"
    assert run(["build", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    doc = json.loads((out1 / "spectrum.json").read_text())
    assert doc["levels"][0]["E"] == 0.5          # omega from the config

    out2 = tmp_path / "c2"
    assert run(["build", "--config", str(cfg), "--omega", "2",
                "--out-dir", str(out2)]) == 0
    doc2 = json.loads((out2 / "spectrum.json").read_text())
    assert doc2["levels"][0]["E"] == 1.0         # flag wins over the config


def test_config_file_non_integral_l(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = coulomb\ne2 = 2\nl = 1.5\n")
    assert run(["build", "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")]) == 2
    assert "l must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("omega", "abc"),
    ("samples", "0"),
    ("samples", "-5"),
    ("j-max", "-1"),
    ("sign", "x"),
])
def test_bad_value_names_its_flag_from_either_source(tmp_path, capsys, flag,
                                                     value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    base = ["build", "--family", "harmonic", "--out-dir", str(tmp_path / "o")]
    assert run(base + [f"--{flag}", value]) == 2
    from_flag = capsys.readouterr().err.splitlines()[-1]
    assert run(base + ["--config", str(cfg)]) == 2
    from_config = capsys.readouterr().err.splitlines()[-1]
    assert f"argument --{flag}: " in from_flag
    assert from_config == from_flag
    assert not (tmp_path / "o").exists()


def test_config_json_samples_switch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    base = ["build", "--family", "harmonic", "--omega", "2", "--config",
            str(cfg)]
    for value, written in (("false", False), ("true", True)):
        cfg.write_text(f"json-samples = {value}\n")
        out = tmp_path / value
        assert run(base + ["--out-dir", str(out)]) == 0
        assert (out / "potential.json").exists() is written
        assert (out / "wavefunctions.json").exists() is written
    cfg.write_text("json-samples = no\n")
    assert run(base + ["--out-dir", str(tmp_path / "no")]) == 2
    assert "argument --json-samples: expected true or false" in \
        capsys.readouterr().err


def test_general_config_range_and_flag_override(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({
        "C++": "0", "C+0": "0", "C00": "0", "C0-": "0", "C--": "1",
        "C+": "0", "C0": "-2", "C-": "0", "d": "free", "n": 1,
    }))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"algebra = {alg}\nx-min = -1\nx-max = 1\nsamples = 21\n")

    def x_column(out):
        rows = (out / "potential.csv").read_text().splitlines()[1:]
        return [float(row.split(",")[0]) for row in rows]

    out1 = tmp_path / "c1"
    assert run(["general", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    x = x_column(out1)
    assert (len(x), x[0], x[-1]) == (21, -1.0, 1.0)

    out2 = tmp_path / "c2"
    assert run(["general", "--config", str(cfg), "--x-max", "2",
                "--samples", "11", "--out-dir", str(out2)]) == 0
    x = x_column(out2)
    assert (len(x), x[0], x[-1]) == (11, -1.0, 2.0)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_l_from_flag_or_config(tmp_path, capsys, source):
    def build(l_value, out):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"l = {l_value}\n")
        extra = (["--l", l_value] if source == "flag"
                 else ["--config", str(cfg)])
        return run(["build", "--family", "coulomb", "--e2", "2", *extra,
                    "--out-dir", str(tmp_path / out)])

    assert build("2.0", "whole") == 0
    doc = json.loads((tmp_path / "whole" / "spectrum.json").read_text())
    assert doc["params"]["l"] == 2.0
    assert build("1.5", "half") == 2
    assert "l must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_n_from_flag_or_config(tmp_path, capsys, source):
    def build(n_value, out):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = {n_value}\n")
        extra = (["--n", n_value] if source == "flag"
                 else ["--config", str(cfg)])
        return run(["build", "--family", "harmonic", "--omega", "2", *extra,
                    "--out-dir", str(tmp_path / out)])

    assert build("2.0", "whole") == 0
    doc = json.loads((tmp_path / "whole" / "spectrum.json").read_text())
    assert doc["n"] == 2
    for value in ("1.5", "abc"):
        assert build(value, value) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "error: n must be a non-negative integer"
        assert not (tmp_path / value).exists()


@pytest.mark.parametrize("family, params", [
    ("morse", ["--alpha", "1", "--A", "-1", "--B", "1"]),
    ("poschl-teller", ["--alpha", "1", "--A", "1", "--B", "2"]),
])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_no_bound_state_is_an_error(tmp_path, capsys, command, family,
                                    params):
    out = tmp_path / "out"
    assert run([command, "--family", family, *params,
                "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"error: {family}: no bound state up to j_max=3"
    assert not out.exists()


def _read_columns(path):
    rows = path.read_text().splitlines()
    return rows[0].split(","), np.array(
        [[float(v) for v in row.split(",")] for row in rows[1:]])


def test_general_columns_match_per_level_assembly(tmp_path):
    """Every column written from the one gauge pass equals the level's own
    gauge-times-polynomial evaluation, bit for bit."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(dict(MARCH_SET, n=3)))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--x-min", "-0.5",
                "--x-max", "0.5", "--samples", "101", "--out-dir",
                str(out)]) == 0
    header, table = _read_columns(out / "wavefunctions.csv")
    assert header == ["x", "psi_0", "psi_1", "psi_2", "psi_3"]

    coeffs = AlgebraCoefficients.from_json_dict(dict(MARCH_SET, n=3))
    bp = b_polynomials(coeffs)
    branch = json.loads((out / "spectrum.json").read_text())["branch"]
    x = np.linspace(-0.5, 0.5, 101)
    mapping = build_mapping(
        bp, Branch(branch["xi_min"], branch["xi_max"], branch["sign"],
                   branch["xi0"]),
        identity_shift(0.0))
    assert mapping.closed_form == "elliptic"
    x0 = float(x[len(x) // 2])
    levels = solve_algebraic_sector(coeffs.with_free_d()).levels
    assert np.array_equal(table[:, 0], x)
    for j, lv in enumerate(levels):
        psi = assemble_wavefunction(build_gauge(bp, mapping, x0), lv.b,
                                    mapping)(x)
        assert np.array_equal(table[:, j + 1], psi), f"psi_{j}"


def test_general_gauge_through_turning_point(tmp_path):
    """periodic-v1's coefficient data in general mode, anchored at xi = 1:
    x = pi reaches the root xi = -1 of B4, where the gauge continues as
    cos(x/2).  Every column equals the catalog build's up to one constant."""
    entry = make_entry("periodic-v1", {"alpha": 1, "beta": 1, "a": 0}, "+", 1)
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(entry.algebra.to_json_dict()))
    assert run(["general", "--algebra", str(alg), "--xi0", "1",
                "--x-min", "0", "--x-max", repr(2 * np.pi),
                "--out-dir", str(tmp_path / "general")]) == 0
    assert run(["build", "--family", "periodic-v1", "--alpha", "1",
                "--beta", "1", "--a", "0", "--sign", "+", "--n", "1",
                "--out-dir", str(tmp_path / "build")]) == 0
    header, general = _read_columns(tmp_path / "general" / "wavefunctions.csv")
    assert header == ["x", "psi_0", "psi_1"]
    build = _read_columns(tmp_path / "build" / "wavefunctions.csv")[1]
    assert np.array_equal(general[:, 0], build[:, 0])
    for col in (1, 2):
        k = int(np.argmax(np.abs(build[:, col])))
        scale = general[k, col] / build[k, col]
        assert np.max(np.abs(general[:, col] - scale * build[:, col])) <= \
            1e-12 * np.max(np.abs(general[:, col]))


def test_general_unreachable_range_is_a_branch_error(tmp_path, capsys):
    """x = +-5 lies beyond the branch, whose exact reach ends at the simple
    roots xi = -1 and 1, with no warning from numpy or scipy."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(MARCH_SET))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["general", "--algebra", str(alg), "--x-min", "-5",
                    "--x-max", "5", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == ("error: requested u range is unreachable on this branch "
                   "(covered [-1.37017, 0.972669])")
    assert not out.exists()


@pytest.mark.parametrize("quartic, cubic, covered", [
    # B4 = xi^4 + 1: two complex pairs, u finite at both infinite ends
    ("1", "0", "[-1.85407, 1.85407]"),
    # B4 = xi^3 + 1 on (-1, inf) from xi0 = 0: a root end and an infinite end
    ("0", "1/2", "[-1.40218, 2.80436]"),
])
def test_general_finite_u_branch_reports_its_reach(tmp_path, capsys, quartic,
                                                   cubic, covered):
    """A cubic or quartic B4 has finite u at an infinite branch end: the
    default x range in [-3, 3] overshoots it, and the error names the exact
    reach."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"C++": quartic, "C+0": cubic, "C00": "0",
                               "C0-": "0", "C--": "1", "C+": "0", "C0": "0",
                               "C-": "0", "d": "free", "n": 1}))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == ("error: requested u range is unreachable on this branch "
                   f"(covered {covered})")
    assert not out.exists()


def test_general_pole_beyond_turning_point_is_an_error(tmp_path, capsys):
    """B4 = 5/2 - xi^2, whose roots +-sqrt(5/2) are gauge poles with
    residues that are not positive integers: x = +-5 lies beyond the turning
    points, where the cos map has turned back into the branch, so no sample
    lands on a pole; the path from x0 still passes one."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"C00": "-1", "C--": "5/2", "C0": "1/2",
                               "C-": "1/2", "d": "free", "n": 8}))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--x-min", "-5",
                "--x-max", "5", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: gauge integration path crosses a pole at xi=1.58114"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("xi-min", "-1"), "--xi-min and --xi-max must be given together"),
    (("xi-max", "1"), "--xi-min and --xi-max must be given together"),
    (("x-min", "1", "x-max", "-1"),
     "--x-min must be below --x-max, got 1.0 and -1.0"),
    (("x-min", "0.5", "x-max", "0.5"),
     "--x-min must be below --x-max, got 0.5 and 0.5"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_general_range_flags_are_checked(tmp_path, capsys, source, flags,
                                         message):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(dict(MARCH_SET, n=1)))
    pairs = list(zip(flags[::2], flags[1::2]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in pairs))
    extra = ([arg for key, value in pairs for arg in (f"--{key}", value)]
             if source == "flag" else ["--config", str(cfg)])
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), *extra,
                "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()
