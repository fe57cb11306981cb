import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sl2qes
from sl2qes.algebra import AlgebraCoefficients, b_polynomials
from sl2qes.catalog import make_entry
from sl2qes import cli, pipeline
from sl2qes.errors import InvalidParameterError
from sl2qes.cli import main
from sl2qes.mapping import (
    Branch,
    WaveFunction,
    build_gauge,
    build_mapping,
    identity_shift,
)
from sl2qes.spectral import solve_algebraic_sector

from oracles import MARCH_SET
from test_pipeline import _child_stops_after_a_block, forking


def run(args):
    return main(args)


def test_list_families_output(capsys):
    assert run(["list-families"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert len(doc) == 13
    pt = next(item for item in doc if item["name"] == "poschl-teller")
    assert pt["params"]["B"] == "B >= alpha/2"


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


def test_verify_coulomb_points_count_u_nodes(tmp_path):
    out = tmp_path / "run"
    code = run(["verify", "--family", "coulomb", "--e2", "2", "--l", "0",
                "--n", "1", "--points", "801", "--out-dir", str(out)])
    assert code == 0
    grid = json.loads((out / "verification.json").read_text())["grid"]
    assert grid["points"] == 801
    assert grid["stretch"] == "u = 2 sqrt(x)"


@pytest.mark.parametrize("args, indices", [
    # the well reaches beyond x in [-2.8, 22]
    (["--family", "morse", "--alpha", "0.5", "--A", "4", "--B", "2",
      "--n", "7", "--j-max", "7"], list(range(8))),
    # the top level is eigenvalue 13, beyond levels + 6; levels 0 and 1
    # sit in tunnelling doublets whose E_R agree to 12 digits, and nearest
    # E_R picks members 1 and 3, the states their node counts name, though
    # only the last bits decide it
    (["--family", "hyperbolic-v1", "--gamma", "1", "--eta", "-1", "--a", "0",
      "--sign", "+", "--n", "6"], [1, 3, 5, 7, 9, 11, 13]),
])
def test_verify_derives_window_and_count(tmp_path, args, indices):
    out = tmp_path / "run"
    assert run(["verify", *args, "--out-dir", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert [row["fd_index"] for row in report["levels"]] == indices
    assert indices[-1] < report["grid"]["k"]


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


def _one_error_line(capsys, message):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["build", "--family", "harmonic", "--omega", "1",
      "--out-dir", "FILE/out"], "Not a directory"),
    (["list-families", "--json-out", "FILE/x.json"], "File exists"),
    (["general", "--algebra", "DIR", "--out-dir", "DIR/run"],
     "Is a directory"),
], ids=["build-out-dir", "list-families-json-out", "general-algebra"])
def test_os_errors_exit_2_by_name(tmp_path, capsys, argv, message):
    regular = tmp_path / "regular"
    regular.write_text("a file\n")
    argv = [arg.replace("FILE", str(regular)).replace("DIR", str(tmp_path))
            for arg in argv]
    assert run(argv) == 2
    _one_error_line(capsys, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regular"]


@forking
def test_a_failed_forked_child_exits_2_by_name(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(pipeline, "FORK_MIN_FLOATS", 0)
    monkeypatch.setattr(pipeline, "_write_rows", _child_stops_after_a_block)
    out = tmp_path / "run"
    assert run(["build", "--family", "harmonic", "--omega", "1",
                "--out-dir", str(out)]) == 2
    _one_error_line(capsys, "No space left on device")
    assert sorted(p.name for p in out.iterdir()) == [
        "potential.csv", "spectrum.json"]


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


def test_config_file_precedence(tmp_path, capsys):
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

    # a flag wins, but a bad config value it overrides still fails
    cfg.write_text("family = harmonic\nomega = abc\n")
    out3 = tmp_path / "c3"
    assert run(["build", "--config", str(cfg), "--omega", "2",
                "--out-dir", str(out3)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --omega: invalid float value: 'abc'")
    assert not out3.exists()


def test_console_script_path_reads_config_and_flags(tmp_path):
    """``main()`` with no argv reads sys.argv, as the installed sl2qes
    script calls it; a fresh interpreter runs the module."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = harmonic\nomega = 1\nj-max = 0\n")
    env = dict(os.environ)
    src = str(Path(sl2qes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2qes.cli", "build", "--config", str(cfg),
         "--omega", "2", "--out-dir", "run"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "run" / "spectrum.json").read_text())
    assert doc["params"]["omega"] == 2.0
    assert doc["levels"][0]["E"] == 1.0


def test_points_bounds_are_inclusive():
    base = ["verify", "--family", "harmonic", "--points"]
    for value in (31, 33, 999999):
        assert cli._shared_parser().parse_args(base + [str(value)]).points \
            == value


def test_samples_bounds_are_inclusive(tmp_path):
    """1 and 1000000 parse from a flag and from a config file; they are only
    parsed, never run."""
    parser = cli._shared_parser()
    cfg = tmp_path / "run.cfg"
    for command in ("build", "verify", "general"):
        sub = parser.parse_args([command]).subparser
        for value in (1, 1000000):
            cfg.write_text(f"samples = {value}\n")
            from_config = cli._config_flags(sub, cli._read_config(cfg))
            for argv in ([f"--samples={value}"], from_config):
                assert parser.parse_args([command, *argv]).samples == value


@pytest.mark.parametrize("argv, algebra, message", [
    (["general", "--xi0", "1e308"],
     {"C--": "1", "C0": "-2", "d": "free", "n": 2}, "x=-3.0: V = inf"),
    (["build", "--family", "hyperbolic-v1", "--gamma", "200", "--eta", "-1",
      "--a", "0", "--sign", "+"], None, "x=-3.0: V = nan"),
    # the FD window's plot-range scan names it too, not the continuum
    (["verify", "--family", "hyperbolic-v1", "--gamma", "200", "--eta", "-1",
      "--a", "0", "--sign", "+", "--n", "0"], None, "x=-3.0: V = nan"),
], ids=["general-huge-anchor", "build-overflowing-cosh",
        "verify-overflowing-cosh"])
def test_non_finite_potential_exits_2_and_writes_nothing(tmp_path, capsys,
                                                         argv, algebra,
                                                         message):
    if algebra is not None:
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps(algebra))
        argv = argv + ["--algebra", str(alg)]
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: the potential is not finite at {message}"
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("command, flag, value, message", [
    ("verify", "tolerance", "inf", "must be finite and positive, got inf"),
    ("verify", "tolerance", "nan", "must be finite and positive, got nan"),
    ("verify", "tolerance", "0", "must be finite and positive, got 0"),
    ("verify", "tolerance", "-1", "must be finite and positive, got -1"),
    ("verify", "tolerance", "abc", "invalid float value: 'abc'"),
    # refused before any grid is built: the 2h grid takes every other node
    # of the h grid, and the h/2 grid has 2 points - 1
    ("verify", "points", "15", "must be between 31 and 999999 and odd, "
                               "got 15"),
    ("verify", "points", "29", "must be between 31 and 999999 and odd, "
                               "got 29"),
    ("verify", "points", "32", "must be between 31 and 999999 and odd, "
                               "got 32"),
    ("verify", "points", "1000001",
     "must be between 31 and 999999 and odd, got 1000001"),
    ("verify", "points", "100000000",
     "must be between 31 and 999999 and odd, got 100000000"),
    ("general", "e-convention", "nan", "must be finite, got nan"),
    ("general", "u-a", "inf", "must be finite, got inf"),
    ("general", "x-min", "-inf", "must be finite, got -inf"),
    ("general", "x-max", "inf", "must be finite, got inf"),
    ("general", "xi0", "inf", "must be finite, got inf"),
    # a branch may run to +-inf, but a nan bound is named, not reported as
    # an empty branch
    ("general", "xi-min", "nan", "must not be nan, got nan"),
    ("general", "xi-max", "nan", "must not be nan, got nan"),
    # refused before any sample is taken
    ("verify", "samples", "0", "must be between 1 and 1000000, got 0"),
    ("verify", "samples", "1000001",
     "must be between 1 and 1000000, got 1000001"),
    ("general", "samples", "0", "must be between 1 and 1000000, got 0"),
    ("general", "samples", "1000001",
     "must be between 1 and 1000000, got 1000001"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_float_is_a_usage_error(tmp_path, capsys, source, command,
                                           flag, value, message):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(dict(MARCH_SET, n=1)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    base = (["verify", "--family", "harmonic", "--omega", "2"]
            if command == "verify" else ["general", "--algebra", str(alg)])
    # "--x-min=-inf": a separate "-inf" would read as a flag
    extra = [f"--{flag}={value}"] if source == "flag" else ["--config",
                                                            str(cfg)]
    out = tmp_path / "run"
    assert run(base + extra + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --{flag}: {message}")
    assert not out.exists()


def test_infinite_branch_ends_are_accepted(tmp_path):
    """Only the anchor must be finite: a branch may run to +-inf."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"C--": "1", "C0": "-2", "d": "free", "n": 2}))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--xi-min=-inf",
                "--xi-max=inf", "--out-dir", str(out)]) == 0
    branch = json.loads((out / "spectrum.json").read_text())["branch"]
    assert (branch["xi_min"], branch["xi_max"]) == (-np.inf, np.inf)
    assert np.isfinite(branch["xi0"])


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


@pytest.mark.parametrize("b", ["0.25", "-1"])
def test_poschl_teller_needs_b_at_least_half_alpha(tmp_path, capsys, b):
    # below alpha/2 the potential is that of alpha - B, whose Dirichlet
    # levels are not the listed E_j
    out = tmp_path / "out"
    assert run(["verify", "--family", "poschl-teller", "--alpha", "1",
                "--A", "3", "--B", b, "--out-dir", str(out)]) == 2
    assert "B >= alpha/2" in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("family", ["morse", "scarf-ii"])
def test_level_at_the_continuum_edge_fails_by_name(tmp_path, capsys, family):
    # A = 3 + 1e-10 keeps j = 3 at E_3 = -(1e-10)^2: its tail never decays
    # before V stops being finite far out, and the window scan says so
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["verify", "--family", family, "--alpha", "1",
                    "--A", "3.0000000001", "--B", "1", "--n", "3",
                    "--j-max", "3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: the top level E=")
    assert "sits too close to the continuum: V is not finite at x=" in err
    assert err.endswith("has reached 0 of 9")
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
        psi = WaveFunction(build_gauge(bp, mapping, x0), lv.b, mapping)(x)
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
    x range [-3, 3] overshoots it, and the error names the exact reach."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"C++": quartic, "C+0": cubic, "C00": "0",
                               "C0-": "0", "C--": "1", "C+": "0", "C0": "0",
                               "C-": "0", "d": "free", "n": 1}))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--x-min", "-3",
                "--x-max", "3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == ("error: requested u range is unreachable on this branch "
                   f"(covered {covered})")
    assert not out.exists()


@pytest.mark.parametrize("quartic, cubic, reach", [
    ("1", "0", (-1.85407, 1.85407)),
    ("0", "1/2", (-1.40218, 2.80436)),
])
def test_general_default_range_stays_inside_the_reach(tmp_path, quartic,
                                                      cubic, reach):
    """With no --x-min/--x-max, each default end of [-3, 3] beyond the
    reach moves in to 99% of it, and every sample is finite."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"C++": quartic, "C+0": cubic, "C00": "0",
                               "C0-": "0", "C--": "1", "C+": "0", "C0": "0",
                               "C-": "0", "d": "free", "n": 1}))
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--out-dir", str(out)]) == 0
    _, pot = _read_columns(out / "potential.csv")
    _, waves = _read_columns(out / "wavefunctions.csv")
    assert pot[0, 0] == pytest.approx(0.99 * reach[0], abs=1e-5)
    assert pot[-1, 0] == pytest.approx(0.99 * reach[1], abs=1e-5)
    assert np.all(np.isfinite(pot)) and np.all(np.isfinite(waves))


@pytest.mark.parametrize("coeffs, branch, reach", [
    # B4 = 3/2 + xi/2 - xi^2, the cos shape on (-1, 3/2) from its middle:
    # u = -+pi/2 at the ends, both gauge poles
    ({"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
      "n": 4}, Branch(-1.0, 1.5, sign=1, xi0=0.25),
     (-math.pi / 2, math.pi / 2)),
    # B4 = 1 + xi, the sqrt shape on (-1, inf) from xi0 = 0: u = -2 at the
    # root, and all of u > 0 toward the infinite end
    ({"C0-": "1/2", "C--": "1", "C0": "-1", "C-": "1/2", "n": 2},
     Branch(-1.0, math.inf, sign=1, xi0=0.0), (-2.0, math.inf)),
], ids=["cos", "sqrt"])
def test_general_default_range_stops_at_a_closed_form_branch_end(
        tmp_path, coeffs, branch, reach):
    """A closed-form map reaches a finite branch end at a finite u: a
    default end of [-3, 3] beyond it moves in to 99% of it, and every
    sample is finite; an explicit range is taken as given."""
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(coeffs))
    bp = b_polynomials(AlgebraCoefficients.from_json_dict(coeffs))
    # the branch that general picks by default
    assert build_mapping(bp, branch).u_reach == pytest.approx(reach,
                                                              rel=1e-15)
    lo, hi = reach
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--out-dir", str(out)]) == 0
    _, pot = _read_columns(out / "potential.csv")
    _, waves = _read_columns(out / "wavefunctions.csv")
    assert pot[0, 0] == 0.99 * lo
    assert pot[-1, 0] == (0.99 * hi if hi < 3 else 3.0)
    assert np.all(np.isfinite(pot)) and np.all(np.isfinite(waves))
    explicit = tmp_path / "explicit"
    assert run(["general", "--algebra", str(alg), "--x-min", "-1.5",
                "--x-max", "1.5", "--out-dir", str(explicit)]) == 0
    assert _read_columns(explicit / "potential.csv")[1][[0, -1], 0].tolist() \
        == [-1.5, 1.5]


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


# ---------------------------------------------------------------------------
# the --algebra file is outside input: each bad value exits 2 by its key

_RANGE = "must be a finite real number within the float range"


def _algebra_text(**changes) -> str:
    """MARCH_SET at n = 2 as JSON text, each changed value written verbatim
    (so NaN, 1e999 and null stay literal); a change to None drops the key."""
    fields = {key: json.dumps(value)
              for key, value in dict(MARCH_SET, n=2).items()}
    fields.update(changes)
    return "{" + ", ".join(f"{json.dumps(key)}: {value}"
                           for key, value in fields.items()
                           if value is not None) + "}"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "coefficient data must be a JSON object, got [1, 2]"),
    (_algebra_text(n=None), "n must be a JSON integer >= 0; it is missing"),
    (_algebra_text(n="2.5"), "n must be a JSON integer >= 0; got 2.5"),
    (_algebra_text(n="true"), "n must be a JSON integer >= 0; got True"),
    (_algebra_text(n='"2"'), "n must be a JSON integer >= 0; got '2'"),
    (_algebra_text(C00="null"), f"C00 {_RANGE}, got None"),
    (_algebra_text(C00="false"), f"C00 {_RANGE}, got False"),
    (_algebra_text(C00="NaN"), f"C00 {_RANGE}, got nan"),
    (_algebra_text(C00="-Infinity"), f"C00 {_RANGE}, got -inf"),
    (_algebra_text(C00="1e999"), f"C00 {_RANGE}, got inf"),
    (_algebra_text(C00='"1e999"'), f"C00 {_RANGE}, got '1e999'"),
    (_algebra_text(d="null"), f"d {_RANGE}, got None"),
    (_algebra_text(**{"C0+": '"1"'}),
     "unknown coefficient key 'C0+'; known: C++, C+0, C00, C0-, C--, C+, "
     "C0, C-, d, n"),
], ids=["array", "n-missing", "n-float", "n-bool", "n-string", "null",
        "bool", "nan", "infinity", "number-1e999", "string-1e999", "d-null",
        "typo-key"])
def test_general_algebra_file_is_validated(tmp_path, capsys, text, message):
    with pytest.raises(InvalidParameterError) as exc:
        AlgebraCoefficients.from_json_dict(json.loads(text))
    assert str(exc.value) == message
    alg = tmp_path / "alg.json"
    alg.write_text(text)
    out = tmp_path / "run"
    assert run(["general", "--algebra", str(alg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "harmonic", "--omega", "1e200", "--n", "1"],
    ["build", "--family", "morse", "--alpha", "1e-200", "--A", "1e200",
     "--B", "1"],
], ids=["harmonic-verify", "morse-build"])
def test_float_overflow_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: a value exceeds the float range (")
    assert not out.exists()


@pytest.mark.parametrize("route, argv, config, algebra, message", [
    ("flag", ["build", "--family", "harmonic", "--omega", "1", "--n", "1/0"],
     None, None, "n must be a non-negative integer"),
    ("flag", ["build", "--family", "coulomb", "--e2", "2", "--l", "1/0"],
     None, None, "l must be a non-negative integer"),
    ("config", ["build", "--family", "harmonic", "--omega", "1"],
     "n = 1/0\n", None, "n must be a non-negative integer"),
    ("json", ["general"], None, _algebra_text(**{"C--": '"1/0"'}),
     f"C-- {_RANGE}, got '1/0'"),
    ("json", ["general"], None, _algebra_text(d='"1/0"'),
     f"d {_RANGE}, got '1/0'"),
], ids=["flag-n", "flag-l", "config-n", "json-C--", "json-d"])
def test_zero_denominator_is_a_usage_error(tmp_path, route, argv, config,
                                           algebra, message):
    """A rational string with denominator 0 exits 2 with the value's
    message, from a fresh interpreter, not with a traceback."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    if algebra is not None:
        (tmp_path / "alg.json").write_text(algebra)
        argv = argv + ["--algebra", "alg.json"]
    env = dict(os.environ)
    src = str(Path(sl2qes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2qes.cli", *argv, "--out-dir", "run"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# one parser per process

@pytest.fixture
def parser_builds(monkeypatch):
    """The number of build_parser calls from here on, starting from a
    process that has not built its parser yet."""
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    yield calls
    cli._shared_parser.cache_clear()


def test_plain_requests_share_one_parser(tmp_path, parser_builds, capsys):
    for i in range(3):
        assert run(["build", "--family", "harmonic", "--omega", "2",
                    "--out-dir", str(tmp_path / str(i))]) == 0
    assert run(["list-families"]) == 0
    assert len(parser_builds) == 1


def test_config_values_stay_with_their_request(tmp_path, parser_builds,
                                               capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 1\nsamples = 11\njson-samples = true\n")
    base = ["build", "--family", "harmonic"]
    assert run(base + ["--config", str(cfg),
                       "--out-dir", str(tmp_path / "cfg")]) == 0
    assert (tmp_path / "cfg" / "potential.json").exists()
    assert len(parser_builds) == 1      # the config request built none
    # the config's omega is gone from the next request, which has none
    out = tmp_path / "plain"
    assert run(base + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: missing parameters: omega"
    assert not out.exists()
    args = cli._shared_parser().parse_args(base)
    assert (args.omega, args.samples, args.json_samples) == (None, 401, False)


def test_requests_repeat_around_a_config_request(tmp_path, parser_builds,
                                                 capsys):
    argv = ["verify", "--family", "morse", "--alpha", "1", "--A", "3",
            "--B", "1", "--n", "2"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A = 4\nj-max = 1\nsamples = 21\npoints = 801\n")
    outs = [tmp_path / name for name in ("first", "config", "second")]
    assert run(argv + ["--out-dir", str(outs[0])]) == 0
    assert run(["verify", "--family", "morse", "--alpha", "1", "--B", "1",
                "--n", "2", "--config", str(cfg),
                "--out-dir", str(outs[1])]) == 0
    assert run(argv + ["--out-dir", str(outs[2])]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[2].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()
    assert (outs[1] / "potential.csv").read_bytes() != \
        (outs[0] / "potential.csv").read_bytes()


HELP_ARGV = [["--help"], ["list-families", "--help"], ["build", "--help"],
             ["verify", "--help"], ["general", "--help"]]


def test_help_text_is_the_built_parsers(tmp_path, parser_builds, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 1\n")
    texts = []
    for argv in HELP_ARGV * 2:
        assert run(argv) == 0
        texts.append(capsys.readouterr().out)
        # a config request between the rounds changes no help text
        assert run(["build", "--family", "harmonic", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
    assert texts[:len(HELP_ARGV)] == texts[len(HELP_ARGV):]
    assert texts[0] == cli.build_parser().format_help()
    assert "usage: sl2qes build [-h] [--config CONFIG]" in texts[2]
