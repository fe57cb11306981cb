import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import sl2qes.cli

from oracles import MARCH_SET

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name,
                                                  directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_catalog_sweep_passes(capsys):
    assert _load("verify_catalog").main() == 0
    out = capsys.readouterr().out
    assert "all families verified" in out and "sweep took" in out
    lines = out.splitlines()
    assert lines[0].split() == ["family", "sign", "n", "levels", "x_min",
                                "x_max", "points", "k", "worst", "diff",
                                "status"]
    # each case prints the window, points and k its report derived; the
    # points are the pilot h grid's, from the window and E_top - V_min
    harmonic = lines[1].split()
    assert harmonic[:8] == ["harmonic", "-", "3", "4", "-5.605", "5.605",
                            "115", "4"]
    # a half line's wall sits at x = 0
    coulomb = next(line.split() for line in lines if line.startswith("coul"))
    assert coulomb[4:8] == ["0", "58.42", "85", "3"]


def test_band_structure_script_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["band_structure.py"])
    assert _load("band_structure").main() == 0
    assert "algebraic sector" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--family", "harmonic"], "argument --family: invalid choice: "
                               "'harmonic'"),
    (["--count", "0"], "error: --count must be at least 1"),
    (["--points", "15"], "error: --points must be at least 16"),
    (["--points", "1000001"], "error: --points must be at least 16 and at "
                              "most 1000000, got 1000001"),
    (["--beta", "0"], "error: beta must be nonzero"),
    (["--count", "30", "--points", "16"], "error: k=30 must be at most 14"),
    (["--alpha", "1e200"], "error: a value exceeds the float range"),
], ids=["not-periodic", "count", "points", "points-above", "package-error",
        "k-limit", "overflow"])
def test_band_structure_script_rejects_bad_input(monkeypatch, capsys, args,
                                                 message):
    monkeypatch.setattr(sys, "argv", ["band_structure.py", *args])
    try:
        code = _load("band_structure").main()
    except SystemExit as exc:   # a usage error, printed by argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_benchmark_tracer_wraps_and_restores(tmp_path):
    """perfbench/tracing.py wraps package functions by name; a rename must
    fail here rather than silently break a traced benchmark run."""
    tracing = _load("tracing", ROOT / "perfbench")
    functions = {(mod, attr): getattr(sys.modules[f"sl2qes.{mod}"], attr)
                 for mod, attr, _ in tracing.FUNCTIONS}
    methods = {(mod, cls, name): getattr(sys.modules[f"sl2qes.{mod}"],
                                         cls).__dict__[name]
               for mod, cls, name, _ in tracing.METHODS}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), original in functions.items():
            wrapped = getattr(sys.modules[f"sl2qes.{mod}"], attr)
            assert wrapped.__wrapped__ is original, f"{mod}.{attr}"
        for (mod, cls, name), original in methods.items():
            owner = getattr(sys.modules[f"sl2qes.{mod}"], cls)
            assert owner.__dict__[name].__wrapped__ is original
        tracer.open_case("list")
        assert sl2qes.cli.main(["list-families", "--json-out",
                                str(tmp_path / "families.json")]) == 0
        tracer.close_case()
        # the counters read the wrapped functions' arguments by name
        tracer.open_case("build")
        assert sl2qes.cli.main(["build", "--family", "periodic-v1",
                                "--alpha", "1", "--beta", "1", "--a", "0",
                                "--sign", "+", "--n", "3",
                                "--out-dir", str(tmp_path / "build")]) == 0
        tracer.close_case()
        # an exactly solvable verify runs through the same sector chain
        tracer.open_case("es-verify")
        assert sl2qes.cli.main(["verify", "--family", "morse", "--alpha", "1",
                                "--A", "3", "--B", "1", "--n", "2",
                                "--j-max", "2",
                                "--out-dir", str(tmp_path / "es")]) == 0
        tracer.close_case()
        # a half-line verify: the solves at 2h, h and h/2 all go through
        # fd_eigensolve, with no cutoff to halve
        tracer.open_case("coulomb")
        assert sl2qes.cli.main(["verify", "--family", "coulomb", "--e2", "2",
                                "--l", "0", "--n", "2", "--j-max", "2",
                                "--out-dir", str(tmp_path / "coulomb")]) == 0
        tracer.close_case()
        # general mode: one gauge pass per run, whatever the level count;
        # the cubic B4 is elliptic, the quadratic 5/2 + xi/2 - xi^2 a cos
        quadratic = dict(MARCH_SET, **{"C+0": "0", "C00": "-1",
                                       "C0-": "1/4", "C--": "5/2"})
        for case, data in (("general-2", dict(MARCH_SET, n=2)),
                           ("general-8", MARCH_SET),
                           ("quadratic", quadratic)):
            alg = tmp_path / f"{case}.json"
            alg.write_text(json.dumps(data))
            tracer.open_case(case)
            assert sl2qes.cli.main(["general", "--algebra", str(alg),
                                    "--x-min", "-0.5", "--x-max", "0.5",
                                    "--out-dir", str(tmp_path / case)]) == 0
            tracer.close_case()
    finally:
        tracer.uninstall()

    assert {"cli.main", "pipeline.write_json_atomic"} <= {
        span[3] for span in tracer.spans if span[0] == "list"}
    build = [span[3] for span in tracer.spans if span[0] == "build"]
    assert "algebra.hamiltonian_matrix" in build
    assert tracer.counts["build"]["algebra.entries"] == 16
    # every artifact goes through a traced writer: write_ms and
    # bytes_written see all three files
    assert build.count("pipeline.write_json_atomic") == 1
    assert build.count("pipeline.write_csv_atomic") == 2
    assert tracer.counts["build"]["pipeline.bytes_written"] == sum(
        (tmp_path / "build" / name).stat().st_size for name in
        ("potential.csv", "spectrum.json", "wavefunctions.csv"))
    es = [span[3] for span in tracer.spans if span[0] == "es-verify"]
    assert {"catalog.CatalogEntry.spectral",
            "spectral.solve_algebraic_sector", "mapping.build_gauge",
            "fdsolve.fd_eigensolve"} <= set(es)
    coulomb = tracer.counts["coulomb"]
    assert coulomb["fdsolve.solves"] == 3
    assert coulomb["fdsolve.grid_points"] == 43 + 85 + 169
    assert coulomb["fdsolve.eigs"] == 3 * 3
    # build and general share one gauge rule: one gauge pass per grid, as
    # the levels that share a gauge are sampled as one block; the writer
    # takes their rows from WaveFunction.on, not from a traced call
    assert build.count("mapping.GaugeFactor.__call__") == 1
    assert build.count("mapping.WaveFunction.__call__") == 0
    # so the potential's samples are the only ones counted
    assert tracer.counts["build"]["pipeline.samples"] == 401
    for n in (2, 8):
        names = [span[3] for span in tracer.spans if span[0] == f"general-{n}"]
        assert names.count("mapping.GaugeFactor.__call__") == 1
        assert names.count("mapping.WaveFunction.__call__") == 0
    # every map is exact and the gauge a closed form: no run makes a quad
    # call or a numeric map
    for case in ("general-2", "general-8", "quadratic"):
        assert tracer.counts[case]["mapping.quad_calls"] == 0
        assert tracer.counts[case]["mapping.numeric_maps"] == 0
    for (mod, attr), original in functions.items():
        assert getattr(sys.modules[f"sl2qes.{mod}"], attr) is original
    for (mod, cls, name), original in methods.items():
        owner = getattr(sys.modules[f"sl2qes.{mod}"], cls)
        assert owner.__dict__[name] is original


def test_artifact_digest_repeats(monkeypatch, tmp_path):
    """Two digests of the same cases agree line for line, and each line
    names the case, its exit code and a sha256 per output."""
    monkeypatch.chdir(tmp_path)
    digest = _load("artifact_digest")
    workloads = digest._load_workloads()
    cases = [("catalog-verify", workloads.catalog_verify(1)[0]),
             ("general-numeric", workloads.general_numeric(1)[0]),
             ("extra", digest.EXTRA[0])]
    first = [digest.case_line(name, case) for name, case in cases]
    second = [digest.case_line(name, case) for name, case in cases]
    assert first == second
    sha = "[0-9a-f]{64}"
    out = f"{sha}:[0-7]{{3,4}}"     # an artifact's sha256 and its mode
    assert re.fullmatch(
        f"catalog-verify default-00-harmonic exit=0 stdout={sha} "
        f"potential.csv={out} spectrum.json={out} verification.json={out} "
        f"wavefunctions.csv={out}", first[0])
    assert re.fullmatch(
        f"general-numeric set\\d-n2 exit=0 stdout={sha} potential.csv={out} "
        f"spectrum.json={out} wavefunctions.csv={out}", first[1])
    # list-families writes no artifacts, only stdout
    assert re.fullmatch(f"extra list-families exit=0 stdout={sha}", first[2])
    assert list(tmp_path.iterdir()) == []   # every case ran in its own dir
