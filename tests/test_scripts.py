import importlib.util
import json
import re
import sys
from pathlib import Path

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


def test_band_structure_script_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["band_structure.py"])
    assert _load("band_structure").main() == 0
    assert "algebraic sector" in capsys.readouterr().out


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
    # build and general share one gauge rule: one gauge pass per grid
    assert build.count("mapping.GaugeFactor.__call__") == 1
    assert build.count("mapping.WaveFunction.__call__") == 4
    for n in (2, 8):
        names = [span[3] for span in tracer.spans if span[0] == f"general-{n}"]
        assert names.count("mapping.GaugeFactor.__call__") == 1
        assert names.count("mapping.WaveFunction.__call__") == n + 1
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
             ("general-numeric", workloads.general_numeric(1)[0])]
    first = [digest.case_line(name, case) for name, case in cases]
    second = [digest.case_line(name, case) for name, case in cases]
    assert first == second
    sha = "[0-9a-f]{64}"
    assert re.fullmatch(
        f"catalog-verify default-00-harmonic exit=0 stdout={sha} "
        f"potential.csv={sha} spectrum.json={sha} verification.json={sha} "
        f"wavefunctions.csv={sha}", first[0])
    assert re.fullmatch(
        f"general-numeric set\\d-n2 exit=0 stdout={sha} potential.csv={sha} "
        f"spectrum.json={sha} wavefunctions.csv={sha}", first[1])
    assert list(tmp_path.iterdir()) == []   # every case ran in its own dir
