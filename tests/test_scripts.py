import importlib.util
import sys
from pathlib import Path

import sl2qes.cli

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
    finally:
        tracer.uninstall()

    assert {"cli.main", "pipeline.write_json_atomic"} <= {
        span[3] for span in tracer.spans if span[0] == "list"}
    assert "algebra.hamiltonian_matrix" in {
        span[3] for span in tracer.spans if span[0] == "build"}
    assert tracer.counts["build"]["algebra.entries"] == 16
    for (mod, attr), original in functions.items():
        assert getattr(sys.modules[f"sl2qes.{mod}"], attr) is original
    for (mod, cls, name), original in methods.items():
        owner = getattr(sys.modules[f"sl2qes.{mod}"], cls)
        assert owner.__dict__[name] is original
