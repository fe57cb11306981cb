import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
