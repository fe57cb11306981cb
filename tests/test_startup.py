"""Start-up pays only for what a run uses: scipy serves the FD oracle and the
elliptic maps, so a run that reaches neither starts without it.  Each case
runs in a fresh interpreter and reads the module names it left loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2qes

SRC = Path(sl2qes.__file__).resolve().parents[1]

# runs the CLI arguments in argv[1] (none: import only), then prints the exit
# code and the scipy modules loaded as the last stdout line
CHILD = """
import json, sys
import sl2qes, sl2qes.cli
args = json.loads(sys.argv[1])
code = sl2qes.cli.main(args) if args else 0
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

QUADRATIC = {"C--": "1", "C0": "-2", "d": "free", "n": 2}
CUBIC = {"C+0": "1/2", "C--": "1", "d": "free", "n": 1}


def _run(args, tmp_path):
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(args)],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _general(tmp_path, data, *extra):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(data))
    return ["general", "--algebra", str(alg), *extra,
            "--out-dir", str(tmp_path / "run")]


@pytest.mark.parametrize("case", ["import", "list-families", "qes-build",
                                  "quadratic-general"])
def test_run_without_fd_or_elliptic_map_imports_no_scipy(tmp_path, case):
    args = {
        "import": [],
        "list-families": ["list-families"],
        "qes-build": ["build", "--family", "periodic-v1", "--alpha", "1",
                      "--beta", "1", "--a", "0", "--sign", "+", "--n", "2",
                      "--out-dir", str(tmp_path / "run")],
        "quadratic-general": _general(tmp_path, QUADRATIC, "--x-min", "-2",
                                      "--x-max", "2"),
    }[case]
    assert _run(args, tmp_path) == {"code": 0, "scipy": []}


def test_verify_loads_the_fd_solvers(tmp_path):
    got = _run(["verify", "--family", "harmonic", "--omega", "1",
                "--out-dir", str(tmp_path / "run")], tmp_path)
    assert got["code"] == 0
    assert {"scipy.linalg", "scipy.sparse.linalg"} <= set(got["scipy"])
    report = json.loads((tmp_path / "run" / "verification.json").read_text())
    assert report["all_pass"]


def test_cubic_general_loads_the_elliptic_integral(tmp_path):
    got = _run(_general(tmp_path, CUBIC), tmp_path)
    assert got["code"] == 0
    assert "scipy.special" in got["scipy"]
    assert (tmp_path / "run" / "wavefunctions.csv").exists()
