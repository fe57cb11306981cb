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


def _python(tmp_path, *argv):
    """A fresh interpreter run with the package on its path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def _run(args, tmp_path):
    proc = _python(tmp_path, "-c", CHILD, json.dumps(args))
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
    assert "scipy.linalg" in got["scipy"]
    assert not [m for m in got["scipy"] if m.startswith("scipy.sparse")]
    report = json.loads((tmp_path / "run" / "verification.json").read_text())
    assert report["all_pass"]


@pytest.mark.parametrize("points", [None, 1201], ids=["derived",
                                                     "points-1201"])
def test_periodic_verify_loads_no_sparse_module(tmp_path, points):
    # the derived rings have at most a few hundred cell nodes; at 1201
    # points the h grid has 1200 and the h/2 grid 2400: every ring size
    # takes the one tridiagonal solve
    args = ["verify", "--family", "periodic-v3", "--alpha", "1", "--beta",
            "1", "--a", "0", "--sign", "-", "--n", "1",
            "--out-dir", str(tmp_path / "run")]
    got = _run(args + (["--points", str(points)] if points else []),
               tmp_path)
    assert got["code"] == 0
    assert not [m for m in got["scipy"] if m.startswith("scipy.sparse")]
    assert "scipy.linalg" in got["scipy"]
    report = json.loads((tmp_path / "run" / "verification.json").read_text())
    assert report["all_pass"]
    if points:
        assert report["grid"]["points"] == points


def test_cubic_general_loads_the_elliptic_integral(tmp_path):
    got = _run(_general(tmp_path, CUBIC), tmp_path)
    assert got["code"] == 0
    assert "scipy.special" in got["scipy"]
    assert (tmp_path / "run" / "wavefunctions.csv").exists()


def test_import_loads_no_process_pool(tmp_path):
    # the artifact writer forks with os.fork itself: no pool module loads,
    # and its worker's socket module loads with the first worker
    proc = _python(tmp_path, "-c", "import json, sys\n"
                   "import sl2qes, sl2qes.cli\n"
                   "print(json.dumps(sorted(m for m in sys.modules if "
                   "m.split('.')[0] in ('multiprocessing', 'concurrent', "
                   "'socket'))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_one_shot_verify_starts_no_worker(tmp_path):
    # a process's first verify formats its artifacts itself: it forks no
    # table writer and opens no socket pair; its second hands them to one.
    # (scipy's import chain loads the socket module in any verify.)
    code = (
        "import json, os, socket, sys\n"
        "import sl2qes.cli, sl2qes.pipeline\n"
        "made, fork, pair = [], os.fork, socket.socketpair\n"
        "os.fork = lambda: made.append('fork') or fork()\n"
        "socket.socketpair = lambda: made.append('pair') or pair()\n"
        "seen = []\n"
        "for run in ('first', 'second'):\n"
        "    code = sl2qes.cli.main(json.loads(sys.argv[1]) + [run])\n"
        "    seen.append([code, *made])\n"
        "print(json.dumps({'seen': seen,\n"
        "                  'may': sl2qes.pipeline._writer_may_run()}))\n")
    args = ["verify", "--family", "harmonic", "--omega", "1", "--out-dir"]
    proc = _python(tmp_path, "-c", code, json.dumps(args))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["seen"][0] == [0]
    assert got["seen"][1] == ([0, "pair", "fork"] if got["may"] else [0])
    for run in ("first", "second"):
        assert (tmp_path / run / "verification.json").exists()
