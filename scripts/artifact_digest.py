#!/usr/bin/env python3
"""Print a digest of every benchmark case's exit code, stdout and artifacts.

Usage, from the root of a checkout:

    python3 scripts/artifact_digest.py --src . --seed 1 > new.txt
    python3 scripts/artifact_digest.py --src ../old --seed 1 > old.txt
    diff old.txt new.txt

The case lists come from this checkout's ``perfbench/workloads.py``, so two
digests made with the same script run the same cases; ``--workload extra``
runs instead a fixed list of requests that no benchmark workload makes
(``EXTRA``), and ``all`` is the three benchmark workloads.  Each case runs
in process through ``sl2qes.cli.main`` of the package under ``<src>/src``,
in a fresh temporary directory with relative paths, so no path of the
machine reaches stdout.  A request with ``before`` runs that request first
into the same out dir; only the case's own stdout is digested.  One line
per case:

    <workload> <case id> exit=<code> stdout=<sha256> <artifact>=<sha256>:<mode> ...

with the artifacts in name order, each with its permission bits in octal
(644 under umask 022), so a change of mode shows in a diff too.  Stderr is
left out: numpy's warnings name the source file, which differs between
checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog-verify", "sector-build", "general-numeric")
# BLAS threads can change the last bits of a dense eigensolve
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Request(NamedTuple):
    """One fixed command-line request, run like a benchmark case."""

    case_id: str
    args: tuple
    algebra: dict | None = None
    before: tuple | None = None     # a request run first into the out dir

    def argv(self, out_dir: str, algebra_path: str) -> list[str]:
        args = list(self.args)
        if self.algebra is not None:
            args += ["--algebra", algebra_path]
        if args[0] != "list-families":
            args += ["--out-dir", out_dir]
        return args


EXTRA = (
    Request("list-families", ("list-families",)),
    Request("build-harmonic-json", ("build", "--family", "harmonic",
                                    "--omega", "2", "--n", "0", "--j-max",
                                    "5", "--json-samples")),
    Request("verify-coulomb", ("verify", "--family", "coulomb", "--e2", "2",
                               "--l", "2", "--n", "1", "--j-max", "2")),
    Request("verify-poschl-teller", ("verify", "--family", "poschl-teller",
                                     "--alpha", "1", "--A", "6", "--B", "1",
                                     "--n", "2")),
    Request("general-cubic", ("general",),
            {"C+0": "1/2", "C--": "1", "n": 1}),
    Request("general-quartic", ("general", "--x-min=-1.5", "--x-max=1.5"),
            {"C++": "1", "C00": "2", "C--": "1", "n": 2}),
    # a sector with a complex pair of levels
    Request("general-complex-pair", ("general",),
            {"C++": "-2", "C+0": "-1", "C00": "-3", "C0-": "1", "C--": "1",
             "C0": "1/3", "C-": "-3", "n": 3}),
    # each early exit's fallback: B4 = (xi - 1)^2 (a double root, the exp
    # shape) and B4 = (xi - 1)^2 (xi + 2) keep the squarefree split; B4 =
    # 1 + xi (the sqrt shape) skips it; an upper-triangular sector whose
    # diagonal repeats entries skips the refine step
    Request("general-double-root-exp", ("general",),
            {"C00": "1", "C0-": "-1", "C--": "1", "C0": "1/2", "C-": "1/3",
             "n": 2}),
    Request("general-linear-sqrt", ("general", "--x-min=-1", "--x-max=1"),
            {"C0-": "1/2", "C--": "1", "C0": "-1", "C-": "1/2", "n": 2}),
    Request("general-cubic-double-root", ("general",),
            {"C+0": "1/2", "C0-": "-3/2", "C--": "2", "C0": "1/2",
             "C-": "1/4", "n": 2}),
    Request("general-repeated-diagonal", ("general", "--x-min=-1",
                                          "--x-max=1"),
            {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
             "n": 4}),
    # an anchor so large that the map overflows: V is not finite
    Request("general-huge-anchor", ("general", "--xi0", "1e308"),
            {"C--": "1", "C0": "-2", "d": "free", "n": 2}),
    # 1000 rows of 22 columns and 1000-long JSON arrays: many kernel pass
    # edges
    Request("build-json-samples-1000", ("build", "--family", "periodic-v1",
                                        "--alpha", "1", "--beta", "1", "--a",
                                        "0", "--sign", "+", "--n", "20",
                                        "--samples", "1000",
                                        "--json-samples")),
    # the hard verifies: two attractive inverse-square walls (s = B/alpha
    # below 1), a deep double well at n = 6, and a wall exponent near 1
    Request("verify-poschl-teller-attractive-1", (
        "verify", "--family", "poschl-teller", "--alpha", "1.432",
        "--A", "10.112", "--B", "0.731", "--n", "3")),
    Request("verify-poschl-teller-attractive-2", (
        "verify", "--family", "poschl-teller", "--alpha", "1", "--A", "8",
        "--B", "0.6", "--n", "2")),
    Request("verify-hyperbolic-v1-n6", (
        "verify", "--family", "hyperbolic-v1", "--gamma", "1", "--eta", "-1",
        "--a", "0", "--sign", "+", "--n", "6")),
    Request("verify-poschl-teller-near-s1", (
        "verify", "--family", "poschl-teller", "--alpha", "1.481",
        "--A", "12.222", "--B", "1.536", "--n", "3")),
    # 2000 rows of 82 columns, above pipeline.FORK_MIN_FLOATS: a forked
    # child formats the table's last rows
    Request("build-periodic-v1-n80-forked", ("build", "--family",
                                             "periodic-v1", "--alpha", "1",
                                             "--beta", "1", "--a", "0",
                                             "--sign", "+", "--n", "80",
                                             "--samples", "2000")),
    # 3000 rows of 162 columns: a forked build whose parent and child each
    # sample their rows in several row blocks (mapping.ROW_FLOATS)
    Request("build-periodic-v1-n160-forked-row-blocks", (
        "build", "--family", "periodic-v1", "--alpha", "1", "--beta", "1",
        "--a", "0", "--sign", "+", "--n", "160", "--samples", "3000")),
    # forked general requests: 4000 rows of 10 columns, whose child samples
    # its own rows; and 4000 rows of 6 on [-3, 3], where the gauge's pole
    # at xi = 3/2 is named before the fork and nothing is written
    Request("general-cos-n8-forked", ("general", "--x-min=-1", "--x-max=1",
                                      "--samples", "4000"),
            {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
             "n": 8}),
    Request("general-cos-pole-forked", ("general", "--x-min=-3", "--x-max=3",
                                        "--samples", "4000"),
            {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
             "n": 4}),
    # the default x range of the cos shape, which stops short of both
    # branch ends (u = -+pi/2)
    Request("general-cos-default-range", ("general",),
            {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
             "n": 4}),
    # 186 and 187 rows of 22 columns: 4092 and 4114 table floats, one on
    # each side of floattext.CHUNK, the size of a kernel pass
    Request("build-periodic-v1-n20-below-chunk", (
        "build", "--family", "periodic-v1", "--alpha", "1.2", "--beta",
        "0.9", "--a", "0.1", "--sign", "+", "--n", "20", "--samples",
        "186")),
    Request("build-periodic-v1-n20-above-chunk", (
        "build", "--family", "periodic-v1", "--alpha", "1.2", "--beta",
        "0.9", "--a", "0.1", "--sign", "+", "--n", "20", "--samples",
        "187")),
    # tiny requests: tables of 1 and 16 rows
    Request("build-samples-1", ("build", "--family", "harmonic", "--omega",
                                "1", "--samples", "1")),
    Request("build-samples-16", ("build", "--family", "morse", "--alpha",
                                 "1", "--A", "4", "--B", "2", "--n", "1",
                                 "--samples", "16")),
    Request("general-samples-16", ("general", "--x-min=-1", "--x-max=1",
                                   "--samples", "16"),
            {"C00": "-1", "C0-": "1/4", "C--": "3/2", "C0": "0", "C-": "1/3",
             "n": 4}),
    # integers and an exact 0.0 in one kernel pass: x = -5..5 with V =
    # 25.0, 16.0, ...; and integer x with psi_1 = 0.0 at x = 0.0
    Request("build-harmonic-integer-grid", ("build", "--family", "harmonic",
                                            "--omega", "2", "--samples",
                                            "11")),
    Request("build-scarf-ii-odd-zero", ("build", "--family", "scarf-ii",
                                        "--alpha", "1", "--A", "2", "--B",
                                        "0", "--samples", "17", "--j-max",
                                        "1")),
    # forked builds whose JSON samples (401 x 82 and 401 x 162 floats) go
    # through floattext while the child runs
    Request("build-periodic-v1-n80-json-samples", (
        "build", "--family", "periodic-v1", "--alpha", "1.2", "--beta",
        "0.9", "--a", "0.1", "--sign", "+", "--n", "80",
        "--json-samples")),
    Request("build-periodic-v1-n160-json-samples", (
        "build", "--family", "periodic-v1", "--alpha", "1.2", "--beta",
        "0.9", "--a", "0.1", "--sign", "+", "--n", "160",
        "--json-samples")),
    # a forked build whose wavefunctions.json holds 566 Infinity values:
    # non-finite arrays beside finite ones above CHUNK floats, and array
    # leaves in the documents the parent writes while the child runs
    Request("build-hyperbolic-v1-n160-json-samples", (
        "build", "--family", "hyperbolic-v1", "--gamma", "1", "--eta", "-1",
        "--a", "0", "--sign", "+", "--n", "160", "--json-samples")),
    # a small document holding non-finite arrays: wavefunctions.json has
    # 46 Infinity values among its 805 floats, fewer than one kernel pass
    Request("build-hyperbolic-v1-n160-json-samples-5", (
        "build", "--family", "hyperbolic-v1", "--gamma", "1", "--eta", "-1",
        "--a", "0", "--sign", "+", "--n", "160", "--samples", "5",
        "--json-samples")),
    # periodic rings of 600 to 2400 cell nodes, the list's only rings
    # above 512
    Request("verify-periodic-v3-large-ring", (
        "verify", "--family", "periodic-v3", "--alpha", "1", "--beta", "1",
        "--a", "0", "--sign", "-", "--n", "1", "--points", "1201")),
    # half-line walls at u = 0: a repulsive wall with s = 1.379, Coulomb on
    # a fine grid, and an attractive wall (s = 0.892) decided before any
    # solve
    Request("verify-poschl-teller-s1379", (
        "verify", "--family", "poschl-teller", "--alpha", "1.8848",
        "--A", "13.2569", "--B", "2.5995", "--n", "0", "--j-max", "0")),
    Request("verify-coulomb-points-16001", (
        "verify", "--family", "coulomb", "--e2", "2", "--l", "0", "--n",
        "3", "--points", "16001")),
    Request("verify-poschl-teller-attractive-s0892", (
        "verify", "--family", "poschl-teller", "--alpha", "0.9922",
        "--A", "12.5805", "--B", "0.8849", "--n", "3")),
    # verifies after this process's first, whose artifacts the table writer
    # formats while the report runs: with the JSON samples; at n = 40, a
    # table above pipeline.FORK_MIN_FLOATS that the job does not split; and
    # a report that raises (a level at the continuum edge) over an earlier
    # run's artifacts, which stay as they were
    Request("verify-morse-json-samples", (
        "verify", "--family", "morse", "--alpha", "1", "--A", "3", "--B",
        "1", "--n", "2", "--json-samples")),
    Request("verify-periodic-v1-n40", (
        "verify", "--family", "periodic-v1", "--alpha", "1", "--beta", "1",
        "--a", "0", "--sign", "+", "--n", "40")),
    Request("verify-morse-continuum-edge-over-earlier", (
        "verify", "--family", "morse", "--alpha", "1", "--A",
        "3.0000000001", "--B", "1", "--n", "3", "--j-max", "3"),
        before=("verify", "--family", "morse", "--alpha", "1", "--A", "3",
                "--B", "1", "--n", "2")),
    # verifies whose table writer sets up the artifacts from the request:
    # over the files of a build at n = 160, whose table the writer formats
    # too; one whose set-up raises in the writer (V of the overflowing
    # cosh is nan) after the report has raised the same error; and one
    # with the JSON samples of a QES double well
    Request("verify-morse-after-build-n160", (
        "verify", "--family", "morse", "--alpha", "1", "--A", "3", "--B",
        "1", "--n", "2"),
        before=("build", "--family", "periodic-v1", "--alpha", "1",
                "--beta", "1", "--a", "0", "--sign", "+", "--n", "160")),
    Request("verify-overflowing-cosh", (
        "verify", "--family", "hyperbolic-v1", "--gamma", "200", "--eta",
        "-1", "--a", "0", "--sign", "+", "--n", "0")),
    Request("verify-hyperbolic-v1-n6-json-samples", (
        "verify", "--family", "hyperbolic-v1", "--gamma", "1", "--eta", "-1",
        "--a", "0", "--sign", "+", "--n", "6", "--json-samples")),
)


def _load_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_line(workload: str, case) -> str:
    """Run one case in a temporary directory and digest what it left."""
    import sl2qes.cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if case.algebra is not None:
                Path("algebra.json").write_text(
                    json.dumps(case.algebra, indent=2) + "\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                if getattr(case, "before", None):
                    sl2qes.cli.main([*case.before, "--out-dir", "out"])
                    stdout.truncate(0)
                    stdout.seek(0)
                try:
                    code = sl2qes.cli.main(case.argv("out", "algebra.json"))
                except Exception as exc:   # a case that raises is a result
                    code = f"raised:{type(exc).__name__}"
            fields = [workload, case.case_id, f"exit={code}",
                      f"stdout={_sha(stdout.getvalue().encode())}"]
            if os.path.isdir("out"):
                for name in sorted(os.listdir("out")):
                    path = Path("out", name)
                    mode = stat.S_IMODE(path.stat().st_mode)
                    fields.append(f"{name}={_sha(path.read_bytes())}:{mode:o}")
        finally:
            os.chdir(cwd)
    return " ".join(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True,
                        help="checkout whose src/sl2qes is digested")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS + ("extra", "all"),
                        default="all")
    args = parser.parse_args(argv)

    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    if args.workload == "extra":
        for request in EXTRA:
            print(case_line("extra", request), flush=True)
        return 0
    workloads = _load_workloads()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for case in workloads.generate(name, args.seed):
            print(case_line(name, case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
