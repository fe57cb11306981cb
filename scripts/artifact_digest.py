#!/usr/bin/env python3
"""Print a digest of every benchmark case's exit code, stdout and artifacts.

Usage, from the root of a checkout:

    python3 scripts/artifact_digest.py --src . --seed 1 > new.txt
    python3 scripts/artifact_digest.py --src ../old --seed 1 > old.txt
    diff old.txt new.txt

The case lists come from this checkout's ``perfbench/workloads.py``, so two
digests made with the same script run the same cases.  Each case runs in
process through ``sl2qes.cli.main`` of the package under ``<src>/src``, in a
fresh temporary directory with relative paths, so no path of the machine
reaches stdout.  One line per case:

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

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog-verify", "sector-build", "general-numeric")
# BLAS threads can change the last bits of a dense eigensolve
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    args = parser.parse_args(argv)

    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    workloads = _load_workloads()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for case in workloads.generate(name, args.seed):
            print(case_line(name, case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
