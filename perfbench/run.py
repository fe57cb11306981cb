#!/usr/bin/env python3
"""Benchmark of the sl2qes verify / build / general chain.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs the seed's cases one after another through
``sl2qes.cli.main`` (a closed loop with one client), with the BLAS/OpenMP
thread count pinned before numpy is loaded.  A run makes whole passes over
the case list, alternately forward and backward, as many as best fit
``--seconds`` and at least two, and checks every case's artifacts.  A
case's time is the best of its runs.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the same cases run with spans recorded around the package's
public functions and the line carries the per-layer metrics.
``--workload all`` runs every workload untraced and traced, each in its own
process, and prints the tracing overhead.

Per-case records, the environment and (traced) spans are written under
``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 2
# Wall times are reported on a common speed scale: each one is multiplied
# by REFERENCE_MS over the time the fixed reference kernel took next to it
# (see reference_ms).  REFERENCE_MS is the kernel's median time on the
# 2-core x86-64 host the bounds were set on, with OpenBLAS on one thread.
REFERENCE_MS = 8.1
SAMPLES = 401        # the CLI's default --samples
TAIL_BEYOND = 10     # cases the tail percentile must leave above it
# Every case runs at least twice, far apart in time, and keeps its best
# time: the speed of a shared machine drifts by tens of percent over a few
# seconds, and the best of two runs in different phases is much steadier
# than one run.
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "case_ms_p50": "ms", "case_ms_tail": "ms",
    "cases_per_s": "1/s", "fail_frac": "fraction", "max_err_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing package, failed import)."""


def pin_threads(env: dict) -> dict:
    for name in THREAD_VARS:
        env[name] = str(BLAS_THREADS)
    return env


def child_env() -> dict:
    env = pin_threads(dict(os.environ))
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


_REFERENCE_STATE = {}


def reference_ms() -> float:
    """Milliseconds of a fixed kernel that does not use sl2qes: interpreter
    arithmetic, Fraction arithmetic, a dense symmetric eigensolve and
    adaptive quadrature of a Python integrand, the kinds of work the
    workloads spend their time in."""
    import numpy as np
    from fractions import Fraction
    from scipy.integrate import quad
    if "matrix" not in _REFERENCE_STATE:
        a = np.random.default_rng(0).standard_normal((160, 160))
        _REFERENCE_STATE["matrix"] = a + a.T
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(i, i + 7)
    np.linalg.eigvalsh(_REFERENCE_STATE["matrix"])
    for i in range(40):
        quad(lambda t: (1.0 + t * t) ** -0.5, 0.0, 1.0 + i, epsrel=1e-11)
    return (time.perf_counter() - start) * 1e3


def scaled(raw: float, ref: float) -> float:
    return raw * REFERENCE_MS / ref


def measure_setup() -> list[float]:
    """Seconds from a fresh interpreter to sl2qes and sl2qes.cli imported,
    scaled by the reference kernel run just before each.  The first import
    also writes bytecode caches and is not kept."""
    cmd = [sys.executable, "-c", "import sl2qes, sl2qes.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        ref = reference_ms()
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no output"]
            raise BenchError(f"import sl2qes failed: {lines[-1]}")
        if i:
            times.append(scaled(elapsed, ref))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running cases

def run_case(cli, case, out_dir: Path, algebra_path, tracer=None, key=None):
    """One request through sl2qes.cli.main; returns (exit code or None,
    exception text or None, printed output, wall seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = case.argv(str(out_dir), algebra_path)
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.open_case(key)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except Exception as exc:  # a case that raises is a failed case
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close_case()
    return code, error, buf.getvalue(), wall


def check_case(checks, case, out_dir: Path, algebra):
    if case.command == "verify":
        return checks.check_verify(case, str(out_dir), SAMPLES)
    if case.command == "build":
        return checks.check_build(case, str(out_dir), SAMPLES, algebra)
    return checks.check_general(case, str(out_dir), SAMPLES)


def verdict(case, code, error, output, problems):
    """(verdict, reason); 'pass' only when the program succeeded and every
    output check holds."""
    if error is not None:
        return "raised", error
    if code != 0:
        lines = [ln for ln in output.splitlines()
                 if "FAIL" in ln or ln.startswith("error:")]
        kind = "FAIL" if case.command == "verify" and code == 1 else "exit"
        return kind, f"exit {code}: " + "; ".join(lines[:3])
    if problems:
        return "check", "; ".join(problems)
    return "pass", ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cases=None) -> dict:
    """Run whole passes over the workload's cases, alternately forward and
    backward so that the runs of one case are far apart in time; returns
    the run record."""
    import checks
    import sl2qes.catalog
    import sl2qes.cli
    import tracing

    cases = workloads.generate(name, seed) if cases is None else cases
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    inputs = {}
    algebras = {}
    for case in cases:
        if case.algebra is not None:
            path = work / "inputs" / f"{case.case_id}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(case.algebra, indent=2) + "\n")
            inputs[case.case_id] = str(path)
        elif case.command == "build":
            algebras[case.case_id] = sl2qes.catalog.make_entry(
                case.family, case.params, sign=case.sign, n=case.n).algebra

    # Warm-up: the rerun case runs once untimed; its artifacts are the
    # reference for the byte-identical check in the first timed pass.
    rerun_id = workloads.RERUN_CASE.get(name)
    by_id = {c.case_id: c for c in cases}
    reference = None
    if rerun_id in by_id:
        run_case(sl2qes.cli, by_id[rerun_id], out_dir, inputs.get(rerun_id))
        reference = checks.snapshot(out_dir) if out_dir.exists() else {}

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    records = []
    passes = planned = 0
    start = time.perf_counter()
    try:
        while planned == 0 or passes < planned:
            for case in cases if passes % 2 == 0 else reversed(cases):
                key = f"{passes}:{case.case_id}"
                ref = reference_ms()
                code, error, output, wall = run_case(
                    sl2qes.cli, case, out_dir, inputs.get(case.case_id),
                    tracer, key)
                problems, err = check_case(checks, case, out_dir,
                                           algebras.get(case.case_id))
                if passes == 0 and case.case_id == rerun_id:
                    now = checks.snapshot(out_dir) if out_dir.exists() else {}
                    if now != reference:
                        problems = problems + [
                            "artifacts differ from the warm-up run"]
                kind, reason = verdict(case, code, error, output, problems)
                records.append(dict(
                    dataclasses.asdict(case), key=key, pass_index=passes,
                    wall_ms=wall * 1e3, ref_ms=ref, exit_code=code,
                    verdict=kind,
                    reason=reason, err_ratio=err,
                    unexpected=kind != "pass" and case.known_defect is None))
            passes += 1
            if planned == 0:
                per_pass = time.perf_counter() - start
                planned = max(MIN_PASSES, round(seconds / per_pass))
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace,
            "passes": passes, "cases_per_pass": len(cases),
            "records": records, "tracer": tracer}


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND cases above it."""
    if n <= TAIL_BEYOND:
        return 100
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n))


def percentile(sorted_values, q: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def local_refs(records) -> list[float]:
    """For each run, the median of the reference times taken before it,
    before the previous run and before the next one."""
    refs = [r["ref_ms"] for r in records]
    return [statistics.median(refs[max(0, i - 1):i + 2])
            for i in range(len(refs))]


def by_case(records) -> list[dict]:
    """One entry per case: best scaled wall time, failed if any run failed,
    worst error of its runs."""
    cases = {}
    for r, ref in zip(records, local_refs(records)):
        wall = scaled(r["wall_ms"], ref)
        c = cases.setdefault(r["case_id"], {"wall_ms": wall,
                                            "failed": False, "err": None})
        c["wall_ms"] = min(c["wall_ms"], wall)
        c["failed"] |= r["verdict"] != "pass"
        if r["err_ratio"] is not None:
            c["err"] = max(c["err"] or 0.0, r["err_ratio"])
    return list(cases.values())


def end_to_end(run: dict, setup_times: list[float]) -> tuple[dict, dict]:
    import checks
    cases = by_case(run["records"])
    walls = sorted(c["wall_ms"] for c in cases)
    q = tail_percentile(len(walls))
    passing = sum(not c["failed"] for c in cases)
    errors = [c["err"] for c in cases if c["err"] is not None]
    values = {
        "setup_s": statistics.median(setup_times),
        "case_ms_p50": statistics.median(walls),
        "case_ms_tail": percentile(walls, q),
        "cases_per_s": passing / (sum(walls) / 1e3),
        "fail_frac": (len(cases) - passing) / len(cases),
        "max_err_ratio": checks.run_error(run["records"][0]["command"],
                                          errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    runs = f"best of {run['passes']} runs each"
    samples = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "case_ms_p50": f"{len(walls)} cases, {runs}",
        "case_ms_tail": f"p{q} of {len(walls)} cases, {runs}",
        "cases_per_s": f"{passing} passing cases, {runs}",
        "fail_frac": f"{len(cases) - passing} of {len(cases)} cases",
        "max_err_ratio": f"{len(errors)} cases",
        "peak_rss_mb": "runner process",
    }
    return values, samples


PER_LAYER_UNITS = {
    "fdsolve.dirichlet_ms": "ms/case", "fdsolve.bands_ms": "ms/case",
    "fdsolve.solves": "count/case", "fdsolve.grid_points": "count/case",
    "fdsolve.eigs": "count/case",
    "algebra.assemble_ms": "ms/case", "algebra.entries": "count/case",
    "spectral.solve_ms": "ms/case", "spectral.levels": "count/case",
    "spectral.complex_levels": "count/case",
    "catalog.make_ms": "ms/case",
    "mapping.build_ms": "ms/case", "mapping.numeric_maps": "count/case",
    "mapping.quad_calls": "count/case", "mapping.gauge_ms": "ms/case",
    "mapping.potential_ms": "ms/case",
    "pipeline.verify_self_ms": "ms/case", "pipeline.sample_ms": "ms/case",
    "pipeline.samples": "count/case",
    "pipeline.nonfinite_samples": "count/case",
    "pipeline.write_ms": "ms/case", "pipeline.bytes_written": "B/case",
    "cli.main_self_ms": "ms/case",
}
# Self time of the layers whose issue-named metric is not already it
# (spectral.solve_ms and cli.main_self_ms are their layers' self times).
for _layer in ("algebra", "catalog", "mapping", "fdsolve", "pipeline"):
    PER_LAYER_UNITS[f"{_layer}.self_ms"] = "ms/case"
for _layer in ("algebra", "spectral", "catalog", "mapping", "fdsolve",
               "pipeline", "cli"):
    PER_LAYER_UNITS[f"{_layer}.share"] = "fraction"
PER_LAYER_UNITS["trace.case_ms_p50"] = "ms"


def per_layer(run: dict) -> tuple[dict, list]:
    """Mean per case run of every layer metric (times scaled like case
    times), each layer's share of case wall time, and per-run layer self
    times."""
    import tracing
    tracer = run["tracer"]
    records = run["records"]
    grouped = tracer.spans_by_case()
    totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    per_case = []
    for rec, ref in zip(records, local_refs(records)):
        summary = tracer.case_summary(rec["key"], grouped.get(rec["key"], []))
        for metric in totals:
            if metric in summary:
                value = summary[metric]
                totals[metric] += (scaled(value, ref)
                                   if metric.endswith("_ms") else value)
        for layer in layer_self:
            layer_self[layer] += summary[f"{layer}.self_ms"]
        per_case.append({"key": rec["key"], "layers_self_ms": {
            layer: summary[f"{layer}.self_ms"] for layer in layer_self}})
    n = len(records)
    wall = sum(r["wall_ms"] for r in records)
    values = {}
    for metric, total in totals.items():
        values[metric] = total / n
    for layer, total in layer_self.items():
        values[f"{layer}.share"] = total / wall
    values["trace.case_ms_p50"] = statistics.median(
        c["wall_ms"] for c in by_case(records))
    return values, per_case


# ---------------------------------------------------------------------------
# output

def write_results(run: dict, env: dict, metrics: dict, extra: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}"
    doc = {"environment": env, "workload": run["workload"],
           "passes": run["passes"], "cases_per_pass": run["cases_per_pass"],
           "metrics": metrics, "cases": run["records"], **extra}
    path = results / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if run["tracer"] is not None:
        spans = results / f"{stem}-spans.json"
        spans.write_text(json.dumps(run["tracer"].spans_json()) + "\n")
    return path


def run_one(args) -> int:
    pin_threads(os.environ)            # before numpy is first imported
    if not (SRC / "sl2qes" / "__init__.py").exists():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    setup_times = [] if args.trace else measure_setup()
    env = environment(args.seed)
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    records = run["records"]
    unexpected = [r for r in records if r["unexpected"]]
    if args.trace:
        values, per_case = per_layer(run)
        units = PER_LAYER_UNITS
        notes = {k: "mean per case run" for k in values}
        notes.update({k: "of case wall time" for k in values
                      if k.endswith(".share")})
        notes["trace.case_ms_p50"] = (
            f"median of {len(per_case) // run['passes']} cases, best of "
            f"{run['passes']} runs each")
        extra = {"per_case_layers": per_case}
    else:
        values, notes = end_to_end(run, setup_times)
        units = END_TO_END_UNITS
        extra = {"setup_times_s": setup_times}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    path = write_results(run, env, metrics, extra)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run['passes']} x {run['cases_per_pass']} cases  "
          f"blas_threads {BLAS_THREADS}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {env['blas'].get('name')} "
          f"{env['blas'].get('version')}")
    for key, metric in metrics.items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']:<10} "
              f"{notes.get(key, '')}")
    defects = sorted({r["case_id"] for r in records
                      if r["verdict"] != "pass" and r["known_defect"]})
    print(f"  known-defect cases failing: {', '.join(defects) or 'none'}")
    for r in unexpected[:10]:
        print(f"  UNEXPECTED {r['key']}: {r['verdict']} {r['reason'][:200]}")
    print(f"  per-case records: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            last = proc.stdout.strip().splitlines()[-1]
            rows[name, trace] = json.loads(last)
    print("\ntracing overhead (traced minus untraced case_ms_p50):")
    for name in workloads.WORKLOADS:
        plain = rows[name, 0]["metrics"]["case_ms_p50"]["value"]
        traced = rows[name, 1]["metrics"]["trace.case_ms_p50"]["value"]
        print(f"  {name:<16} {traced - plain:+9.3f} ms "
              f"({(traced - plain) / plain:+.1%} of {plain:.3f} ms)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
