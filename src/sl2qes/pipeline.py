"""End-to-end plumbing: verification reports and reproducible artifacts.

The verification report pairs each analytically known level with the nearest
numeric eigenvalue and applies the tolerance rule max(1e-3, 10 *
convergence_estimate) to every family; an explicitly supplied tolerance is
used as-is.  The entry's ``fd_defaults`` give the x window and grid size,
and the entry itself the rest: a periodic entry is checked against band
edges over one period from x_min, any other against the Dirichlet
spectrum, on a grid uniform in u where its map is u = 2 sqrt(x).  All
files are written atomically (temp file + rename) with fixed key order and
shortest round-trip float formatting, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .catalog import CatalogEntry
from .fdsolve import SQRT_STRETCH, Grid, _solve_once, band_edges, fd_eigensolve

__all__ = [
    "verification_report",
    "write_json_atomic",
    "write_csv_atomic",
    "sample_potential",
    "sample_wavefunctions",
    "spectrum_document",
]


BASE_TOLERANCE = 1e-3


def _match_levels(levels, numeric, estimates, fixed_tol):
    rows = []
    all_pass = True
    for j, energy in levels:
        idx = int(np.argmin(np.abs(numeric - energy)))
        if fixed_tol is not None:
            tol = fixed_tol
        else:
            tol = max(BASE_TOLERANCE, 10.0 * float(estimates[idx]))
        diff = abs(float(numeric[idx]) - energy)
        ok = diff <= tol
        all_pass &= ok
        rows.append({
            "level": j,
            "algebraic_E": float(energy),
            "numeric_E": float(numeric[idx]),
            "abs_diff": diff,
            "tolerance": tol,
            "pass": ok,
        })
    return rows, all_pass


def _header(entry: CatalogEntry) -> dict:
    """The fields that identify an entry in every report."""
    return {
        "family": entry.name,
        "params": {key: float(v) for key, v in entry.params.items()},
        "n": entry.n,
        "sign": None if entry.sign is None else ("+" if entry.sign > 0 else "-"),
    }


def verification_report(entry: CatalogEntry, j_max: int | None = None,
                        points: int | None = None,
                        tolerance: float | None = None) -> dict:
    """Compare every analytically known level against the numeric oracle;
    raises NoBoundStateError when there is no level to compare."""
    fd = dict(entry.fd_defaults)
    if points is not None:
        fd["points"] = int(points)
    levels = entry.verification_levels(j_max)
    k = len(levels) + 6
    v_cap = fd.get("v_cap")

    if entry.period is not None:
        edges = band_edges(entry.potential, entry.period, count=k,
                           points=fd["points"], x_start=fd["x_min"],
                           v_cap=v_cap)
        numeric = np.array([e.energy for e in edges])
        estimates = np.array([e.convergence_estimate for e in edges])
        grid_meta = {"x_min": fd["x_min"],
                     "x_max": fd["x_min"] + entry.period,
                     "points": fd["points"], "bc": "periodic+antiperiodic"}
    else:
        stretch = (SQRT_STRETCH if entry.mapping.transform.kind == "two-sqrt"
                   else None)
        grid = Grid(fd["x_min"], fd["x_max"], fd["points"], stretch)
        spec = fd_eigensolve(entry.potential, grid, bc="dirichlet", k=k,
                             v_cap=v_cap)
        numeric = spec.eigenvalues
        estimates = spec.convergence_estimate
        if entry.domain[0] == 0.0:
            # half-line problem: confirm insensitivity to halving the inner
            # cutoff (eigenvalues only), folded into the per-level estimate
            eps = fd["x_min"]
            grid2 = Grid(eps / 2.0, fd["x_max"], fd["points"], stretch)
            numeric2, _ = _solve_once(entry.potential, grid2, "dirichlet", k,
                                      v_cap, vectors=False)
            estimates = np.maximum(estimates, np.abs(numeric2 - numeric))
        grid_meta = {"x_min": fd["x_min"], "x_max": fd["x_max"],
                     "points": fd["points"], "bc": "dirichlet"}
        if stretch is not None:
            grid_meta["stretch"] = stretch

    rows, all_pass = _match_levels(levels, numeric, estimates, tolerance)
    return {**_header(entry), "grid": grid_meta, "levels": rows,
            "all_pass": all_pass}


# ---------------------------------------------------------------------------
# artifacts

def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def write_csv_atomic(path: str, header: list[str], columns: list[np.ndarray]):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def sample_potential(entry: CatalogEntry, samples: int):
    x = np.linspace(*entry.plot_range, samples)
    return x, np.asarray(entry.potential(x), float)


def sample_wavefunctions(entry: CatalogEntry, x: np.ndarray,
                         j_values: list[int]):
    """psi_j on x for each j; levels that share a gauge sample it once."""
    psis = [entry.closed_form_wavefunction(j) for j in j_values]
    gauges = {id(psi.gauge): psi.gauge for psi in psis}
    samples = {key: gauge(x) for key, gauge in gauges.items()}
    return [np.asarray(psi(x, samples[id(psi.gauge)]), float)
            for psi in psis]


def spectrum_document(entry: CatalogEntry, j_values: list[int]) -> dict:
    return {**_header(entry), "class": entry.kind,
            "levels": [{"j": j, **entry.level(j).to_json_dict()}
                       for j in j_values],
            "warnings": []}
