"""Output checks of the benchmark, independent of the package's own verdicts.

Each check reads the artifacts a case wrote and returns ``(problems, error)``:
a list of reasons the output is wrong (empty when it is right) and the
case's worst error divided by the benchmark's pinned bound (None when the
case wrote nothing to measure).  The pinned bounds are the benchmark's, not
the program's ``max(base, 10 * estimate)`` tolerance.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import ES_FAMILIES

ENERGY_BOUND = 1e-3            # |numeric_E - algebraic_E|, as in the suite
COULOMB_ENERGY_BOUND = 5e-3
SECTOR_RESIDUAL_BOUND = 1e-12  # relative sector ODE residual, all levels
WAVE_RESIDUAL_BOUND = 1e-6     # -psi'' + (V - E) psi relative to its terms


def _check_table(path, expected_cols, samples, problems):
    """The samples of a CSV artifact, after checking its header, row count
    and finiteness."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        problems.append(f"{name} missing")
        return None
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header != expected_cols:
        problems.append(f"{name}: columns {len(header)}, expected "
                        f"{len(expected_cols)}")
    if data.shape[0] != samples:
        problems.append(f"{name}: {data.shape[0]} rows, expected {samples}")
    bad = int(np.sum(~np.isfinite(data)))
    if bad:
        cols = int(np.sum(~np.all(np.isfinite(data), axis=0)))
        problems.append(f"{name}: {bad} non-finite samples in {cols} columns")
    return data


def _load_json(path, problems):
    if not os.path.exists(path):
        problems.append(f"{os.path.basename(path)} missing")
        return None
    with open(path) as handle:
        return json.load(handle)


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# closed forms of the exactly solvable families, written out independently

def _es_levels(family: str, p: dict, j_max: int) -> list[float]:
    """Closed-form energies E_0..E_top, top = min(j_max, last bound state)."""
    def below(limit):  # j < limit, with the package's rounding slack
        return math.ceil(limit - 1e-12) - 1 if limit > 0 else -1

    if family == "harmonic":
        top, energy = j_max, lambda j: (j + 0.5) * p["omega"]
    elif family in ("morse", "scarf-ii"):
        top = below(p["A"] / p["alpha"])
        energy = lambda j: -(p["A"] - j * p["alpha"]) ** 2
    elif family == "poschl-teller":
        top = below((p["A"] - p["B"]) / (2 * p["alpha"]))
        energy = lambda j: -(p["A"] - p["B"] - 2 * j * p["alpha"]) ** 2
    elif family == "coulomb":
        top = j_max
        energy = lambda j: -p["e2"] ** 2 / (4.0 * (j + p["l"] + 1) ** 2)
    else:
        raise ValueError(family)
    return [energy(j) for j in range(min(top, j_max) + 1)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


def check_verify(case, out_dir: str, samples: int):
    problems: list[str] = []
    es = case.family in ES_FAMILIES
    expected = _es_levels(case.family, case.params, case.n) if es else None
    count = len(expected) if es else case.n + 1
    _check_table(os.path.join(out_dir, "potential.csv"), ["x", "V"], samples,
                 problems)
    _check_table(os.path.join(out_dir, "wavefunctions.csv"),
                 ["x"] + [f"psi_{j}" for j in range(count)], samples,
                 problems)
    spectrum = _load_json(os.path.join(out_dir, "spectrum.json"), problems)
    report = _load_json(os.path.join(out_dir, "verification.json"), problems)
    if spectrum is not None:
        energies = [lv["E"] for lv in spectrum["levels"]]
        if len(energies) != count or not _finite(energies):
            problems.append(f"spectrum.json: {len(energies)} levels, "
                            f"expected {count} finite")
        elif es and not all(map(_close, energies, expected)):
            problems.append("spectrum.json energies differ from closed forms")
    if report is None:
        return problems, None
    rows = report["levels"]
    if len(rows) != count:
        problems.append(f"verification.json: {len(rows)} levels, "
                        f"expected {count}")
    fields = [r[k] for r in rows for k in ("algebraic_E", "numeric_E",
                                           "abs_diff", "tolerance")]
    if not _finite(fields):
        problems.append("verification.json: non-finite values")
        return problems, None
    algebraic = [r["algebraic_E"] for r in rows]
    if es:
        if not all(map(_close, algebraic, expected)):
            problems.append("verification.json algebraic_E differs from "
                            "closed forms")
        algebraic = expected[:len(rows)]
    bound = COULOMB_ENERGY_BOUND if case.family == "coulomb" else ENERGY_BOUND
    diffs = [abs(r["numeric_E"] - e) for r, e in zip(rows, algebraic)]
    return problems, (max(diffs) / bound if diffs else None)


def _sector_matrix(alg, n: int) -> np.ndarray:
    """Float matrix of B4 D^2 + B3 D + B2 (d = 0) on 1, xi, ..., xi^n, with
    B4, B3, B2 assembled here from the coefficient data.  Rows run up to
    degree n + 2; the top two vanish in exact arithmetic."""
    poly = np.polynomial.polynomial
    f = float
    b4 = np.array([f(alg.c_mm), 2 * f(alg.c_0m), f(alg.c_00),
                   2 * f(alg.c_p0), f(alg.c_pp)])
    a2 = np.array([f(alg.c_m), f(alg.c_0), f(alg.c_p)])
    b3 = poly.polyadd((1 - n) / 2.0 * poly.polyder(b4), a2)
    b2 = poly.polyadd(n * (n - 1) / 12.0 * poly.polyder(b4, 2),
                      -n / 2.0 * poly.polyder(a2))
    b2 = poly.polyadd(b2, [n * (n + 2) / 12.0 * f(alg.c_00)])
    mat = np.zeros((n + 3, n + 1))
    for k in range(n + 1):
        for order, coeffs, factor in ((2, b4, k * (k - 1)), (1, b3, k),
                                      (0, b2, 1)):
            if k >= order:
                rows = np.arange(len(coeffs)) + k - order
                mat[rows, k] += coeffs * factor
    return mat


def _sector_residual(alg, n: int, levels) -> float:
    """Relative sector ODE residual of all levels together,
    ||M B + B diag(d)||_F / (||M||_F ||B||_F): the column of level j holds
    the coefficients of B4 chi_j'' + B3 chi_j' + (B2 + d_j) chi_j."""
    mat = _sector_matrix(alg, n)
    b = np.array([lv["b"] for lv in levels], float).T
    res = mat @ b
    res[:n + 1] += b * np.array([lv["d"] for lv in levels])
    return float(np.linalg.norm(res)
                 / (np.linalg.norm(mat) * np.linalg.norm(b)))


def check_build(case, out_dir: str, samples: int, algebra):
    """Sector build: level count, finite samples, sector ODE residual."""
    problems: list[str] = []
    count = case.n + 1
    _check_table(os.path.join(out_dir, "potential.csv"), ["x", "V"], samples,
                 problems)
    _check_table(os.path.join(out_dir, "wavefunctions.csv"),
                 ["x"] + [f"psi_{j}" for j in range(count)], samples,
                 problems)
    spectrum = _load_json(os.path.join(out_dir, "spectrum.json"), problems)
    if spectrum is None:
        return problems, None
    levels = spectrum["levels"]
    finite = all(_finite([lv["d"], lv["E"]] + lv["b"]) for lv in levels)
    if len(levels) != count or not finite:
        problems.append(f"spectrum.json: {len(levels)} levels, expected "
                        f"{count} finite")
        return problems, None
    return problems, (_sector_residual(algebra, case.n, levels)
                      / SECTOR_RESIDUAL_BOUND)


def check_general(case, out_dir: str, samples: int):
    """General mode: level count, finite samples, and the wavefunction
    residual of -psi'' + (V - E_j) psi relative to the size of its two
    terms, with E_j = e_convention - d_used + d_j, from the written samples
    and a five-point stencil."""
    problems: list[str] = []
    count = case.n + 1
    pot = _check_table(os.path.join(out_dir, "potential.csv"), ["x", "V"],
                       samples, problems)
    wave = _check_table(os.path.join(out_dir, "wavefunctions.csv"),
                        ["x"] + [f"psi_{j}" for j in range(count)], samples,
                        problems)
    spectrum = _load_json(os.path.join(out_dir, "spectrum.json"), problems)
    if spectrum is None:
        return problems, None
    levels = spectrum["levels"]
    if len(levels) != count or not _finite([lv["d"] for lv in levels]):
        problems.append(f"spectrum.json: {len(levels)} levels, expected "
                        f"{count} finite")
    if problems:
        return problems, None
    x, v = pot[:, 0], pot[:, 1]
    h = x[1] - x[0]
    worst = 0.0
    for j, lv in enumerate(levels):
        psi = wave[:, j + 1]
        energy = spectrum["e_convention"] - spectrum["d_used"] + lv["d"]
        d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1]
              - psi[4:]) / (12.0 * h * h)
        rest = (v[2:-2] - energy) * psi[2:-2]
        scale = np.max(np.abs(d2)) + np.max(np.abs(rest))
        worst = max(worst, float(np.max(np.abs(rest - d2)) / scale))
    return problems, worst / WAVE_RESIDUAL_BOUND


def run_error(command: str, errors: list[float]) -> float:
    """A run's error from its cases' errors.  For verify it is the worst
    case: one mismatched level is the failure to surface.  The sector and
    wavefunction residuals are present in every case; their worst case
    moves by 6-15% between seeds with the drawn parameters (the sector ones
    sit at a rounding unit), so the residual pooled over the cases (root
    mean square) is used: it is steady and still rises with any loss of
    accuracy, in one case or in all."""
    if not errors:
        return 0.0
    if command == "verify":
        return max(errors)
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def snapshot(out_dir: str) -> dict[str, bytes]:
    """Every artifact of a case, for the byte-identical rerun check."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out
