"""End-to-end plumbing: verification reports and reproducible artifacts.

The verification report checks each analytically known level against the
finite-difference oracle, set up from the entry; ``fd_defaults`` holds
only the grid size.  A periodic entry is solved over one period from the
map's shift, in its sector's period class (antiperiodic iff dq = 1), for
the lowest ``sector_count()`` eigenvalues.  Any other gets Dirichlet walls
(on a grid uniform in u where its map is u = 2 sqrt(x)): from the minimum
of V, outward past the outermost turning point of the top level, to where
the WKB decay integral of sqrt(V - E_top) dx reaches DECAY, or at
HALF_LINE_CUTOFF; and k from a Sturm count up to half a level spacing
above E_top.  Each FD solve is one ``fd_eigensolve`` call for eigenvalues
only; a half-line entry makes one more at half the inner cutoff.  Levels
and eigenvalues are matched one to one in ascending order; the tolerance
is max(1e-3, 10 * convergence_estimate), or an explicitly supplied one.
A sampled potential that is not finite raises GridError, naming the first
such x, before any artifact is written.  Every file streams (a table
CSV_BLOCK rows at a time) into a temp file renamed into place (mode 0o666
less the umask), with fixed key order and shortest round-trip floats, so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .catalog import CatalogEntry
from .errors import GridError
from .fdsolve import SQRT_STRETCH, Grid, count_below, fd_eigensolve
from .mapping import WaveFunction

__all__ = [
    "verification_report",
    "write_json_atomic",
    "write_csv_atomic",
    "json_pieces",
    "finite_potential",
    "sample_potential",
    "sample_wavefunctions",
    "spectrum_document",
]


BASE_TOLERANCE = 1e-3
DECAY = 9.0    # a window end sees the top level's tail at about exp(-DECAY)
# A wall at eps shifts a level by about eps |psi'(0)|^2 / ||psi||^2 where
# psi'(0) != 0 (Coulomb at l = 0, Poschl-Teller at B = alpha).
HALF_LINE_CUTOFF = 1e-7
CSV_BLOCK = 64  # rows of a table held as text at a time


def _outward(potential, x: float, step: float):
    """Chunks (xs, V(xs)) of 256 steps each going out from x, the step
    doubling from one chunk to the next."""
    while np.isfinite(x):
        xs = x + step * np.arange(1, 257)
        with np.errstate(all="ignore"):
            yield xs, np.asarray(potential(xs), float)
        x, step = float(xs[-1]), 2.0 * step
    raise GridError("the FD window scan ran out to infinite x")


def _decay_end(potential, x: float, step: float, e_top: float):
    """(x, V(x)) where the integral of sqrt(V - e_top) dx since the last
    classically allowed point going out from x reaches DECAY; raises
    GridError when V stops being finite before that."""
    total = 0.0
    for xs, v in _outward(potential, x, step):
        finite = np.isfinite(v)
        cut = v.size if finite.all() else int(np.argmin(finite))
        excess = v[:cut] - e_top
        gain = np.sqrt(np.maximum(excess, 0.0)) * abs(xs[1] - xs[0])
        allowed = np.flatnonzero(excess <= 0.0)
        if allowed.size:
            total, gain[:allowed[-1]] = 0.0, 0.0
        reach = total + np.cumsum(gain)
        done = np.flatnonzero(reach >= DECAY)
        if done.size:
            return float(xs[done[0]]), float(v[done[0]])
        total = reach[-1] if cut else total
        if cut < v.size:
            raise GridError(
                f"the top level E={e_top:.6g} sits too close to the "
                f"continuum: V is not finite at x={xs[cut]:.6g}, where the "
                f"decay integral above it has reached {total:.3g} of "
                f"{DECAY:g}")


def _descend(potential, x: float, step: float):
    """(x, V(x)) at the first x going out from x past which V no longer
    falls."""
    for xs, v in _outward(potential, x, step):
        stop = np.flatnonzero(~(np.diff(v) < 0.0))
        if stop.size:
            return float(xs[stop[0]]), float(v[stop[0]])


def _window(entry: CatalogEntry, e_top: float):
    """(x_min, x_max, V_min, V_end): the Dirichlet window from the minimum
    of V on the plot range (followed down past the range's end when it
    sits there) out past the outermost turning point met, the minimum, and
    the lowest V at a scanned end."""
    x = np.linspace(*entry.plot_range, 2001)
    v = finite_potential(entry.potential, x)
    step = x[1] - x[0]
    low, v_min = int(np.argmin(v)), float(np.min(v))
    starts = [*x[v < e_top], x[low]]
    if low == len(x) - 1 or (low == 0 and entry.domain[0] != 0.0):
        x_low, v_min = _descend(entry.potential, x[low],
                                step if low else -step)
        starts.append(x_low)
    x_max, v_end = _decay_end(entry.potential, max(starts), step, e_top)
    x_min = HALF_LINE_CUTOFF
    if entry.domain[0] != 0.0:
        x_min, v_left = _decay_end(entry.potential, min(starts), -step,
                                   e_top)
        v_end = min(v_end, v_left)
    return x_min, x_max, v_min, v_end


def _match_levels(levels, numeric, estimates, fixed_tol):
    """One row per level, walked in ascending order with the eigenvalues:
    each level takes the nearest eigenvalue above the previous level's that
    leaves one for every later level, so none is claimed twice."""
    rows = []
    all_pass = True
    start, count = 0, len(levels)
    for i, (j, energy) in enumerate(levels):
        stop = len(numeric) - (count - 1 - i)
        idx = start + int(np.argmin(np.abs(numeric[start:stop] - energy)))
        start = idx + 1
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
            "fd_index": idx,
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
    points = entry.fd_defaults["points"] if points is None else int(points)
    levels = entry.verification_levels(j_max)     # ascending in energy
    stretch = (SQRT_STRETCH if entry.mapping.transform.kind == "two-sqrt"
               else None)
    if entry.period is not None:
        # the sector's states are the lowest band edges of one period class:
        # antiperiodic iff a single half-angle factor (dq = 1) is in the gauge
        bc = "antiperiodic" if entry.family.dq == 1 else "periodic"
        x_min = entry.mapping.transform.a
        grid = Grid(x_min, x_min + entry.period, points)
        k = entry.sector_count()
    else:
        bc = "dirichlet"
        top = levels[-1][1]
        x_min, x_max, v_min, v_end = _window(entry, top)
        grid = Grid(x_min, x_max, points, stretch)
        # half a level spacing above the top level takes in its FD partner;
        # staying below V at the window's ends keeps a continuum's box
        # states out
        below = levels[-2][1] if len(levels) > 1 else v_min
        margin = min(top - below, v_end - top) / 2.0
        k = max(len(levels), count_below(entry.potential, grid, top + margin))
    spec = fd_eigensolve(entry.potential, grid, bc=bc, k=k)
    numeric = spec.eigenvalues
    estimates = spec.convergence_estimate
    shifts = None
    if entry.domain[0] == 0.0:
        # half-line problem: confirm insensitivity to halving the inner
        # cutoff, folded into the per-level estimate
        half = Grid(grid.x_min / 2.0, grid.x_max, points, stretch)
        shifts = np.abs(fd_eigensolve(entry.potential, half, bc, k,
                                      refine=False).eigenvalues - numeric)
        estimates = np.maximum(estimates, shifts)

    rows, all_pass = _match_levels(levels, numeric, estimates, tolerance)
    if shifts is not None:
        for row in rows:
            row["cutoff_shift"] = float(shifts[row["fd_index"]])
    grid_meta = {"x_min": grid.x_min, "x_max": grid.x_max, "points": points,
                 "bc": bc, **({"stretch": stretch} if stretch else {}),
                 "k": k}
    return {**_header(entry), "grid": grid_meta, "levels": rows,
            "all_pass": all_pass}


# ---------------------------------------------------------------------------
# artifacts

def _atomic_write(path: str, pieces):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    # a fresh temp file beside the target, created like mkstemp's but with
    # mode 0o666, so the umask sets the artifact's mode as open() would
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_pieces(obj, indent: str = ""):
    """The text of ``json.dumps(obj, indent=2)`` in pieces: a C-encoder
    call per run of items that are no dict, list or tuple; the others
    recurse, each with its key as json coerces it in '{"<key>": null}'."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj)
        return
    is_dict, newline = isinstance(obj, dict), "\n" + indent + "  "
    sep, items = ("{", obj.items()) if is_dict else ("[", enumerate(obj))
    for nested, run in itertools.groupby(
            items, lambda item: isinstance(item[1], (dict, list, tuple))):
        if nested:
            for key, value in run:
                head = json.dumps({key: None})[1:-5] if is_dict else ""
                yield sep + newline + head
                yield from json_pieces(value, indent + "  ")
                sep = ","
        else:
            run = dict(run) if is_dict else [value for _, value in run]
            text = json.dumps(run, separators=("," + newline, ": "))
            yield sep + newline + text[1:-1]
            sep = ","
    yield "\n" + indent + ("}" if is_dict else "]")


def write_json_atomic(path: str, obj):
    _atomic_write(path, itertools.chain(json_pieces(obj), "\n"))


def write_csv_atomic(path: str, header: list[str], columns: list[np.ndarray]):
    blocks = (np.array([col[i:i + CSV_BLOCK] for col in columns], float).T
              for i in range(0, max(map(len, columns)), CSV_BLOCK))
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], (
        "\n".join([",".join(map(repr, row)) for row in block.tolist()]) + "\n"
        for block in blocks)))


def finite_potential(potential, x: np.ndarray) -> np.ndarray:
    """V on x; GridError names the first x where V is not finite."""
    v = np.asarray(potential(x), float)
    if not np.all(np.isfinite(v)):
        i = int(np.argmin(np.isfinite(v)))
        raise GridError(f"the potential is not finite at x={float(x[i])!r}: "
                        f"V = {float(v[i])!r}")
    return v


def sample_potential(entry: CatalogEntry, samples: int):
    x = np.linspace(*entry.plot_range, samples)
    return x, finite_potential(entry.potential, x)


def sample_wavefunctions(entry: CatalogEntry, x: np.ndarray,
                         j_values: list[int]):
    """psi_j on x for each j; the levels of one sector share its gauge and
    map and are sampled as one block."""
    psis = [entry.closed_form_wavefunction(j) for j in j_values]
    blocks: dict[int, list[int]] = {}
    for i, psi in enumerate(psis):
        blocks.setdefault(id(psi.gauge), []).append(i)
    cols = [None] * len(psis)
    for rows in blocks.values():
        first = psis[rows[0]]
        block = WaveFunction(first.gauge, [psis[i].coeffs for i in rows],
                             first.mapping)(x)
        for i, col in zip(rows, block):
            cols[i] = col
    return cols


def spectrum_document(entry: CatalogEntry, j_values: list[int]) -> dict:
    return {**_header(entry), "class": entry.kind,
            "levels": [{"j": j, **entry.level(j).to_json_dict()}
                       for j in j_values],
            "warnings": []}
