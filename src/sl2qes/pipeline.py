"""End-to-end plumbing: verification reports and reproducible artifacts.

The verification report checks each analytically known level against the
finite-difference oracle, set up from the entry.  A periodic entry is
solved over one period from the map's shift, in its sector's period class
(antiperiodic iff dq = 1), for the lowest ``sector_count()`` eigenvalues.
Any other gets Dirichlet walls: from the minimum of V, outward past the
outermost turning point of the top level, to where the WKB decay integral
of sqrt(V - E_top) dx reaches DECAY, or at x = 0 on a half line; and k from
a Sturm count up to half a level spacing above E_top.  A half line is
solved on a grid uniform in u = 2 sqrt(x), with its wall at u = 0.  There
a wall psi ~ x^s has the exponent 2 s - 1/2 in u, which keeps the FD error
O(h^2) for s >= 1; an attractive wall, s < 1, fails every level by the
order cause before any solve, with no FD value and no grid.

Each round takes the eigenvalues of ``fd_eigensolve`` at 2h, h and h/2,
solving each grid once per report: a second round at twice the pilot's
points takes the pilot's h and h/2 as its 2h and h.  Per eigenvalue they
give the observed order p and the Richardson value
E_R = w_h/2 + (w_h/2 - w_h) / (2^p - 1), which is the value matched (one
to one, in ascending order) and compared with the algebraic energy at
BASE_TOLERANCE, or an explicitly supplied tolerance, with no widening.
The pilot h puts NODES nodes in a half wavelength of the top level where
it is deepest, and WELL_NODES across the region where it is classically
allowed; when the Richardson estimate of a level exceeds
ROUND_TWO_AIM of the tolerance, one more round follows at a spacing
chosen from that estimate.  A given ``points`` fixes h and makes the
pilot the only round.  Every solved level is expected to converge at
order 2.  A level fails with a named cause when its observed order is below
that band, when its estimate exceeds the tolerance, or when E_R misses the
algebraic energy.

A sampled potential that is not finite raises GridError, naming the first
such x, before any artifact is written.  Every file streams into a temp
file renamed into place (mode 0o666 less the umask), with fixed key order
and repr's shortest round-trip floats, so identical configurations produce
byte-identical output.  A JSON document holds its float data as float64
arrays (a level's b, the JSON samples).  One json.dumps(..., indent=2)
call writes its text with a stand-in string for each array and collects
the arrays; the stream fills in each array's text as json writes a list.

Every float that a request writes is one stream, in write order:
potential.csv's rows, the documents' arrays, then this process's rows of
wavefunctions.csv.  It is formatted by floattext, a numpy kernel that
writes repr's bytes at about a third of repr's cost per float, CHUNK
floats a call across the ends of its runs (a table, or one array), and
its text is split back at each run's end.  A table is one row-major
array, so a pass's floats are a slice of it.  An array's inf and nan
become json's Infinity and NaN.

``write_artifacts`` writes a request's potential.csv, spectrum.json, the
JSON samples (potential.json and wavefunctions.json) when asked for, and
wavefunctions.csv.  It encodes every document before the first file, so
one that cannot be encoded leaves none.  It takes the wavefunctions as a
RowSampler: their map and gauge are already sampled on all of x, so every
named error is raised before any file is written, and what is left per row
is each level's Horner step and ``scaled_exp``, run on rows straight into
the row-major table.

Float formatting holds the GIL, so a request can be written on two cores,
by this process and its table writer: one worker process, forked once and
kept, after floattext's tables are built.  It runs only where this process
has one thread and may run on two CPUs, and the platform has unnamed temp
files that /proc/self/fd names.  Every request to it is a _Job: over a
socket pair, a pickled job and the unnamed temp files that this process
opened for it; the worker writes one body into each file and replies with
one status byte.  A job is one of two:
  - the tail of a large table.  When the wavefunction table holds
    FORK_MIN_FLOATS floats or more, the worker gets the RowSampler and the
    row that gives it about half of the floats the request writes; the
    first such request forks it.  It samples and formats those rows while
    this process samples the other rows, writes the other files and the
    table's first rows, reads the status and appends the worker's rows
    with a kernel copy before the rename.
  - every file of a verify request (``artifact_job``).  The job carries
    the request, not its samples: the worker sets up x, V, the spectrum
    document and the rows from it, under this process's warning filters
    and numpy error state, and formats every file in its one process,
    while this process runs the report.  A set-up that raises writes
    nothing, and the status says so: the caller then sets up itself,
    which raises the same error.  ``commit`` reads the status and links
    each file to a fresh temp name beside its path, renamed into place,
    with no copy.  Such a job forks the worker only when its caller
    asks: the CLI does at every verify but a process's first, so that a
    one-shot verify never forks.
Without the worker this process samples and writes everything itself.
The bytes, modes and cleanup are the one-process writer's.  A write error
in the worker raises OSError with its errno, and a worker that dies raises
OSError and is replaced at the next request.  A request that leaves before
it has read the status reads it then; only an interrupt kills the worker
and reaps it.  The worker is a snapshot of this process at its fork: it
holds none of its files, runs no finalizer of its objects, ignores SIGINT
and prints its own numpy warnings.  It leaves at its socket's end of file,
which an atexit handler makes before it reaps the worker.
"""

from __future__ import annotations

import atexit
import contextlib
import errno
import gc
import itertools
import json
import math
import os
import threading
import warnings

import numpy as np

from .catalog import CatalogEntry
from .errors import GridError
from .fdsolve import SQRT_STRETCH, Grid, count_below, fd_eigensolve
from .floattext import CHUNK, format_floats, tables
from .mapping import WaveFunction

__all__ = [
    "verification_report",
    "write_json_atomic",
    "write_csv_atomic",
    "write_artifacts",
    "artifact_job",
    "json_pieces",
    "finite_potential",
    "sample_potential",
    "sample_wavefunctions",
    "wavefunction_rows",
    "RowSampler",
    "spectrum_document",
]


BASE_TOLERANCE = 1e-3
DECAY = 9.0    # a window end sees the top level's tail at about exp(-DECAY)
# From this many floats a table's tail goes to the table writer.  Warm,
# the worker wins from 2.8k floats, but its first request forks it: at
# 8,000 sector-build rose 2.5% (9 of 10 pairs) while a one-shot n = 20
# build took 17 ms longer (16 of 20).  The other workloads' tables stay
# below 4.1k floats.
FORK_MIN_FLOATS = 16_000
PROBE_POINTS = 1025   # samples of V that size the pilot grid
# The pilot h grid: NODES nodes per half wavelength pi / sqrt(E_top - V_min)
# of the top level, WELL_NODES nodes across the region where V < E_top, and
# at least k + COARSE_SPARE nodes on its 2h grid.
NODES = 12
WELL_NODES = 9
COARSE_SPARE = 16
MAX_POINTS = 999_999  # of an h grid; its h/2 grid has twice as many
# The order gate: a level's observed order must reach EXPECTED_ORDER -
# ORDER_SLACK.  Where |w_h - w_2h| is below ORDER_DE_FLOOR, rounding
# scatters p, and the order is not gated.
EXPECTED_ORDER = 2.0
ORDER_SLACK = 0.3
ORDER_DE_FLOOR = 3e-6
_LOW = EXPECTED_ORDER - ORDER_SLACK
# The second round aims at this share of the tolerance, refining h by at
# most ROUND_TWO_MAX_FACTOR.
ROUND_TWO_AIM = 0.25
ROUND_TWO_MAX_FACTOR = 16.0

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
    x_min = 0.0
    if entry.domain[0] != 0.0:
        x_min, v_left = _decay_end(entry.potential, min(starts), -step,
                                   e_top)
        v_end = min(v_end, v_left)
    return x_min, x_max, v_min, v_end


def _match_levels(levels, numeric):
    """The FD index of each level, walked in ascending order with the
    eigenvalues: each level takes the nearest eigenvalue above the previous
    level's that leaves one for every later level, so none is claimed
    twice."""
    indices = []
    start, count = 0, len(levels)
    for i, (_, energy) in enumerate(levels):
        stop = len(numeric) - (count - 1 - i)
        idx = start + int(np.argmin(np.abs(numeric[start:stop] - energy)))
        indices.append(idx)
        start = idx + 1
    return indices


def _header(entry: CatalogEntry) -> dict:
    """The fields that identify an entry in every report."""
    return {
        "family": entry.name,
        "params": {key: float(v) for key, v in entry.params.items()},
        "n": entry.n,
        "sign": None if entry.sign is None else ("+" if entry.sign > 0 else "-"),
    }


def _pilot_points(potential, x_min, x_max, stretch, e_top, v_min, k):
    """The odd point count of the pilot h grid: NODES nodes in a half
    wavelength of the top level where it is deepest, WELL_NODES nodes
    across the inner nodes of a probe of the window where the top level is
    classically allowed, and k + COARSE_SPARE nodes on its 2h grid.  A
    shallow level in a narrow well has a half wavelength longer than its
    well, and V changes across the well, not across the wavelength.  On a
    stretched grid the depth is that of the normal form, max X'^2 (E_top -
    V), on the probe's inner nodes (V may be singular at the wall)."""
    probe = Grid(x_min, x_max, PROBE_POINTS, stretch)
    u = probe.u_nodes
    length = float(u[-1] - u[0])
    jac, _ = probe.liouville(u[1:-1])
    with np.errstate(all="ignore"):
        v = potential(probe.nodes[1:-1])
        excess = jac * jac * (e_top - v)
    depth = e_top - v_min if stretch is None else float(np.nanmax(excess))
    depth = max(depth, (math.pi / length) ** 2)
    h = math.pi / (NODES * math.sqrt(depth))
    allowed = int(np.count_nonzero(excess > 0.0))
    if allowed:
        h = min(h, allowed * probe.h / WELL_NODES)
    coarse = max(math.ceil(length / (2.0 * h)) + 1, k + COARSE_SPARE)
    return min(2 * coarse - 1, MAX_POINTS)


def _round(entry, levels, grid: Grid, bc: str, k: int, solved: dict):
    """One round: the lowest k eigenvalues w at 2h, h and h/2 (one row per
    grid), (E_R, order, estimate, gated) per eigenvalue, and each level's
    FD index, matched on E_R.  ``solved`` holds the eigenvalues of every
    grid solved so far in the report; a grid found there is not solved
    again."""
    coarse = Grid(grid.x_min, grid.x_max, (grid.points + 1) // 2,
                  grid.stretch)
    grids = (coarse, grid, grid.refined())
    for g in grids:
        if g not in solved:
            solved[g] = fd_eigensolve(entry.potential, g, bc, k,
                                      refine=False).eigenvalues
    w = np.array([solved[g] for g in grids])
    e_r, order, estimate, gated = _richardson(w)
    return (w, e_r, order, estimate, gated, _match_levels(levels, e_r))


def _richardson(w: np.ndarray):
    """(E_R, observed order, estimate, gated) per eigenvalue from the rows
    w = (w_2h, w_h, w_h/2).  E_R = w_h/2 + (w_h/2 - w_h) / (2^p - 1) with
    the observed order p = log2((w_h - w_2h) / (w_h/2 - w_h)) where that
    is positive and the step is above ORDER_DE_FLOOR (gated), else with
    EXPECTED_ORDER.  The estimate is |E_R - E_R(EXPECTED_ORDER)|; a gated
    eigenvalue with no positive order gets |w_h - w_2h|, and one below the
    floor |w_h/2 - w_h|."""
    d1, d2 = w[1] - w[0], w[2] - w[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.log2(d1 / d2)
    gated = np.abs(d1) > ORDER_DE_FLOOR
    observed = gated & (order > 0.0)
    e_r = w[2] + d2 / (2.0 ** np.where(observed, order, EXPECTED_ORDER) - 1.0)
    e_expected = w[2] + d2 / (2.0 ** EXPECTED_ORDER - 1.0)
    estimate = np.where(observed, np.abs(e_r - e_expected),
                        np.where(gated, np.abs(d1), np.abs(d2)))
    return e_r, order, estimate, gated


_SLOW = "the FD oracle does not converge at the expected order"


def _cause(order, estimate, gated, tol, diff):
    """Why a level fails, or None: the oracle cannot vouch for its
    eigenvalue, or E_R misses the algebraic energy."""
    if gated and not order >= _LOW:
        return f"{_SLOW}: observed {order:.3g}, expected at least {_LOW:.3g}"
    if estimate > tol:
        return f"the Richardson estimate {estimate:.3g} exceeds the tolerance"
    if diff > tol:
        return "the FD energy differs from the algebraic one"
    return None


def verification_report(entry: CatalogEntry, j_max: int | None = None,
                        points: int | None = None,
                        tolerance: float | None = None) -> dict:
    """Compare every analytically known level against the numeric oracle;
    raises NoBoundStateError when there is no level to compare, GridError
    when the 2h grid of a given point count cannot hold k eigenvalues."""
    levels = entry.verification_levels(j_max)     # ascending in energy
    if points is not None and points % 2 == 0:
        raise GridError(f"points must be odd, so that the 2h grid takes "
                        f"every other node; got {points}")
    tol = BASE_TOLERANCE if tolerance is None else tolerance
    s = entry.wall_exponent
    if s is not None and s < 1.0:
        cause = (f"{_SLOW}: the wall exponent s = {s:.4g} is below 1, where "
                 f"the FD error is not O(h^2)")
        rows = [{"level": j, "algebraic_E": float(energy),
                 **dict.fromkeys(("numeric_E", "fd_E", "order",
                                  "richardson_estimate", "fd_index",
                                  "abs_diff")),
                 "tolerance": tol, "pass": False, "cause": cause}
                for j, energy in levels]
        return {**_header(entry), "grid": None, "levels": rows,
                "all_pass": False}
    top = levels[-1][1]
    stretch = SQRT_STRETCH if entry.domain[0] == 0.0 else None
    if entry.period is not None:
        # the sector's states are the lowest band edges of one period class:
        # antiperiodic iff a single half-angle factor (dq = 1) is in the gauge
        bc = "antiperiodic" if entry.family.dq == 1 else "periodic"
        x_min = entry.mapping.transform.a
        x_max = x_min + entry.period
        k = entry.sector_count()
        v_min = float(np.min(finite_potential(
            entry.potential, np.linspace(x_min, x_max, PROBE_POINTS))))
    else:
        bc = "dirichlet"
        x_min, x_max, v_min, v_end = _window(entry, top)
        k = len(levels)
    derived = points is None
    if derived:
        points = _pilot_points(entry.potential, x_min, x_max, stretch, top,
                               v_min, k)
    grid = Grid(x_min, x_max, points, stretch)
    if bc == "dirichlet":
        # half a level spacing above the top level takes in its FD partner;
        # staying below V at the window's ends keeps a continuum's box
        # states out
        below = levels[-2][1] if len(levels) > 1 else v_min
        margin = min(top - below, v_end - top) / 2.0
        k = max(k, count_below(entry.potential, grid, top + margin))
        if derived and (points + 1) // 2 < k + COARSE_SPARE:
            grid = Grid(x_min, x_max, 2 * (k + COARSE_SPARE) - 1, stretch)
    if (grid.points + 1) // 2 < k + 2:
        raise GridError(f"k={k} eigenvalues need at least {2 * k + 3} "
                        f"points, so that the 2h grid holds k + 2 nodes; "
                        f"got {grid.points}")
    solved = {}     # Grid: its eigenvalues; both rounds keep bc and k
    w, e_r, order, estimate, gated, index = _round(entry, levels, grid, bc,
                                                   k, solved)
    worst = max(float(estimate[i]) for i in index)
    slow = any(gated[i] and not order[i] >= _LOW for i in index)
    if derived and not slow and worst > ROUND_TWO_AIM * tol:
        # one more round, its spacing from the pilot's estimate, taken to
        # fall as h^2; a level already below the order band fails
        factor = (worst / (ROUND_TWO_AIM * tol)) ** (1.0 / EXPECTED_ORDER)
        factor = min(max(factor, 2.0), ROUND_TWO_MAX_FACTOR)
        steps = 2 * math.ceil((grid.points - 1) * factor / 2.0)
        grid = Grid(x_min, x_max, min(steps + 1, MAX_POINTS), stretch)
        w, e_r, order, estimate, gated, index = _round(
            entry, levels, grid, bc, k, solved)
    rows = []
    for (j, energy), i in zip(levels, index):
        diff = abs(float(e_r[i]) - energy)
        cause = _cause(order[i], estimate[i], gated[i], tol, diff)
        rows.append({
            "level": j,
            "algebraic_E": float(energy),
            "numeric_E": float(e_r[i]),
            "fd_E": float(w[1][i]),
            "order": float(order[i]) if np.isfinite(order[i]) else None,
            "richardson_estimate": float(estimate[i]),
            "fd_index": i,
            "abs_diff": diff,
            "tolerance": tol,
            "pass": cause is None,
            "cause": cause,
        })
    grid_meta = {"x_min": grid.x_min, "x_max": grid.x_max,
                 "points": grid.points, "bc": bc,
                 **({"stretch": stretch} if stretch else {}), "k": k}
    return {**_header(entry), "grid": grid_meta, "levels": rows,
            "all_pass": all(row["pass"] for row in rows)}


# ---------------------------------------------------------------------------
# artifacts

def _directory(path: str) -> str:
    """The directory of ``path``, made first if it is missing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    return directory


def _temp_name() -> str:
    """A fresh temp file's name, to be made beside its target."""
    return f"tmp{os.urandom(6).hex()}.tmp"


def _atomic_write(path: str, pieces, finish=None):
    """Write the text pieces, then ``finish(fd)`` if given, into a temp file
    renamed into place."""
    directory = _directory(path)
    # a fresh temp file beside the target, created like mkstemp's but with
    # mode 0o666, so the umask sets the artifact's mode as open() would
    while True:
        tmp = os.path.join(directory, _temp_name())
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
            if finish is not None:
                handle.flush()
                finish(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_pieces(obj):
    """The text of ``json.dumps(obj, indent=2)`` in pieces, where a float64
    array of one dimension is written as its ``tolist()``.  Its arrays are
    their own floattext stream; a document with none makes no stream."""
    arrays = []
    parts = _encode(obj, arrays)
    return _document(parts, _runs(_arrays(arrays)))


_HOLE = "\0array\0"     # an array's stand-in in json.dumps's text
_QUOTED = json.dumps(_HOLE)


def _encode(obj, arrays: list) -> list:
    """The text of ``json.dumps(obj, indent=2)``, split where each non-empty
    float64 array of one dimension goes; the arrays are appended to
    ``arrays`` in order.  Any other array is encoded as its ``tolist()``.
    ValueError when a string of obj spells the split."""
    found = []

    def default(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not "
                            f"JSON serializable")
        if value.ndim == 1 and value.dtype == np.float64 and value.size:
            found.append(value)
            return _HOLE
        return value.tolist()

    parts = json.dumps(obj, indent=2, default=default).split(_QUOTED)
    if len(parts) != len(found) + 1:
        raise ValueError(f"a string in the document spells {_QUOTED}, which "
                         f"stands in for a float array")
    arrays += found
    # json's encoder is a reference cycle that keeps ``default`` until the
    # gc collects it: left holding the arrays, it would keep them too
    found.clear()
    return parts


def _document(parts: list, run):
    """The text pieces of an encoded document: its parts, and between them
    each array's text as json.dumps(..., indent=2) writes its list at the
    indent of the line its stand-in was on, from the next ``run()``;
    repr's inf and nan become json's Infinity and NaN."""
    yield parts[0]
    for before, after in zip(parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        indent = line[:len(line) - len(line.lstrip(" "))]
        body = "".join(run())
        if "n" in body:     # no finite float's text has an n
            body = body.replace("inf", "Infinity").replace("nan", "NaN")
        newline = "\n" + indent + "  "
        yield ("[" + newline + body.replace(",", "," + newline) + "\n"
               + indent + "]")
        yield after


def _file(header: list[str] | None, text):
    """A file's text pieces: a CSV table's ``text`` under its ``header``,
    or, with no header, a JSON document's with a final newline."""
    if header is None:
        return itertools.chain(text, "\n")
    return itertools.chain([",".join(header) + "\n"], text)


def write_json_atomic(path: str, pieces):
    """The JSON document of the text ``pieces`` (``json_pieces``), with a
    final newline."""
    _atomic_write(path, _file(None, pieces))


_EDGE = "|"     # a run's last separator, where its text is split back


def _arrays(arrays: list) -> list:
    """The stream source of ``arrays``, each one run: one concatenation and
    one separator vector, a comma after each float and _EDGE after an
    array's last.  No source, and no numpy call, when there is no array."""
    if not arrays:
        return []
    values = np.concatenate(arrays)
    seps = np.full(values.size, ord(","), np.uint8)
    seps[np.cumsum([array.size for array in arrays]) - 1] = ord(_EDGE)
    return [(values.size, lambda a, b: (values[a:b], seps[a:b]))]


def _table(table: np.ndarray):
    """The stream source of a row-major (rows, columns) ``table`` as one
    run.  ``take(a, b)`` gives its floats [a:b], a slice of the table, and
    their separators (a comma, a newline after a row, _EDGE after the last
    float)."""
    width = table.shape[1]
    values = table.reshape(-1)

    def take(a: int, b: int):
        seps = np.full(b - a, ord(","), np.uint8)
        seps[(width - 1 - a) % width::width] = ord("\n")
        if b == values.size:
            seps[-1] = ord(_EDGE)
        return values[a:b], seps

    return values.size, take


def _runs(sources):
    """A function ``run()`` whose calls give the text pieces of each run of
    ``sources``, (size, take) pairs that hold one run or more, in order:
    each run is read to its end before the next is asked for.  The floats
    are one stream, formatted in passes of CHUNK floats across run ends,
    one floattext call each, and each pass's text is split back at
    _EDGE."""
    ats = [0, *itertools.accumulate(size for size, _ in sources)]

    def passes():
        for first in range(0, ats[-1], CHUNK):
            last = first + CHUNK
            values, seps = zip(*(
                take(max(first - at, 0), min(last - at, size))
                for at, (size, take) in zip(ats, sources)
                if max(first, at) < min(last, at + size)))
            *done, rest = format_floats(np.concatenate(values),
                                        np.concatenate(seps)).split(_EDGE)
            for text in done:
                yield text, True
            if rest:
                yield rest, False

    pieces = passes()

    def run():
        for text, end in pieces:
            yield text
            if end:
                return

    return run


def _csv(run, rows: int):
    """The text of a table's rows: the next ``run()`` and the newline its
    _EDGE took, or nothing for a table of no rows."""
    return itertools.chain(run(), "\n") if rows else iter(())


def write_csv_atomic(path: str, header: list[str], rows,
                     tail: _Tail | None = None):
    """The table under its header: ``rows`` is an iterator of its rows'
    text, as ``_csv`` gives.  With ``tail``, the worker's rows follow
    them."""
    _atomic_write(path, _file(header, rows),
                  None if tail is None else tail.append_to)


# a worker's status byte: 0, an errno below _NOT_SET_UP, or one of these
_NOT_SET_UP = 254   # the job raised before its first write: nothing written
_FAILED = 255       # the job failed any other way


def _write_texts(fds, texts) -> int:
    """The worker's writes for one request: each text's pieces into its
    descriptor, in order.  It imports nothing and calls no BLAS routine
    (a verify job's set-up before it does).  0, or the errno of the write
    that failed."""
    try:
        for fd, pieces in zip(fds, texts):
            for text in pieces:
                data = text.encode()
                while data:
                    data = data[os.write(fd, data):]
    except OSError as exc:
        return exc.errno if exc.errno and exc.errno < _NOT_SET_UP else _FAILED
    return 0


def _write_rows(fd: int, table, start: int) -> int:
    """A _Tail's work in the worker: rows [start:] of the table, sampled
    by ``table(start)``, into fd; _write_texts's status."""
    rows = table(start)
    return _write_texts([fd], [_csv(_runs([_table(rows)]), len(rows))])


def _tail_rows(fds, table, start: int) -> int:
    """A _Tail's job: _write_rows, looked up in the worker, into its one
    file."""
    return _write_rows(fds[0], table, start)


def _artifact_texts(fds, x, v, doc, psi, json_samples: bool) -> int:
    """Every file of ``write_artifacts`` into its descriptor, all of the
    table's rows in this one process: _write_texts's status, or
    _NOT_SET_UP when sampling the rows or encoding a document raised, before
    any write."""
    try:
        whole = psi() if json_samples else None
        texts = _texts(x, v, _documents(x, v, doc, whole),
                       psi() if whole is None else whole)
    except Exception:
        return _NOT_SET_UP
    return _write_texts(fds, (_file(header, text) for header, text in texts))


def _request_texts(fds, set_up, request, json_samples: bool, filters,
                   errors: dict) -> int:
    """A verify job's work in the worker: ``set_up(request)`` gives (x, V,
    the spectrum document, the RowSampler), and _artifact_texts writes
    them, both under the caller's warning ``filters`` and numpy ``errors``
    state.  _NOT_SET_UP, with nothing written, when the set-up raised."""
    with warnings.catch_warnings(), np.errstate(**errors):
        warnings.filters[:] = filters
        try:
            artifacts = set_up(request)
        except Exception:
            return _NOT_SET_UP
        return _artifact_texts(fds, *artifacts, json_samples)


# (pid, socket, pid of the process that forked it) of this process's table
# writer, or None
_worker = None


def _has_worker() -> bool:
    return _worker is not None and _worker[2] == os.getpid()


def _worker_socket():
    """The socket of this process's table writer, forked first when there is
    none.  The worker is a snapshot of this process, and it holds none of
    its files: it closes every descriptor but stdio and its socket, this
    process's end among them, so that its socket ends when this process
    closes that end."""
    global _worker
    if _has_worker():
        return _worker[1]
    _forget_worker()
    import signal
    import socket
    ours, theirs = socket.socketpair()
    try:
        pid = os.fork()
    except OSError:
        ours.close()
        theirs.close()
        raise
    if pid == 0:
        try:
            # an interrupt is this process's to handle; the worker leaves
            # with its socket
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            gc.freeze()     # no finalizer of this process's objects runs there
            fd = theirs.fileno()
            os.closerange(3, fd)
            os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
            _serve(theirs)
        finally:
            os._exit(0)     # no atexit handler, no stdio flush
    theirs.close()
    _worker = (pid, ours, os.getpid())
    return ours


def _serve(sock) -> None:
    """The worker's loop, one request at a time until its socket's end of
    file, each answered with its job's status byte."""
    while (code := _take(sock)) is not None:
        sock.sendall(bytes([code]))


def _take(sock) -> int | None:
    """One request in the worker, as ``_Job`` sends it: the length of the
    pickled (function, args) with the descriptors of the files to write,
    then those bytes; ``function(fds, *args)`` writes them.  Its status
    (_FAILED when it raised), or None at the end of the stream.  Nothing of
    the request outlives the call."""
    import pickle
    import socket
    head, fds, _, _ = socket.recv_fds(sock, 8, len(_names(True)))
    try:
        if len(head) != 8 or not fds:
            return None
        data = _receive(sock, int.from_bytes(head, "little"))
        try:
            function, args = pickle.loads(data)
            return function(fds, *args)
        except Exception:
            return _FAILED
    except EOFError:
        return None
    finally:
        for fd in fds:
            os.close(fd)


def _receive(sock, size: int) -> bytearray:
    """The next size bytes of the socket; EOFError at its end."""
    data = bytearray(size)
    view, done = memoryview(data), 0
    while done < size:
        got = sock.recv_into(view[done:])
        if not got:
            raise EOFError
        done += got
    return data


def _end_worker(kill: bool = False) -> int | None:
    """Close this process's worker's socket, so that it leaves, kill it
    first (SIGKILL) when asked, reap it and forget it; its exit code,
    negative for a signal, or None when there is none.  The interpreter's
    exit ends it without the kill."""
    global _worker
    if not _has_worker():
        return None
    pid, sock, _ = _worker
    _worker = None
    sock.close()
    if kill:
        os.kill(pid, 9)     # SIGKILL
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _forget_worker():
    """Forget a worker this process did not fork (it was forked from the
    worker's parent): close the inherited socket, so that the worker still
    leaves with its parent."""
    global _worker
    if _worker is not None:
        _worker[1].close()
        _worker = None


atexit.register(_end_worker)
os.register_at_fork(after_in_child=_forget_worker)


def _writer_may_run() -> bool:
    """Whether this process may use a table writer: the platform has
    unnamed temp files that /proc/self/fd can name, and this process has
    one thread and may run on two CPUs."""
    return (hasattr(os, "O_TMPFILE") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and os.path.isdir("/proc/self/fd"))


class _Job:
    """One request to this process's worker: ``function(fds, *args)`` runs
    there on a pickled copy of ``args``, writes one body into each of the
    unnamed temp files that this process opened for ``paths``, which share
    one directory (they are made in it, or in its nearest ancestor that
    exists, with mode 0o666 less the umask), and returns a status byte,
    while this process goes on.  ``wait`` reads the worker's status, and
    ``commit`` links each file into place.  Leaving the ``with`` block
    before the status is read reads it then, so that the worker is kept,
    unless an interrupt, or any BaseException that is not an Exception,
    left the block: that discards the worker (SIGKILL, then reap), so no
    status reaches a later request."""

    def __init__(self, what: str, paths: list[str], function, *args):
        import pickle
        import socket
        data = pickle.dumps((function, args), pickle.HIGHEST_PROTOCOL)
        self.what, self.paths, self.sock, self.files = what, paths, None, []
        directory = os.path.dirname(os.path.abspath(paths[0]))
        while not os.path.isdir(directory):
            directory = os.path.dirname(directory)
        try:
            for _ in paths:
                self.files.append(os.open(directory,
                                          os.O_TMPFILE | os.O_RDWR, 0o666))
            self.sock = _worker_socket()
        finally:
            if self.sock is None:
                self._close()
        quiet = socket.MSG_NOSIGNAL     # a gone worker is an OSError
        try:
            socket.send_fds(self.sock, [len(data).to_bytes(8, "little")],
                            self.files, quiet)
            self.sock.sendall(data, quiet)
        except OSError:     # the worker is gone: wait names it
            pass
        except BaseException:
            self.__exit__(BaseException)
            raise

    def __enter__(self):
        return self

    def __exit__(self, kind=None, *exc):
        try:
            if self.sock is not None and (kind is None
                                          or issubclass(kind, Exception)):
                with contextlib.suppress(OSError):  # the block's error wins
                    self.wait()
        finally:
            if self.sock is not None:
                self.sock = None
                _end_worker(kill=True)
            self._close()

    def _close(self):
        for fd in self.files:
            os.close(fd)
        self.files = []

    def wait(self) -> bool:
        """Wait for the worker's status: True when the job is done, False
        when it wrote nothing because its set-up raised (_NOT_SET_UP);
        OSError when it failed, or is gone."""
        try:
            status = self.sock.recv(1)
        except ConnectionResetError:    # it left before reading it all
            status = b""
        self.sock = None
        if not status:
            code = _end_worker(kill=True)
            raise OSError(errno.EIO, f"{self.what} " + (
                f"was killed by signal {-code}" if code < 0 else
                f"exited with status {code}"))
        code = status[0]
        if code and code != _NOT_SET_UP:
            raise OSError(code if code < _FAILED else errno.EIO,
                          f"{self.what} " + (f"failed: {os.strerror(code)}"
                                             if code < _FAILED else "failed"))
        return code == 0

    def commit(self) -> bool:
        """Wait for the worker's status, then give each file its path: a
        link to a fresh temp name beside it, renamed into place.  False,
        with nothing in place, when the job's set-up raised."""
        if not self.wait():
            return False
        dir_fd = os.open(_directory(self.paths[0]),
                         os.O_RDONLY | os.O_DIRECTORY)
        try:
            for fd, path in zip(self.files, self.paths):
                _link(fd, os.path.basename(path), dir_fd)
        finally:
            os.close(dir_fd)
        return True


def _link(fd: int, name: str, dir_fd: int):
    """Name the unnamed file fd ``name`` in the directory dir_fd: linked
    to a fresh temp name, then renamed over ``name``.  The dir fd makes
    os.link call linkat with AT_SYMLINK_FOLLOW, which follows /proc's
    link to the file (link(2) would fail with EXDEV)."""
    while True:
        tmp = _temp_name()
        try:
            os.link(f"/proc/self/fd/{fd}", tmp, dst_dir_fd=dir_fd,
                    follow_symlinks=True)
            break
        except FileExistsError:
            continue
    try:
        os.replace(tmp, name, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except BaseException:
        os.unlink(tmp, dir_fd=dir_fd)
        raise


class _Tail(_Job):
    """The last rows of a table, from ``start``, sampled and formatted by
    the worker into one file while this process writes the rest.  ``table(start, stop=None)`` gives the table's rows
    [start:stop] as one row-major array."""

    def __init__(self, path: str, table, start: int):
        super().__init__(f"the writer process formatting rows from {start} "
                         f"of {path}", [path], _tail_rows, table, start)
        self.start = start

    def append_to(self, fd: int):
        """Wait for the worker's status and copy its rows to the end of
        fd in the kernel; OSError when the worker failed, or is gone."""
        self.wait()
        size, done = os.fstat(self.files[0]).st_size, 0
        while done < size:
            copied = os.sendfile(fd, self.files[0], done, size - done)
            if not copied:
                raise OSError(errno.EIO, f"{self.what}: its file ended early")
            done += copied


def _split(rows: int, width: int, other: int) -> int:
    """The worker's first row: the one that gives it about half of the
    floats written while it runs, ``other`` of them outside the table, and
    at least the last row."""
    worker = (other + rows * width) / (2 * width)
    return min(max(round(rows - worker), 0), rows - 1)


def _forked_tail(path: str, table, shape: tuple[int, int],
                 docs: list) -> _Tail | None:
    """A _Tail for the table of ``shape`` (rows, columns) when it holds
    FORK_MIN_FLOATS floats or more and the worker may run
    (_writer_may_run); else None.  While the worker writes, this process
    also writes the JSON documents ``docs`` and a two-column table as long
    as this one."""
    rows, width = shape
    if rows * width < FORK_MIN_FLOATS or not _writer_may_run():
        return None
    start = _split(rows, width, 2 * rows + _scalars(docs))
    tables()    # floattext's, built here before the worker's fork
    try:
        return _Tail(path, table, start)
    except OSError:     # no unnamed temp file here, or no worker to fork
        return None


def _scalars(obj) -> int:
    """The values in a JSON document, an array by its size."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, (dict, list, tuple)):
        return sum(map(_scalars, obj.values() if isinstance(obj, dict)
                       else obj))
    return 1


class RowSampler:
    """The wavefunction table on x sampled a range of rows at a time: x,
    then the levels of WaveRows blocks in column order, whose map and gauge
    are already sampled on all of x."""

    def __init__(self, x: np.ndarray, blocks):
        self.x = x
        self.blocks = list(blocks)
        self.width = sum(len(block.coeffs) for block in self.blocks)

    def __call__(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows [start:stop] as one row-major (rows, 1 + width) array, x in
        column 0; each block writes its levels' columns in place."""
        x = self.x[start:stop]
        table = np.empty((len(x), 1 + self.width))
        table[:, 0] = x
        at = 1
        for block in self.blocks:
            block(slice(start, stop), table[:, at:at + len(block.coeffs)])
            at += len(block.coeffs)
        return table


def _names(json_samples: bool) -> list[str]:
    """A request's artifacts, in write order."""
    return ["potential.csv", "spectrum.json",
            *(("potential.json", "wavefunctions.json") if json_samples
              else ()), "wavefunctions.csv"]


def _documents(x, v, doc: dict, whole) -> list:
    """spectrum.json's document, and with the ``whole`` table the samples
    as JSON arrays, the table's columns: potential.json's and
    wavefunctions.json's."""
    if whole is None:
        return [doc]
    return [doc, {"x": x, "V": v}, {"x": x, "psi": {
        str(j): whole[:, 1 + j] for j in range(whole.shape[1] - 1)}}]


def _texts(x, v, docs: list, waves: np.ndarray) -> list:
    """(CSV header, or None for a JSON document, text pieces) of each
    artifact of ``_names``: potential.csv, the documents ``docs`` and
    wavefunctions.csv, the table's rows ``waves``.  Their floats are one
    stream, so the texts are read in this order.  Every document is
    encoded before this returns."""
    arrays = []
    encoded = [_encode(obj, arrays) for obj in docs]
    run = _runs([_table(np.column_stack((x, v))), *_arrays(arrays),
                 _table(waves)])
    return [(["x", "V"], _csv(run, len(x))),
            *((None, _document(parts, run)) for parts in encoded),
            (["x"] + [f"psi_{j}" for j in range(waves.shape[1] - 1)],
             _csv(run, len(waves)))]


def write_artifacts(out_dir: str, x, v, doc: dict, psi: RowSampler,
                    json_samples: bool = False):
    """potential.csv, spectrum.json and wavefunctions.csv (the table of
    ``psi``: x, then psi_j in column j + 1), and with ``json_samples`` the
    samples as JSON arrays too, the table's columns, for which every row
    is sampled first, written before
    wavefunctions.csv.  Every document is encoded before the first file, so
    one that cannot be encoded leaves none.  A large wavefunction table's
    last rows are sampled and formatted by this process's worker
    (_forked_tail), sent them before the first file is written."""
    whole = psi() if json_samples else None
    docs = _documents(x, v, doc, whole)
    paths = [os.path.join(out_dir, name) for name in _names(json_samples)]
    tail = _forked_tail(paths[-1], psi, (len(x), psi.width + 1), docs)
    with tail or contextlib.nullcontext():
        stop = None if tail is None else tail.start
        texts = _texts(x, v, docs, psi(0, stop) if whole is None
                       else whole[:stop])
        for path, (header, text) in zip(paths, texts):
            if header is None:
                write_json_atomic(path, text)
            else:
                write_csv_atomic(path, header, text,
                                 tail if path == paths[-1] else None)


def artifact_job(out_dir: str, set_up, request, json_samples: bool = False,
                 start: bool = True):
    """The files of ``write_artifacts`` as a _Job, sent the request, not
    its samples: this process's worker runs ``set_up(request)``, which
    gives (x, V, the spectrum document, the RowSampler), under this
    process's warning filters and numpy error state, and formats every
    file in its one process, while this process goes on.  ``commit()``
    links them into place, or returns False when the set-up raised: the
    caller then sets up and writes them itself, which raises the same
    error.  None, with nothing sent, when the worker may not run
    (_writer_may_run), when this process has none and ``start`` is
    false, or when the unnamed files cannot be made or the filters
    cannot be pickled."""
    if not _writer_may_run() or not (start or _has_worker()):
        return None
    tables()    # floattext's, built here before the worker's fork
    import pickle
    try:
        return _Job(f"the writer process formatting the artifacts of "
                    f"{out_dir}", [os.path.join(out_dir, name) for name in
                                   _names(json_samples)],
                    _request_texts, set_up, request, json_samples,
                    warnings.filters, np.geterr())
    # no unnamed temp file here, no worker to fork, or a filter whose
    # category is a local class
    except (OSError, AttributeError, pickle.PicklingError):
        return None


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


def wavefunction_rows(entry: CatalogEntry, x: np.ndarray,
                      j_values: list[int]) -> RowSampler:
    """psi_j on x for each j, as a RowSampler; consecutive levels of one
    sector share its gauge and map, which are sampled here on all of x,
    once for the block.  Ascending j keeps a sector's levels together."""
    psis = [entry.closed_form_wavefunction(j) for j in j_values]
    blocks = [list(group) for _, group in
              itertools.groupby(psis, lambda psi: id(psi.gauge))]
    return RowSampler(x, (
        WaveFunction(block[0].gauge, [psi.coeffs for psi in block],
                     block[0].mapping).on(x) for block in blocks))


def sample_wavefunctions(entry: CatalogEntry, x: np.ndarray,
                         j_values: list[int]):
    """psi_j on x for each j, one row per level: a transposed view of
    ``wavefunction_rows`` on every row."""
    return wavefunction_rows(entry, x, j_values)()[:, 1:].T


def spectrum_document(entry: CatalogEntry, j_values: list[int]) -> dict:
    return {**_header(entry), "class": entry.kind,
            "levels": [{"j": j, **entry.level(j).to_json_dict()}
                       for j in j_values],
            "warnings": []}
