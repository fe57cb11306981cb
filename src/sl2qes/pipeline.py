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
the row-major table.  Float formatting holds the GIL, so a large request
is written on two cores: when the wavefunction
table holds FORK_MIN_FLOATS floats or more, the process has one thread and
may run on two CPUs, one child is forked before the first file, after
floattext's tables are built.  It samples the table's rows from the one
that gives it about half of the floats the request writes while it runs,
formats them into an unnamed temp file beside the table, and leaves with
os._exit.  The parent samples the other rows, writes the other files and
the table's first rows, reaps the child and appends its rows with a kernel
copy before the rename.  Without the fork the parent samples every row.
The bytes, modes and cleanup are the one-process writer's; a failed child
raises OSError, and a parent that fails first kills the child and reaps it.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import itertools
import json
import math
import os
import threading

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
# From this many floats a table's tail is formatted in a forked child.  In
# a warmed 89 MB process on two cores, whole build requests with the fork
# lost 6 ms at 8.8k table floats and won 3 ms at 12.8k (28 of 40 runs) and
# 9 ms at 16.8k (38 of 40).
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

def _atomic_write(path: str, pieces, finish=None):
    """Write the text pieces, then ``finish(fd)`` if given, into a temp file
    renamed into place."""
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


def write_json_atomic(path: str, pieces):
    """The JSON document of the text ``pieces`` (``json_pieces``), with a
    final newline."""
    _atomic_write(path, itertools.chain(pieces, "\n"))


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
    text, as ``_csv`` gives.  With ``tail``, the forked child's rows
    follow them."""
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], rows),
                  None if tail is None else tail.append_to)


def _write_rows(fd: int, table, start: int) -> int:
    """The forked child's work: rows [start:] of the table, sampled by
    ``table(start)``, into fd.  It imports nothing and calls no BLAS
    routine.  0, or the errno of the write that failed."""
    try:
        rows = table(start)
        for text in _csv(_runs([_table(rows)]), len(rows)):
            data = text.encode()
            while data:
                data = data[os.write(fd, data):]
    except OSError as exc:
        return exc.errno if exc.errno and exc.errno < 255 else 255
    return 0


class _Tail:
    """The last rows of a table, sampled and formatted by a forked child
    into an unnamed temp file in the table's directory while this process
    writes the rest.  ``table(start, stop=None)`` gives the table's rows
    [start:stop] as one row-major array.  Leaving the ``with`` block
    before ``append_to`` has reaped the child kills it (SIGKILL) and reaps
    it."""

    def __init__(self, path: str, table, start: int):
        self.path, self.start = path, start
        self.side = os.open(os.path.dirname(os.path.abspath(path)),
                            os.O_TMPFILE | os.O_RDWR, 0o600)
        self.pid, code = -1, 255
        try:
            self.pid = os.fork()
            if self.pid == 0:
                gc.disable()    # no finalizer of the parent's runs here
                code = _write_rows(self.side, table, start)
        finally:
            if self.pid == 0:
                os._exit(code)  # no atexit handler, no stdio flush
            if self.pid < 0:
                os.close(self.side)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid is not None:
            os.kill(self.pid, 9)    # SIGKILL
            os.waitpid(self.pid, 0)
        os.close(self.side)

    def append_to(self, fd: int):
        """Reap the child and copy its rows to the end of fd in the kernel;
        OSError when the child failed."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        what = (f"the child process formatting rows from {self.start} of "
                f"{self.path}")
        if code:
            cause = (f"was killed by signal {-code}" if code < 0 else
                     f"failed: {os.strerror(code)}" if code < 255 else
                     "failed")
            raise OSError(code if 0 < code < 255 else errno.EIO,
                          f"{what} {cause}")
        size, done = os.fstat(self.side).st_size, 0
        while done < size:
            copied = os.sendfile(fd, self.side, done, size - done)
            if not copied:
                raise OSError(errno.EIO, f"{what}: its file ended early")
            done += copied


def _split(rows: int, width: int, other: int) -> int:
    """The child's first row: the one that gives it about half of the
    floats written while it runs, ``other`` of them outside the table, and
    at least the last row."""
    child = (other + rows * width) / (2 * width)
    return min(max(round(rows - child), 0), rows - 1)


def _forked_tail(path: str, table, shape: tuple[int, int],
                 docs: list) -> _Tail | None:
    """A _Tail for the table of ``shape`` (rows, columns) when it holds
    FORK_MIN_FLOATS floats or more, this process has one thread and may
    run on two CPUs, and the platform has unnamed temp files; else None.
    While the child runs, this process also writes the JSON documents
    ``docs`` and a two-column table as long as this one."""
    rows, width = shape
    if (rows * width < FORK_MIN_FLOATS
            or not hasattr(os, "O_TMPFILE")
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() != 1):
        return None
    start = _split(rows, width, 2 * rows + _scalars(docs))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tables()    # floattext's, built once here rather than in the child
    try:
        return _Tail(path, table, start)
    except OSError:     # no unnamed temp file here, or no process to fork
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


def write_artifacts(out_dir: str, x, v, doc: dict, psi: RowSampler,
                    json_samples: bool = False):
    """potential.csv, spectrum.json and wavefunctions.csv (the table of
    ``psi``: x, then psi_j in column j + 1), and with ``json_samples`` the
    samples as JSON arrays too, the table's columns, for which every row
    is sampled first, written before
    wavefunctions.csv.  Every document is encoded before the first file, so
    one that cannot be encoded leaves none.  A large wavefunction table's
    last rows are sampled and formatted by a forked child (_forked_tail),
    forked before the first file is written."""
    whole = psi() if json_samples else None

    def table(start, stop=None):
        return psi(start, stop) if whole is None else whole[start:stop]

    docs = {"spectrum.json": doc, **({} if whole is None else {
        "potential.json": {"x": x, "V": v},
        "wavefunctions.json": {"x": x, "psi": {
            str(j): whole[:, 1 + j] for j in range(psi.width)}}})}
    target = os.path.join(out_dir, "wavefunctions.csv")
    tail = _forked_tail(target, table, (len(x), psi.width + 1),
                        list(docs.values()))
    with tail or contextlib.nullcontext():
        arrays = []
        encoded = {name: _encode(obj, arrays) for name, obj in docs.items()}
        waves = table(0, None if tail is None else tail.start)
        run = _runs([_table(np.column_stack((x, v))), *_arrays(arrays),
                     _table(waves)])
        write_csv_atomic(os.path.join(out_dir, "potential.csv"), ["x", "V"],
                         _csv(run, len(x)))
        for name, parts in encoded.items():
            write_json_atomic(os.path.join(out_dir, name),
                              _document(parts, run))
        write_csv_atomic(target, ["x"] + [f"psi_{j}" for j in
                                          range(psi.width)],
                         _csv(run, len(waves)), tail)


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
