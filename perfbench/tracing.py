"""Spans and counters around the package's public functions.

The tracer replaces public functions and methods of the ``sl2qes`` modules
with wrappers while it is installed, and restores them afterwards; no file
of the package changes.  A function imported by name into another module is
replaced there too, so every call path is seen.  Spans are kept in memory
(case id, span id, parent span id, name, start, end) and written out at the
end of a run; counters are kept per case.

A span's layer is the first component of its name, which is the module that
defines the function.  A layer's self time is the time of its spans minus
the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("algebra", "spectral", "catalog", "mapping", "fdsolve", "pipeline",
          "cli")


# Counters: fn(counts, result, arguments) after a successful call.

def _count_matrix(counts, result, a):
    counts["algebra.entries"] += (a["c"].n + 1) ** 2


def _count_levels(counts, result, a):
    counts["spectral.levels"] += len(result.levels)
    counts["spectral.complex_levels"] += sum(
        lv.imag_residual > 1e-9 * (1.0 + abs(complex(lv.d, lv.imag_residual)))
        for lv in result.levels)


def _count_mapping(counts, result, a):
    counts["mapping.numeric_maps"] += result.closed_form is None


def _count_fd(counts, result, a):
    points = a["grid"].points
    solves = 2 if a["refine"] else 1
    counts["fdsolve.solves"] += solves
    counts["fdsolve.grid_points"] += points + (2 * points - 1) * (solves - 1)
    counts["fdsolve.eigs"] += a["k"] * solves


def _count_samples(counts, arrays):
    for arr in arrays:
        arr = np.asarray(arr)
        counts["pipeline.samples"] += arr.size
        counts["pipeline.nonfinite_samples"] += int(
            np.sum(~np.isfinite(arr)))


def _count_potential_samples(counts, result, a):
    _count_samples(counts, [result[1]])


def _count_wave_samples(counts, result, a):
    _count_samples(counts, result)


def _count_wave_call(counts, result, a):
    _count_samples(counts, [result])


def _count_bytes(counts, result, a):
    counts["pipeline.bytes_written"] += os.path.getsize(a["path"])


# (module, attribute, counter); the span name is "<layer>.<attribute>".
FUNCTIONS = (
    ("algebra", "hamiltonian_matrix", _count_matrix),
    ("algebra", "b_polynomials", None),
    ("spectral", "solve_algebraic_sector", _count_levels),
    ("spectral", "compose_energies", None),
    ("catalog", "make_entry", None),
    ("mapping", "build_mapping", _count_mapping),
    ("mapping", "build_gauge", None),
    ("mapping", "potential_from_operator", None),
    ("fdsolve", "fd_eigensolve", _count_fd),
    ("fdsolve", "band_edges", None),
    ("pipeline", "verification_report", None),
    ("pipeline", "sample_potential", _count_potential_samples),
    ("pipeline", "sample_wavefunctions", _count_wave_samples),
    ("pipeline", "spectrum_document", None),
    ("pipeline", "write_json_atomic", _count_bytes),
    ("pipeline", "write_csv_atomic", _count_bytes),
    ("cli", "main", None),
)

# (module, class, method, counter); span name "<layer>.<class>.<method>".
METHODS = (
    ("catalog", "CatalogEntry", "spectral", None),
    ("mapping", "PotentialModel", "__call__", None),
    ("mapping", "GaugeFactor", "__call__", None),
    ("mapping", "WaveFunction", "__call__", _count_wave_call),
)

# Span names summed (outermost only) into the inclusive-time metrics.
INCLUSIVE = {
    "fdsolve.bands_ms": ("fdsolve.band_edges",),
    "algebra.assemble_ms": ("algebra.hamiltonian_matrix",),
    "catalog.make_ms": ("catalog.make_entry",),
    "mapping.build_ms": ("mapping.build_mapping",),
    "mapping.gauge_ms": ("mapping.build_gauge",
                         "mapping.GaugeFactor.__call__"),
    "mapping.potential_ms": ("mapping.PotentialModel.__call__",),
    "pipeline.sample_ms": ("pipeline.sample_potential",
                           "pipeline.sample_wavefunctions",
                           "mapping.WaveFunction.__call__"),
    "pipeline.write_ms": ("pipeline.write_json_atomic",
                          "pipeline.write_csv_atomic"),
}

# Span names whose summed self time is a metric.
SELF = {
    "spectral.solve_ms": ("spectral.solve_algebraic_sector",
                          "spectral.compose_energies"),
    "pipeline.verify_self_ms": ("pipeline.verification_report",),
    "cli.main_self_ms": ("cli.main",),
}

COUNTS = ("fdsolve.solves", "fdsolve.grid_points", "fdsolve.eigs",
          "algebra.entries", "spectral.levels", "spectral.complex_levels",
          "mapping.numeric_maps", "mapping.quad_calls", "pipeline.samples",
          "pipeline.nonfinite_samples", "pipeline.bytes_written")


class Tracer:
    """Installs the wrappers; records spans only while a case is open."""

    def __init__(self):
        self.spans: list = []          # [case, id, parent, name, t0, t1, bc]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._case: str | None = None
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self
        is_fd = name == "fdsolve.fd_eigensolve"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            case = tracer._case
            if case is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            bound = None
            if counter is not None or is_fd:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = [case, sid, parent, name, time.perf_counter(), None,
                    bound["bc"] if is_fd else None]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts[case], result, bound)
            return result

        return wrapper

    def _count_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            if tracer._case is not None:
                tracer.counts[tracer._case]["mapping.quad_calls"] += 1
            return quad(*args, **kwargs)

        return counted

    def open_case(self, case_id: str):
        self._case = case_id
        self._stack = []

    def close_case(self):
        self._case = None

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement, modules):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "sl2qes" or name.startswith("sl2qes.")]
        for mod, attr, counter in FUNCTIONS:
            original = getattr(sys.modules[f"sl2qes.{mod}"], attr)
            self._replace_everywhere(
                original, self._wrap(original, f"{mod}.{attr}", counter),
                modules)
        for mod, cls_name, method, counter in METHODS:
            cls = getattr(sys.modules[f"sl2qes.{mod}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(
                original, f"{mod}.{cls_name}.{method}", counter))
            self._undo.append((cls, method, original))
        mapping = sys.modules["sl2qes.mapping"]
        self._replace_everywhere(mapping.quad, self._count_quad(mapping.quad),
                                 [mapping])

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    # -- summaries ---------------------------------------------------------

    def case_summary(self, case_id: str, spans: list) -> dict:
        """Per-layer self time (ms) and the metric sums of one case."""
        by_id = {s[1]: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s[2] is not None:
                child[s[2]] += s[5] - s[4]
        layer_self = Counter()
        named_self = Counter()
        for s in spans:
            own = (s[5] - s[4] - child[s[1]]) * 1e3
            layer_self[s[3].split(".")[0]] += own
            named_self[s[3]] += own

        def outermost(span, names):
            parent = span[2]
            while parent is not None:
                if by_id[parent][3] in names:
                    return False
                parent = by_id[parent][2]
            return True

        out = {f"{layer}.self_ms": layer_self[layer] for layer in LAYERS}
        for metric, names in INCLUSIVE.items():
            out[metric] = sum((s[5] - s[4]) * 1e3 for s in spans
                              if s[3] in names and outermost(s, names))
        out["fdsolve.dirichlet_ms"] = sum(
            (s[5] - s[4]) * 1e3 for s in spans
            if s[3] == "fdsolve.fd_eigensolve" and s[6] == "dirichlet"
            and outermost(s, ("fdsolve.band_edges",)))
        for metric, names in SELF.items():
            out[metric] = sum(named_self[name] for name in names)
        counts = self.counts.get(case_id, Counter())
        for name in COUNTS:
            out[name] = counts[name]
        return out

    def spans_by_case(self) -> dict[str, list]:
        grouped = defaultdict(list)
        for s in self.spans:
            grouped[s[0]].append(s)
        return grouped

    def spans_json(self) -> list[dict]:
        return [{"case": s[0], "id": s[1], "parent": s[2], "name": s[3],
                 "start_s": s[4], "end_s": s[5]} for s in self.spans]
