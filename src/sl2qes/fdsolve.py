"""Independent numerical oracle: finite-difference Schroedinger eigensolver.

Second-order central differences for -d^2/dx^2 + V(x) with Dirichlet,
periodic, or antiperiodic boundary conditions; band edges of a periodic
potential are the merged eigenvalues of the periodic and antiperiodic
problems over one period.  Nothing in here knows about the algebraic
construction, so agreement between the two routes is meaningful.

Dirichlet problems are solved in Liouville normal form on a grid uniform in
a coordinate u with x = X(u): psi(x) = X'^{1/2} phi(u) turns the equation
into

    -phi'' + [X'^2 V(X(u)) + S(u)] phi = E X'^2 phi.

Scaling both sides by X'^{-1} keeps the matrix symmetric tridiagonal,
diag = (2/h^2 + q)/X'^2 and off = -1/(h^2 X'_i X'_{i+1}) with
q = X'^2 V + S, so it goes to LAPACK's tridiagonal solver.  A plain grid is
X(u) = u (X' = 1, S = 0: central differences in x).  The stretch
u = 2 sqrt(x), X = u^2/4, has X' = u/2 and S = 3/(4 u^2); it puts the nodes
of a half-line problem where a Coulomb well needs them.  Eigenvectors come
back as psi on the x nodes.

The periodic and antiperiodic matrices are tridiagonal plus two corner
entries; they are stored sparse and solved by ARPACK in shift-invert mode
with a shift below min V, so no dense matrix is formed.  They, like
``residual``, take plain grids only.  The Richardson refine pass asks for
eigenvalues only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = [
    "Grid",
    "FdSpectrum",
    "BandEdge",
    "fd_eigensolve",
    "band_edges",
    "count_nodes",
    "residual",
    "SQRT_STRETCH",
]

_BCS = ("dirichlet", "periodic", "antiperiodic")

SQRT_STRETCH = "u = 2 sqrt(x)"


@dataclass(frozen=True)
class Grid:
    """`points` nodes on [x_min, x_max], uniform in x, or with
    stretch=SQRT_STRETCH uniform in u = 2 sqrt(x) (x_min >= 0)."""

    x_min: float
    x_max: float
    points: int
    stretch: str | None = None

    def __post_init__(self):
        if self.points < 16:
            raise GridError("need at least 16 grid points")
        if not self.x_max > self.x_min:
            raise GridError("empty grid interval")
        if self.stretch not in (None, SQRT_STRETCH):
            raise GridError(f"unknown grid stretch {self.stretch!r}")
        if self.stretch and self.x_min < 0.0:
            raise GridError(f"the stretch {self.stretch} needs x_min >= 0")

    @property
    def _u_range(self) -> tuple[float, float]:
        if self.stretch is None:
            return self.x_min, self.x_max
        return 2.0 * math.sqrt(self.x_min), 2.0 * math.sqrt(self.x_max)

    @property
    def u_nodes(self) -> np.ndarray:
        """The uniform nodes: x itself, or u = 2 sqrt(x) when stretched."""
        return np.linspace(*self._u_range, self.points)

    @property
    def h(self) -> float:
        """The spacing of u_nodes."""
        lo, hi = self._u_range
        return (hi - lo) / (self.points - 1)

    @property
    def nodes(self) -> np.ndarray:
        """The x images of u_nodes."""
        u = self.u_nodes
        return u if self.stretch is None else u * u / 4.0

    def liouville(self, u: np.ndarray):
        """(X', S) at u: the Jacobian dx/du and the normal-form term."""
        if self.stretch is None:
            return np.ones_like(u), np.zeros_like(u)
        return u / 2.0, 0.75 / (u * u)

    def refined(self) -> "Grid":
        return Grid(self.x_min, self.x_max, 2 * self.points - 1, self.stretch)


def _require_plain(grid: Grid, what: str):
    if grid.stretch is not None:
        raise GridError(f"{what} needs a grid uniform in x, not one "
                        f"stretched by {grid.stretch}")


@dataclass
class FdSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray           # columns, on grid.nodes, max-norm 1
    bc: str
    grid: Grid
    convergence_estimate: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _potential_values(potential, x, v_cap=None):
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise GridError("potential is not finite at a grid node")
    if v_cap is not None:
        v = np.minimum(v, v_cap)
    return v


def _solve_once(potential, grid: Grid, bc: str, k: int, v_cap,
                vectors: bool = True):
    """Lowest k eigenvalues on the grid, plus their max-norm eigenvectors on
    grid.nodes when `vectors` (else None)."""
    # scipy is imported here, where the oracle needs it, so runs that never
    # solve (build, general, list-families) start without it
    from scipy import linalg as sla
    from scipy import sparse
    from scipy.sparse import linalg as spla

    h = grid.h
    inv_h2 = 1.0 / h ** 2
    if bc == "dirichlet":
        x = grid.nodes[1:-1]
        if k > len(x):
            raise GridError(f"k={k} exceeds the {len(x)} interior nodes")
        jac, extra = grid.liouville(grid.u_nodes[1:-1])
        v = _potential_values(potential, x, v_cap)
        diag = (2.0 * inv_h2 + (jac * jac * v + extra)) / (jac * jac)
        off = -inv_h2 / (jac[:-1] * jac[1:])
        result = sla.eigh_tridiagonal(diag, off, eigvals_only=not vectors,
                                      select="i", select_range=(0, k - 1))
        if not vectors:
            return np.asarray(result, float), None
        w, vecs = result
        # the solved vector is X' phi; psi = X'^{1/2} phi
        full = np.zeros((grid.points, k))
        full[1:-1, :] = vecs / np.sqrt(jac)[:, None]
    else:
        _require_plain(grid, f"the {bc} solve")
        x = grid.nodes[:-1]  # right endpoint identified with the left
        m = len(x)
        if k >= m:
            raise GridError(f"k={k} must be at most {m - 1}, one below the "
                            f"{m} cell nodes")
        v = _potential_values(potential, x, v_cap)
        off = np.full(m - 1, -inv_h2)
        corner = [-inv_h2 if bc == "periodic" else inv_h2]
        ham = sparse.diags([corner, off, 2.0 * inv_h2 + v, off, corner],
                           [1 - m, -1, 0, 1, m - 1], format="csc")
        # H - min(V) is positive semidefinite, so the k eigenvalues nearest
        # a shift below min(V) are the lowest k.  The start vector is fixed,
        # so reruns are bit-identical, and generic: a constant vector is the
        # free-particle ground state and even under reflection, so odd states
        # of a symmetric potential would enter its Krylov space only through
        # rounding.
        v0 = np.random.default_rng(0).standard_normal(m)
        result = spla.eigsh(ham, k, sigma=float(np.min(v)) - 1.0, which="LM",
                            v0=v0, tol=0, return_eigenvectors=vectors)
        if not vectors:
            return np.sort(result), None
        w, vecs = result
        order = np.argsort(w)
        w, vecs = w[order], vecs[:, order]
        closure = vecs[0, :] if bc == "periodic" else -vecs[0, :]
        full = np.vstack([vecs, closure])
    scale = np.max(np.abs(full), axis=0)
    scale[scale == 0.0] = 1.0
    full = full / scale
    return np.asarray(w, float), full


def fd_eigensolve(potential, grid: Grid, bc: str = "dirichlet", k: int = 6,
                  refine: bool = True, v_cap: float | None = None) -> FdSpectrum:
    """Lowest k eigenpairs of -d^2/dx^2 + V on the grid.

    With refine=True the same problem is re-solved, eigenvalues only, at
    half the spacing and the per-eigenvalue Richardson difference (an error
    estimate for the values reported on the requested grid) is stored.
    v_cap, when given, clips the potential from above; use it for steeply
    confining walls whose untruncated height would dominate the matrix norm.
    The periodic and antiperiodic problems need k below the number of cell
    nodes, points - 1, and a grid uniform in x.
    """
    if bc not in _BCS:
        raise GridError(f"unknown boundary condition {bc!r}")
    w, vecs = _solve_once(potential, grid, bc, k, v_cap)
    est = np.zeros(k)
    if refine:
        w_fine, _ = _solve_once(potential, grid.refined(), bc, k, v_cap,
                                vectors=False)
        est = np.abs(w - w_fine) * (4.0 / 3.0)
    return FdSpectrum(eigenvalues=w, eigenvectors=vecs, bc=bc, grid=grid,
                      convergence_estimate=est)


@dataclass(frozen=True)
class BandEdge:
    energy: float
    parity: str              # "periodic" | "antiperiodic"
    convergence_estimate: float = 0.0


def band_edges(potential, period: float, count: int, points: int = 801,
               x_start: float = 0.0, refine: bool = True,
               v_cap: float | None = None) -> list[BandEdge]:
    """Band edges over one period: merged ascending list of the lowest
    `count` periodic and `count` antiperiodic eigenvalues."""
    grid = Grid(x_start, x_start + period, points)
    edges: list[BandEdge] = []
    for bc in ("periodic", "antiperiodic"):
        spec = fd_eigensolve(potential, grid, bc=bc, k=count, refine=refine,
                             v_cap=v_cap)
        for j in range(count):
            est = spec.convergence_estimate[j] if refine else 0.0
            edges.append(BandEdge(float(spec.eigenvalues[j]), bc, float(est)))
    edges.sort(key=lambda e: (e.energy, e.parity))
    return edges


def count_nodes(values, rel_tol: float = 1e-10) -> int:
    """Strict sign changes, ignoring samples below rel_tol * max|values|."""
    v = np.asarray(values, float)
    if not np.all(np.isfinite(v)):
        raise GridError("samples must be finite")
    peak = np.max(np.abs(v)) if v.size else 0.0
    if peak == 0.0:
        return 0
    keep = v[np.abs(v) > rel_tol * peak]
    if keep.size < 2:
        return 0
    signs = np.sign(keep)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def residual(potential, psi, energy: float, grid: Grid) -> float:
    """max |(-psi'' + (V - E) psi)| / max |psi| over interior nodes, with the
    second derivative from the five-point central stencil; the grid must be
    uniform in x."""
    _require_plain(grid, "residual")
    x = grid.nodes
    h = grid.h
    vals = np.asarray(psi(x), float)
    v = np.asarray(potential(x), float)
    d2 = (-vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2]
          + 16 * vals[3:-1] - vals[4:]) / (12.0 * h ** 2)
    inner = slice(2, -2)
    res = -d2 + (v[inner] - energy) * vals[inner]
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        raise GridError("wavefunction vanishes on the whole grid")
    return float(np.max(np.abs(res)) / peak)
