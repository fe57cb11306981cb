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
of a half-line problem where a Coulomb well needs them.

The periodic and antiperiodic matrices are tridiagonal plus two corner
entries, on plain grids only.  A ring of at most BANDED_MAX cell nodes is
renumbered 0, m-1, 1, m-2, 2, ..., which puts every ring neighbour at most
two places away, and the pentadiagonal result goes to LAPACK's banded
solver in one call.  Its reduction costs O(m^2), so a larger ring is stored
sparse and solved by ARPACK in shift-invert mode with a shift below min V;
scipy.sparse is imported only then.  Every solve, the Richardson refine
pass and the band edges included, computes eigenvalues only: the chain
checks energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = [
    "Grid",
    "FdSpectrum",
    "BandEdge",
    "fd_eigensolve",
    "band_edges",
    "count_below",
    "count_nodes",
    "SQRT_STRETCH",
]

_BCS = ("dirichlet", "periodic", "antiperiodic")

SQRT_STRETCH = "u = 2 sqrt(x)"

# the largest ring solved banded.  On one BLAS thread the banded call is
# 1.3-2 x faster than ARPACK at 512 cell nodes for k = 4-14 and slower from
# about 770-1000 nodes on; the margin keeps it clear of that crossover
BANDED_MAX = 512


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


@dataclass
class FdSpectrum:
    eigenvalues: np.ndarray
    convergence_estimate: np.ndarray   # zeros without the refine pass


def _potential_values(potential, x):
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise GridError("potential is not finite at a grid node")
    return v


def _dirichlet_matrix(potential, grid: Grid):
    """(diag, off) of the symmetric tridiagonal Dirichlet matrix on the
    interior nodes."""
    inv_h2 = 1.0 / grid.h ** 2
    jac, extra = grid.liouville(grid.u_nodes[1:-1])
    v = _potential_values(potential, grid.nodes[1:-1])
    diag = (2.0 * inv_h2 + (jac * jac * v + extra)) / (jac * jac)
    off = -inv_h2 / (jac[:-1] * jac[1:])
    return diag, off


def count_below(potential, grid: Grid, energy: float) -> int:
    """Sturm count: how many eigenvalues of the Dirichlet matrix
    ``fd_eigensolve`` solves lie at or below `energy`."""
    from scipy import linalg as sla

    diag, off = _dirichlet_matrix(potential, grid)
    # the count comes from Sturm sequences at the interval's ends, exact at
    # any bisection tolerance; an infinite one skips the bisection
    return len(sla.eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                    select_range=(-np.inf, energy),
                                    tol=np.inf))


def _folded_ring(diag: np.ndarray, off: float, corner: float) -> np.ndarray:
    """Lower band (3 x m) of the ring matrix with diagonal `diag`, neighbour
    entries `off` and the entry `corner` joining nodes 0 and m - 1, with
    the nodes taken in the order 0, m-1, 1, m-2, 2, ..."""
    m = len(diag)
    order = np.empty(m, dtype=np.intp)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
    band = np.zeros((3, m))
    band[0] = diag[order]
    # two places apart: each half's next node; one place apart: the corner
    # pair (0, m - 1) first, and the two halves' meeting pair last
    band[2, :-2] = off
    band[1, 0] = corner
    band[1, m - 2] = off
    return band


def _solve(potential, grid: Grid, bc: str, k: int) -> np.ndarray:
    """The lowest k eigenvalues on the grid, ascending."""
    if bc not in _BCS:
        raise GridError(f"unknown boundary condition {bc!r}")
    # scipy is imported here, where the oracle needs it, so runs that never
    # solve (build, general, list-families) start without it
    from scipy import linalg as sla

    if bc == "dirichlet":
        if k > grid.points - 2:
            raise GridError(f"k={k} exceeds the {grid.points - 2} interior "
                            f"nodes")
        diag, off = _dirichlet_matrix(potential, grid)
        return sla.eigh_tridiagonal(diag, off, eigvals_only=True,
                                    select="i", select_range=(0, k - 1))
    if grid.stretch is not None:
        raise GridError(f"the {bc} solve needs a grid uniform in x, not "
                        f"one stretched by {grid.stretch}")
    x = grid.nodes[:-1]  # right endpoint identified with the left
    m = len(x)
    if k >= m:
        raise GridError(f"k={k} must be at most {m - 1}, one below the "
                        f"{m} cell nodes")
    inv_h2 = 1.0 / grid.h ** 2
    v = _potential_values(potential, x)
    diag = 2.0 * inv_h2 + v
    corner = -inv_h2 if bc == "periodic" else inv_h2
    if m <= BANDED_MAX:
        return sla.eigvals_banded(_folded_ring(diag, -inv_h2, corner),
                                  lower=True, overwrite_a_band=True,
                                  select="i", select_range=(0, k - 1),
                                  check_finite=False)
    from scipy import sparse
    from scipy.sparse import linalg as spla

    off = np.full(m - 1, -inv_h2)
    ham = sparse.diags([[corner], off, diag, off, [corner]],
                       [1 - m, -1, 0, 1, m - 1], format="csc")
    # H - min(V) is positive semidefinite, so the k eigenvalues nearest a
    # shift below min(V) are the lowest k.  The start vector is fixed, so
    # reruns are bit-identical, and generic: a constant vector is the
    # free-particle ground state and even under reflection, so odd states
    # of a symmetric potential would enter its Krylov space only through
    # rounding.
    v0 = np.random.default_rng(0).standard_normal(m)
    return np.sort(spla.eigsh(ham, k, sigma=float(np.min(v)) - 1.0,
                              which="LM", v0=v0, tol=0,
                              return_eigenvectors=False))


def fd_eigensolve(potential, grid: Grid, bc: str = "dirichlet", k: int = 6,
                  refine: bool = True) -> FdSpectrum:
    """Lowest k eigenvalues of -d^2/dx^2 + V on the grid.

    With refine=True the same problem is re-solved at half the spacing and
    the per-eigenvalue Richardson difference (an error estimate for the
    values reported on the requested grid) is stored.  The verification
    report calls it with refine=False at 2h, h and h/2 and extrapolates
    itself.  V must be finite at
    every node the solve reads.  Periodic and antiperiodic problems need k
    below the points - 1 cell nodes and a grid uniform in x.
    """
    w = _solve(potential, grid, bc, k)
    est = (np.abs(w - _solve(potential, grid.refined(), bc, k)) * (4.0 / 3.0)
           if refine else np.zeros(k))
    return FdSpectrum(eigenvalues=w, convergence_estimate=est)


@dataclass(frozen=True, order=True)
class BandEdge:
    energy: float
    parity: str              # "periodic" | "antiperiodic"


def band_edges(potential, period: float, count: int,
               points: int = 801) -> list[BandEdge]:
    """Band edges over one period [0, period]: the lowest `count` periodic
    and `count` antiperiodic eigenvalues, merged in ascending order."""
    grid = Grid(0.0, period, points)
    return sorted(BandEdge(float(e), bc)
                  for bc in ("periodic", "antiperiodic")
                  for e in _solve(potential, grid, bc, count))


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
