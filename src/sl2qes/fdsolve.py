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
of a half-line problem where a wall at x = 0 needs them, and the wall itself
at u = 0, where the solve reads no sample.  Its diagonal grows as 1/u^4 next
to the wall, so the bisection stops relative to each eigenvalue, not at
eps ||T|| (Barlow & Demmel, SIAM J. Numer. Anal. 27, 762 (1990)).

The periodic and antiperiodic matrices are tridiagonal plus two corner
entries, on plain grids only.  Their potential must be even about the
ring's first node, as every catalog periodic potential is about x = a: the
solve checks that on its own samples and raises GridError otherwise.  Node
i then mirrors node m - i, and the ring matrix is block-diagonal in
reflection-even and reflection-odd vectors (for an even periodic potential
the periodic and antiperiodic eigenfunctions are even or odd: Magnus &
Winkler, Hill's Equation, 1966).  Each block is symmetric tridiagonal on
half the ring; the two are joined by one zero off-diagonal, which LAPACK's
bisection splits at, so every boundary condition ends in the same
tridiagonal call.  Every solve, the Richardson refine pass and the band
edges included, computes eigenvalues only: the chain checks energies.
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


def _ring_matrix(potential, grid: Grid, bc: str):
    """(diag, off) of the ring matrix, its reflection-even block first and
    its reflection-odd block after one zero off-diagonal."""
    if grid.stretch is not None:
        raise GridError(f"the {bc} solve needs a grid uniform in x, not "
                        f"one stretched by {grid.stretch}")
    x = grid.nodes[:-1]  # right endpoint identified with the left
    m = len(x)
    v = _potential_values(potential, x)
    mirror = np.roll(v[::-1], 1)     # V at node m - i, node 0 fixed
    gap = np.abs(v - mirror)
    worst = int(np.argmax(gap))
    if gap[worst] > 1e-12 * np.max(np.abs(v)):
        raise GridError(f"the {bc} solve needs V even about the ring's "
                        f"first node x={x[0]:.6g}, but V(x={x[worst]:.6g}) "
                        f"differs from its mirror image by {gap[worst]:.3g}")
    v = 0.5 * (v + mirror)
    inv_h2 = 1.0 / grid.h ** 2
    half = m // 2
    blocks = []
    for parity in (1, -1):
        # q: the sign linking node m - i to node i in this block
        q = parity if bc == "periodic" else -parity
        lo = 0 if parity == 1 else 1
        hi = half if m % 2 or q == 1 else half - 1
        diag = 2.0 * inv_h2 + v[lo:hi + 1]
        off = np.full(hi - lo, -inv_h2)
        if lo == 0:                      # node 0 is its own mirror
            off[0] *= math.sqrt(2.0)
        if m % 2:                        # node hi + 1 mirrors node hi
            diag[-1] -= q * inv_h2
        elif q == 1:                     # node m / 2 is its own mirror
            off[-1] *= math.sqrt(2.0)
        blocks.append((diag, off))
    (even, even_off), (odd, odd_off) = blocks
    return (np.concatenate([even, odd]),
            np.concatenate([even_off, [0.0], odd_off]))


def _solve(potential, grid: Grid, bc: str, k: int) -> np.ndarray:
    """The lowest k eigenvalues on the grid, ascending."""
    if bc not in _BCS:
        raise GridError(f"unknown boundary condition {bc!r}")
    if k < 1:
        raise GridError(f"k={k} must be at least 1")
    # points - 2 interior nodes, or one below a ring's points - 1 cell nodes
    if k > grid.points - 2:
        raise GridError(f"k={k} must be at most {grid.points - 2} on "
                        f"{grid.points} grid points")
    # scipy is imported here, where the oracle needs it, so runs that never
    # solve (build, general, list-families) start without it
    from scipy import linalg as sla

    if bc == "dirichlet":
        # a tiny positive abstol makes stebz stop at 2 ulp of each eigenvalue
        diag, off = _dirichlet_matrix(potential, grid)
        tol = 1e-300
    else:
        diag, off = _ring_matrix(potential, grid, bc)
        tol = 0.0
    return sla.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, k - 1), tol=tol)


def fd_eigensolve(potential, grid: Grid, bc: str = "dirichlet", k: int = 6,
                  refine: bool = True) -> FdSpectrum:
    """Lowest k eigenvalues of -d^2/dx^2 + V on the grid.

    With refine=True the same problem is re-solved at half the spacing and
    the per-eigenvalue Richardson difference (an error estimate for the
    values reported on the requested grid) is stored.  The verification
    report calls it with refine=False at 2h, h and h/2 and extrapolates
    itself.  V must be finite at
    every node the solve reads.  Periodic and antiperiodic problems need k
    below the points - 1 cell nodes, a grid uniform in x and V even about
    the grid's first node.
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
