"""Finite algebraic sector: eigenvalues of the bounded-degree Hamiltonian.

With the constant shift d left free, the annihilation condition on a
degree-<=n polynomial chi says that d must be an eigenvalue of the matrix
assembled with d = 0, and chi collects the eigenvector components.  Energies
are the family offset plus d.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraCoefficients, BPolynomials, hamiltonian_matrix

__all__ = [
    "Level",
    "SpectralResult",
    "NonRealSpectrumWarning",
    "solve_algebraic_sector",
    "compose_energies",
    "sector_ode_residual",
]


class NonRealSpectrumWarning(UserWarning):
    """The free-d eigenproblem produced a complex pair; parameters attached."""


@dataclass
class Level:
    d: float
    b: np.ndarray
    imag_residual: float
    E: float | None = None

    def to_json_dict(self) -> dict:
        """The level's JSON fields; ``b`` stays an array, which the
        pipeline's JSON writer writes as its list."""
        return {"d": self.d, "E": self.E, "b": self.b,
                "imag_residual": self.imag_residual}


@dataclass
class SpectralResult:
    levels: list[Level] = field(default_factory=list)


def _normalize_rows(bs: np.ndarray) -> np.ndarray:
    """Each row scaled to max-norm 1 with its first significant component
    positive; a zero row stays zero."""
    peak = np.max(np.abs(bs), axis=1, keepdims=True)
    bs = np.divide(bs, peak, out=bs.copy(), where=peak != 0.0)
    significant = np.abs(bs) > 1e-12
    first = bs[np.arange(len(bs)), np.argmax(significant, axis=1)]
    flip = np.any(significant, axis=1) & (first < 0)
    return np.where(flip[:, None], -bs, bs)


# Each generator word moves the degree by at most 2, so the sector matrix
# has at most 2 diagonals below and 2 above the main one.
_BAND = 2


def _band_matrix(num: list, den: int) -> np.ndarray:
    """Float copy of the exact sector matrix num / den, as
    ``hamiltonian_matrix`` gives it, converting only its band.  Each entry
    is the int division num / den, which Python rounds correctly: bit for
    bit float(Fraction(num, den))."""
    size = len(num)
    m = np.zeros((size, size))
    for k in range(-_BAND, _BAND + 1):
        lo, hi = max(0, -k), min(size, size - k)
        rows = np.arange(lo, hi)
        m[rows, rows + k] = [num[i][i + k] / den for i in range(lo, hi)]
    return m


def _bandwidths(m: np.ndarray) -> tuple[int, int]:
    """(diagonals below, diagonals above) that hold a nonzero."""
    def width(sign):
        return max((k for k in range(1, _BAND + 1)
                    if np.any(np.diagonal(m, sign * k))), default=0)
    return width(-1), width(1)


def _shifted_solve(m: np.ndarray, kl: int, ku: int, lam: np.ndarray,
                   rhs: np.ndarray):
    """w_i with (m - lam_i I) w_i = rhs_i for every i, and which systems
    met an exactly zero pivot (their w is not a solution).

    LU with partial pivoting on the band, kl diagonals below and ku above
    (pivoting fills up to kl + ku above), vectorised over i.  Step j holds
    rows j..j+kl of every system, each as its columns j..j+kl+ku with the
    right-hand side appended; no (count x size x size) stack is formed.
    """
    count, size = rhs.shape
    width = kl + ku + 1
    # fresh[i, c]: row i at column i - kl + c, then the right-hand side
    pad = np.zeros((size + kl + 1, size + 2 * kl + width))
    pad[:size, kl:kl + size] = m
    at = np.arange(size + kl + 1)[:, None]
    fresh = np.zeros((count, size + kl + 1, width + 1))
    fresh[:, :, :width] = pad[at, at + np.arange(width)]
    fresh[:, :size, kl] -= lam[:, None]
    fresh[:, :size, width] = rhs
    rows = [np.concatenate([fresh[:, i, kl - i:width],
                            np.zeros((count, kl - i)),
                            fresh[:, i, width:]], axis=1)
            for i in range(kl + 1)]
    upper = np.empty((count, size, width + 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(size):
            top = rows[0]
            for r in range(1, kl + 1):
                # the first row of largest magnitude in column j is the pivot
                swap = (np.abs(rows[r][:, 0]) > np.abs(top[:, 0]))[:, None]
                top, rows[r] = (np.where(swap, rows[r], top),
                                np.where(swap, top, rows[r]))
            upper[:, j] = top
            nxt = []
            for row in rows[1:]:
                row = row - (row[:, 0] / top[:, 0])[:, None] * top
                nxt.append(np.concatenate(
                    [row[:, 1:width], np.zeros((count, 1)), row[:, width:]],
                    axis=1))
            rows = nxt + [fresh[:, j + kl + 1]]
        x = np.zeros((count, size + width))
        for j in range(size - 1, -1, -1):
            known = np.einsum("ij,ij->i", upper[:, j, 1:width],
                              x[:, j + 1:j + width])
            x[:, j] = (upper[:, j, width] - known) / upper[:, j, 0]
    return x[:, :size], np.any(upper[:, :, 0] == 0.0, axis=1)


def _refine(m: np.ndarray, kl: int, ku: int, lam: np.ndarray,
            vecs: np.ndarray) -> np.ndarray:
    """One inverse-iteration step for every pair (lam_i, vecs_i); each keeps
    whichever vector has the smaller max-norm residual.  A system with an
    exactly zero pivot (a triangular sector shifted by its own diagonal
    entry) keeps its start vector: any least-squares solution lies in the
    row space of m - lam_i I, orthogonal to the level's own null vector, so
    it could only win as another level's vector."""
    w, zero = _shifted_solve(m, kl, ku, lam, vecs)
    peak = np.max(np.abs(w), axis=1)
    ok = ~zero & np.all(np.isfinite(w), axis=1) & (peak != 0.0)
    w[ok] /= peak[ok, None]
    res_v = np.max(np.abs(vecs @ m.T - lam[:, None] * vecs), axis=1)
    res_w = np.full(len(lam), np.inf)
    res_w[ok] = np.max(np.abs(w[ok] @ m.T - lam[ok, None] * w[ok]), axis=1)
    return np.where((ok & (res_w < res_v))[:, None], w, vecs)


def _every_pivot_zero(m: np.ndarray, kl: int, lam: np.ndarray) -> bool:
    """Whether every shifted system of ``_shifted_solve`` meets an exactly
    zero pivot, decided without solving: with no subdiagonal (kl == 0) the
    elimination never pivots, so the pivots are the diagonal entries minus
    lam_i, and one of them is 0 when lam_i equals a diagonal entry bit for
    bit.  Then ``_refine`` returns its start vectors unchanged."""
    return kl == 0 and bool(np.all(np.any(lam[:, None] == np.diagonal(m),
                                          axis=1)))


def solve_algebraic_sector(coeffs: AlgebraCoefficients) -> SpectralResult:
    """All admissible d values and polynomial coefficient vectors.

    Requires d to be free.  Returns n+1 levels (with multiplicity), energies
    unfilled, each coefficient vector scaled to max-norm 1 with its first
    significant component positive.  Complex eigenvalues are reported with a
    warning rather than suppressed; such a level keeps the real part of its
    phase-rotated vector.  The eigenvalues are np.linalg.eig's; every
    eigenvector gets one inverse-iteration step, all levels at once
    (``_refine``).  A level whose shift meets an exactly zero pivot (a
    triangular exactly solvable sector) keeps np.linalg.eig's vector.
    When every shift is sure to meet one (``_every_pivot_zero``: no
    subdiagonal, and each eigenvalue bit for bit a diagonal entry),
    ``_refine`` would return its input and is not called.  An exactly
    solvable sector has no raising term, so it is upper triangular, and
    where np.linalg.eig returns its diagonal entries as the eigenvalues the
    step is skipped; otherwise it runs as for any sector.

    The levels come in ascending (d, b.tolist()) order: a stable argsort on
    d, with b compared only where two d are equal (``_order``).  Their b
    are rows of one read-only array, shared, not copied: writing into one
    raises ValueError.
    """
    if coeffs.d is not None:
        raise ValueError("the spectral solve needs d left free (d=None)")
    size = coeffs.n + 1
    m = _band_matrix(*hamiltonian_matrix(coeffs))
    lam, vecs = np.linalg.eig(m)
    imag = np.abs(lam.imag)
    for i in np.flatnonzero(imag > 1e-9 * (1.0 + np.abs(lam))):
        warnings.warn(NonRealSpectrumWarning(
            f"complex eigenvalue {lam[i]:.6g} for n={coeffs.n}, "
            f"coefficients {coeffs.to_json_dict()}"))
    # rotate away each vector's arbitrary phase before taking the real part
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(size)]
    bs = np.real(vecs * np.conj(pivot / np.abs(pivot))).T.copy()
    d = lam.real
    kl, ku = _bandwidths(m)
    if not _every_pivot_zero(m, kl, d):
        bs = _refine(m, kl, ku, d, bs)
    bs = _normalize_rows(bs)
    bs.flags.writeable = False
    return SpectralResult([Level(d=float(d[i]), b=bs[i],
                                 imag_residual=float(imag[i]))
                           for i in _order(d, bs)])


def _order(keys: np.ndarray, rows) -> list[int]:
    """The indices that sort (keys[i], rows[i].tolist()) ascending, stably,
    for keys with no nan: a stable argsort on the keys, with the rows
    compared only among equal keys."""
    order = np.argsort(keys, kind="stable").tolist()
    start = 0
    for _, run in itertools.groupby(keys[order].tolist()):
        stop = start + sum(1 for _ in run)
        if stop - start > 1:
            order[start:stop] = sorted(order[start:stop],
                                       key=lambda i: rows[i].tolist())
        start = stop
    return order


def compose_energies(result: SpectralResult, offset: float) -> SpectralResult:
    """Fill E = offset + d for every level, re-sorted ascending by
    (E, b.tolist()); each level shares its b with ``result``'s."""
    levels = result.levels
    energies = float(offset) + np.array([lv.d for lv in levels], float)
    return SpectralResult([
        Level(d=levels[i].d, b=levels[i].b,
              imag_residual=levels[i].imag_residual, E=float(energies[i]))
        for i in _order(energies, [lv.b for lv in levels])])


def sector_ode_residual(bp: BPolynomials, d: float, b: np.ndarray) -> float:
    """Max coefficient magnitude of B4 chi'' + B3 chi' + (B2_base + d) chi
    where chi has coefficient vector b.  Zero (to rounding) for a solved
    level."""
    from numpy.polynomial import Polynomial

    def lift(poly):
        return Polynomial(poly.float_coeffs() or [0.0])

    chi = Polynomial(np.asarray(b, float))
    acc = (lift(bp.b4) * chi.deriv(2) + lift(bp.b3) * chi.deriv()
           + lift(bp.b2_base) * chi + float(d) * chi)
    return float(np.max(np.abs(acc.coef)))
