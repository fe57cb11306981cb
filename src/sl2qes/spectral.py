"""Finite algebraic sector: eigenvalues of the bounded-degree Hamiltonian.

With the constant shift d left free, the annihilation condition on a
degree-<=n polynomial chi says that d must be an eigenvalue of the matrix
assembled with d = 0, and chi collects the eigenvector components.  Energies
are the family offset plus d.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

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
        return {"d": self.d, "E": self.E, "b": [float(v) for v in self.b],
                "imag_residual": self.imag_residual}


@dataclass
class SpectralResult:
    n: int
    levels: list[Level] = field(default_factory=list)


def _normalize_vector(b: np.ndarray) -> np.ndarray:
    m = np.max(np.abs(b))
    if m == 0.0:
        return b
    b = b / m
    for v in b:
        if abs(v) > 1e-12:
            if v < 0:
                b = -b
            break
    return b


def _refine_eigenpair(m: np.ndarray, lam: float, v: np.ndarray):
    """One inverse-iteration step; keeps whichever vector has the smaller
    residual."""
    def res(vec):
        return float(np.max(np.abs(m @ vec - lam * vec)))

    a = m - lam * np.eye(m.shape[0])
    try:
        w = np.linalg.solve(a, v)
    except np.linalg.LinAlgError:
        w, *_ = np.linalg.lstsq(a, v, rcond=None)
    if not np.all(np.isfinite(w)) or np.max(np.abs(w)) == 0.0:
        return v, res(v)
    w = w / np.max(np.abs(w))
    if res(w) < res(v):
        return w, res(w)
    return v, res(v)


def solve_algebraic_sector(coeffs: AlgebraCoefficients) -> SpectralResult:
    """All admissible d values and polynomial coefficient vectors.

    Requires d to be free.  Returns n+1 levels (with multiplicity), energies
    unfilled, each coefficient vector scaled to max-norm 1 with its first
    significant component positive.  Complex eigenvalues are reported with a
    warning rather than suppressed.
    """
    if coeffs.d is not None:
        raise ValueError("the spectral solve needs d left free (d=None)")
    m = np.array(
        [[float(v) for v in row] for row in hamiltonian_matrix(coeffs)],
        dtype=float,
    )
    scale = max(np.linalg.norm(m, np.inf), 1.0)
    lam, vecs = np.linalg.eig(m)
    levels = []
    for i in range(len(lam)):
        imag = abs(float(lam[i].imag))
        if imag > 1e-9 * (1.0 + abs(lam[i])):
            warnings.warn(
                NonRealSpectrumWarning(
                    f"complex eigenvalue {lam[i]:.6g} for n={coeffs.n}, "
                    f"coefficients {coeffs.to_json_dict()}"
                )
            )
        v = vecs[:, i]
        # rotate away the arbitrary phase before taking the real part
        pivot = v[int(np.argmax(np.abs(v)))]
        if abs(pivot) > 0:
            v = v * np.conj(pivot / abs(pivot))
        b = np.real(v).astype(float)
        d = float(lam[i].real)
        b, resid = _refine_eigenpair(m, d, b)
        if resid > 1e-10 * scale:
            b, resid = _refine_eigenpair(m, d, b)
        b = _normalize_vector(b)
        levels.append(Level(d=d, b=b, imag_residual=imag))
    levels.sort(key=lambda lv: (lv.d, tuple(lv.b)))
    return SpectralResult(n=coeffs.n, levels=levels)


def compose_energies(result: SpectralResult, offset: float) -> SpectralResult:
    """Fill E = offset + d for every level, re-sorted ascending by E."""
    new = [replace(lv, E=float(offset) + lv.d, b=lv.b.copy())
           for lv in result.levels]
    new.sort(key=lambda lv: (lv.E, tuple(lv.b)))
    return SpectralResult(n=result.n, levels=new)


def sector_ode_residual(bp: BPolynomials, d: float, b: np.ndarray) -> float:
    """Max coefficient magnitude of B4 chi'' + B3 chi' + (B2_base + d) chi
    where chi has coefficient vector b.  Zero (to rounding) for a solved
    level."""
    b = np.asarray(b, float)
    db = np.arange(1, len(b)) * b[1:]
    d2b = np.arange(1, len(db)) * db[1:] if len(db) > 1 else np.zeros(0)

    def conv(poly, vec):
        p = np.array(poly.float_coeffs())
        if len(p) == 0 or len(vec) == 0:
            return np.zeros(1)
        return np.convolve(p, vec)

    terms = [conv(bp.b4, d2b), conv(bp.b3, db), conv(bp.b2_base, b)]
    size = max(len(t) for t in terms + [b])
    acc = np.zeros(size)
    for t in terms:
        acc[: len(t)] += t
    acc[: len(b)] += float(d) * b
    return float(np.max(np.abs(acc))) if acc.size else 0.0
