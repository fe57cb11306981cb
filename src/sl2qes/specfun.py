"""Orthogonal-polynomial evaluators used by the closed-form wavefunctions.

Hermite and generalized Laguerre come straight from scipy.  Jacobi is
implemented here through its terminating hypergeometric sum because the
hyperbolic-secant family needs complex parameters and a purely imaginary
argument, which scipy's evaluator does not accept.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


def hermite(j: int, z):
    """Physicists' Hermite polynomial H_j."""
    return sp.eval_hermite(j, z)


def genlaguerre(j: int, a: float, z):
    """Generalized Laguerre polynomial L_j^(a)."""
    return sp.eval_genlaguerre(j, a, z)


def jacobi(j: int, a, b, z):
    """Jacobi polynomial P_j^(a,b)(z) for arbitrary (possibly complex) a, b, z.

    Uses the terminating sum

        P_j = ((a+1)_j / j!) * sum_{k=0}^{j} [(-j)_k (j+a+b+1)_k] /
              [(a+1)_k k!] * ((1-z)/2)^k,

    exact for integer j; complex parameters cost nothing.  Vectorized over z.
    """
    if j < 0 or int(j) != j:
        raise ValueError("degree must be a non-negative integer")
    j = int(j)
    use_complex = any(np.iscomplexobj(np.asarray(v)) for v in (a, b, z))
    dtype = complex if use_complex else float
    w = np.asarray((1.0 - np.asarray(z, dtype=dtype)) / 2.0, dtype=dtype)
    term = np.ones_like(w)
    total = term.copy()
    for k in range(1, j + 1):
        term = term * ((-j + k - 1) * (j + a + b + k) / ((a + k) * k)) * w
        total = total + term
    pref = 1.0
    for k in range(1, j + 1):
        pref = pref * (a + k) / k
    out = pref * total
    if out.ndim == 0:
        return out[()]
    return out


def scaled_exp(exponent, factor=1.0):
    """factor * exp(exponent), computed through log magnitude when the
    exponent is large enough to overflow or underflow double precision.
    A value beyond the float range comes out as +-inf, one below it as 0."""
    exponent = np.asarray(exponent, dtype=float)
    factor = np.asarray(factor, dtype=float)
    exponent, factor = np.broadcast_arrays(exponent, factor)
    out = np.zeros(exponent.shape, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        small = np.abs(exponent) < 600.0
        out[small] = factor[small] * np.exp(exponent[small])
        big = ~small
        if np.any(big):
            mag = np.where(factor[big] != 0.0, np.log(np.abs(factor[big])), -np.inf)
            out[big] = np.sign(factor[big]) * np.exp(exponent[big] + mag)
    if out.ndim == 0:
        return float(out)
    return out
