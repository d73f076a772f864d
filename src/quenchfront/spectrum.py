"""Spectrum of the linearization about a front, via the conjugated operator.

The linearization L u = u'' + c u' - (r(x) + 3 u0^2) u, with the profile's
ramp r, shares its spectrum with the self-adjoint operator u'' - V(x) u,
V = r(x) + c^2/4 + 3 u0^2 (conjugation by e^{cx/2}, which is never
materialized -- it would overflow).  For r = x, V grows without bound on
both sides, so a Dirichlet truncation on the solve domain and a symmetric
tridiagonal eigensolve (bisection + inverse iteration) recover the leading
eigenvalues robustly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .bvp import FrontProfile, ramp
from .grid import Grid

MAX_LEADING = 10
_RAYLEIGH_TOL = 1e-10


@dataclass
class SpectrumReport:
    c: float
    eigenvalues: np.ndarray     # k largest, descending
    ground_state: np.ndarray    # on the profile's grid, max entry +1
    potential_min: float


class EigenIterationError(RuntimeError):
    pass


def build_potential(p: FrontProfile) -> np.ndarray:
    """V_i = r(x_i) + c^2/4 + 3 u_i^2 with the profile's ramp r (for r = x,
    asymptotically -2x + c^2/4 on the left, x + c^2/4 on the right)."""
    return ramp(p.grid, p.eps) + p.c * p.c / 4.0 + 3.0 * p.u ** 2


def eigenvalues_of_potential(g: Grid, V: np.ndarray,
                             k: int) -> tuple[np.ndarray, np.ndarray]:
    """k largest eigenvalues (descending) of d^2/dx^2 - V with Dirichlet
    truncation, discretized by the symmetric 2nd-order stencil.

    Also returns the eigenvector of the largest eigenvalue embedded on the
    full grid (zeros at the boundary nodes), scaled to max entry +1.
    """
    if V.shape != (g.n,):
        raise ValueError("potential length does not match grid")
    h = g.h
    m = g.n - 2
    if not 1 <= k <= min(MAX_LEADING, m):
        raise ValueError(f"k must be in [1, {min(MAX_LEADING, m)}], got {k}")
    diag = -2.0 / h ** 2 - V[1:-1]
    off = np.full(m - 1, 1.0 / h ** 2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(m - k, m - 1))
    order = np.argsort(vals)[::-1]
    vals = vals[order]

    v = vecs[:, order[0]]
    _check_rayleigh(diag, off, vals[0], v)
    vec_full = np.zeros(g.n)
    vec_full[1:-1] = v / v[np.argmax(np.abs(v))]
    return vals, vec_full


def _check_rayleigh(diag: np.ndarray, off: np.ndarray, lam: float,
                    v: np.ndarray) -> None:
    r = diag * v - lam * v
    r[:-1] += off * v[1:]
    r[1:] += off * v[:-1]
    scale = (np.abs(diag).max() + 2 * np.abs(off).max()) * np.abs(v).max()
    if np.abs(r).max() > _RAYLEIGH_TOL * scale:
        raise EigenIterationError(
            f"eigenpair residual {np.abs(r).max():.3e} exceeds tolerance "
            f"{_RAYLEIGH_TOL * scale:.3e}")


def leading_eigenvalues(p: FrontProfile, k: int = 5) -> SpectrumReport:
    """Leading spectrum of the linearization about a converged front."""
    if not p.converged:
        raise ValueError("spectrum requires a converged profile")
    V = build_potential(p)
    vals, ground = eigenvalues_of_potential(p.grid, V, k)
    return SpectrumReport(c=p.c, eigenvalues=vals, ground_state=ground,
                          potential_min=float(V.min()))
