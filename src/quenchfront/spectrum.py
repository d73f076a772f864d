"""Spectrum of the linearization about a front, via the conjugated operator.

The linearization L u = u'' + c u' - (r(x) + 3 u0^2) u, with the profile's
ramp r, shares its spectrum with the self-adjoint operator u'' - V(x) u,
V = r(x) + c^2/4 + 3 u0^2 (conjugation by e^{cx/2}, which is never
materialized -- it would overflow).  For r = x, V grows without bound on
both sides, so a Dirichlet truncation on the solve domain and a symmetric
tridiagonal eigensolve recover the leading eigenvalues robustly.

The top eigenpair alone (k = 1) comes from shifted inverse iteration with
every shift certified to lie above the spectrum: sigma I - T is positive
definite exactly when sigma exceeds the largest eigenvalue of T, which one
O(n) LDL^T factorization (LAPACK dpttrf) decides.  Several eigenvalues
(k >= 2) need their indices, hence Sturm counts: bisection + inverse
iteration (LAPACK dstebz/dstein, the calls scipy's eigh_tridiagonal makes
for an index range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import FrontProfile, ramp
from .grid import Grid, flapack

MAX_LEADING = 10
MAX_INVERSE_STEPS = 30
_RAYLEIGH_TOL = 1e-10
# eigen-residual ||T v - rho v||_2 / ||T||_inf at which inverse iteration
# stops: the roundoff level that bisection + inverse iteration reaches
_ROUNDOFF_RESIDUAL = 1e-15


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray     # k largest, descending
    ground_state: np.ndarray    # on the full grid, zero boundary, max entry +1
    potential_min: float
    iterations: int             # shifted inverse-iteration steps; 0 for k >= 2
    residual: float             # ||T v - lambda0 v||_2, ||v||_2 = 1: bounds the
                                # distance from lambda0 to the discrete spectrum


class EigenIterationError(RuntimeError):
    pass


def build_potential(p: FrontProfile) -> np.ndarray:
    """V_i = r(x_i) + c^2/4 + 3 u_i^2 with the profile's ramp r (for r = x,
    asymptotically -2x + c^2/4 on the left, x + c^2/4 on the right)."""
    return ramp(p.grid, p.eps) + p.c * p.c / 4.0 + 3.0 * p.u ** 2


def eigenvalues_of_potential(g: Grid, V: np.ndarray, k: int) -> SpectrumReport:
    """k largest eigenvalues (descending) of d^2/dx^2 - V with Dirichlet
    truncation, discretized by the symmetric 2nd-order stencil.

    Also returns the eigenvector of the largest eigenvalue embedded on the
    full grid (zeros at the boundary nodes), scaled to max entry +1, with
    the iteration count and eigen-residual of that pair, and min V.  A
    non-finite V is rejected, naming its first such node.
    """
    if V.shape != (g.n,):
        raise ValueError("potential length does not match grid")
    bad = np.flatnonzero(~np.isfinite(V))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"non-finite potential at x={g.x_min + i * g.h:g} "
                         f"(node {i} of n={g.n})")
    h = g.h
    m = g.n - 2
    if not 1 <= k <= min(MAX_LEADING, m):
        raise ValueError(f"k must be in [1, {min(MAX_LEADING, m)}], got {k}")
    diag = -2.0 / h ** 2 - V[1:-1]
    off = np.full(m - 1, 1.0 / h ** 2)
    if k == 1:
        lam, v, iterations = _top_eigenpair(diag, off)
        vals = np.array([lam])
    else:
        vals, v = _leading_eigenpairs(diag, off, k)
        iterations = 0

    r = _apply(diag, off, v) - vals[0] * v
    bound = _RAYLEIGH_TOL * (np.abs(diag).max() + 2 * np.abs(off).max()) * np.abs(v).max()
    if np.abs(r).max() > bound:
        raise EigenIterationError(
            f"eigenpair residual {np.abs(r).max():.3e} exceeds tolerance {bound:.3e}")
    residual = float(np.sqrt(np.sum(r * r) / np.sum(v * v)))
    vec_full = np.zeros(g.n)
    vec_full[1:-1] = v / v[np.argmax(np.abs(v))]
    return SpectrumReport(vals, vec_full, float(V.min()), iterations, residual)


def _leading_eigenpairs(diag: np.ndarray, off: np.ndarray,
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    """k largest eigenvalues (descending) of T = tridiag(off, diag, off) by
    bisection over the index range m-k+1..m (dstebz, block order, as
    inverse iteration wants it), and the eigenvector of the largest by
    inverse iteration (dstein).  dstein runs for all k values, as in
    eigh_tridiagonal: its start vectors depend on how many it computed
    before, so asking for one would change the vector's last bits."""
    m = diag.size
    found, w, iblock, isplit, info = flapack.dstebz(
        diag, off, 2, 0.0, 1.0, m - k + 1, m, 0.0, "B")
    if info != 0:
        raise EigenIterationError(
            f"bisection (LAPACK dstebz) failed: info={info} (n={m + 2}, k={k})")
    w = w[:found]
    vecs, info = flapack.dstein(diag, off, w, iblock, isplit)
    if info != 0:
        raise EigenIterationError(
            f"inverse iteration (LAPACK dstein) failed: info={info} "
            f"(n={m + 2}, k={k})")
    order = np.argsort(w)[::-1]
    return w[order], vecs[:, order[0]]


def _top_eigenpair(diag: np.ndarray,
                   off: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Largest eigenpair of the symmetric tridiagonal T = tridiag(off, diag,
    off) by shifted inverse iteration from above the spectrum.

    The first shift is the Gershgorin bound max_i (d_i + |e_(i-1)| + |e_i|).
    After each step the shift is lowered to rho + ||r||_2 (Rayleigh quotient
    plus eigen-residual) if dpttrf certifies sigma I - T positive definite
    there, so no shift ever falls below lambda0 and the iteration can only
    converge to the top eigenpair.  The start vector is all ones; off > 0
    makes (sigma I - T)^{-1} entrywise positive, as is the ground state.
    """
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    sigma = float(np.max(diag + radius))
    tol = _ROUNDOFF_RESIDUAL * float(np.max(np.abs(diag) + radius))
    factor = _certified_factor(diag, off, sigma)
    if factor is None:
        raise EigenIterationError(
            f"Gershgorin shift {sigma:.17g} not above the spectrum (n={diag.size + 2})")
    v = np.ones(diag.size)
    for it in range(1, MAX_INVERSE_STEPS + 1):
        w = flapack.dpttrs(*factor, v)[0]
        # numpy sums, not BLAS: a BLAS dot sums in an order set by its threads
        v = w / np.sqrt(np.sum(w * w))
        tv = _apply(diag, off, v)
        rho = float(np.sum(v * tv))
        res = float(np.sqrt(np.sum((tv - rho * v) ** 2)))
        if res <= tol:
            return rho, v, it
        if rho + res < sigma:
            lower = _certified_factor(diag, off, rho + res)
            if lower is not None:
                sigma, factor = rho + res, lower
    raise EigenIterationError(
        f"inverse iteration for lambda0 did not reach the roundoff residual "
        f"{tol:.3e} in {MAX_INVERSE_STEPS} steps (n={diag.size + 2}, last "
        f"residual {res:.3e})")


def _certified_factor(diag: np.ndarray, off: np.ndarray,
                      sigma: float) -> tuple[np.ndarray, np.ndarray] | None:
    """LDL^T factors of sigma I - T, or None when it is not positive
    definite, i.e. when sigma does not lie above the spectrum of T."""
    d, e, info = flapack.dpttrf(sigma - diag, -off)
    return (d, e) if info == 0 else None


def _apply(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v."""
    tv = diag * v
    tv[:-1] += off * v[1:]
    tv[1:] += off * v[:-1]
    return tv


def leading_eigenvalues(p: FrontProfile, k: int = 5) -> SpectrumReport:
    """Leading spectrum of the linearization about a converged front."""
    if not p.converged:
        raise ValueError("spectrum requires a converged profile")
    return eigenvalues_of_potential(p.grid, build_potential(p), k)
