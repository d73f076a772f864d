"""Uniform 1-D mesh and fourth-order finite-difference stencils.

Interior second derivatives use the centered 5-point stencil; first
derivatives use a 5-point stencil shifted one node against the drift
direction (upwinding).  Rows next to the boundary fall back to clamped
windows wide enough to keep fourth-order accuracy (6 points for the second
derivative).  Boundary rows themselves are left untouched: the solver
replaces them with closure conditions.  ``solve_banded`` is the program's
one pivoted banded solve, and it checks every answer's backward error, as
``UnpivotedBandedLU``'s probe does.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

MAX_BANDWIDTH = 4  # widest clamped stencil reaches 4 nodes off-diagonal
# 40x the largest grid in use (about 24,000 nodes at c = -200, h = 0.005);
# it keeps a mistyped spacing or drift speed from allocating gigabytes
MAX_NODES = 10 ** 6


def _load_flapack():
    """scipy's compiled LAPACK module (the f2py extension that
    ``scipy.linalg.lapack`` re-exports), loaded from its file.

    Importing ``scipy.linalg`` instead would initialise the whole package,
    which pulls in numpy.testing, numpy.f2py and numpy.ma and more than
    doubles the start-up time of a command; the solver needs only a handful
    of LAPACK routines.  A module that an earlier ``import scipy.linalg``
    loaded is reused.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")   # locates scipy, runs none of it
    if scipy is None:
        raise ImportError("scipy is not installed", name=name)
    linalg = Path(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no _flapack extension module in {linalg}", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, str(path), loader=loader))
    loader.exec_module(module)
    # CPython files a single-phase extension in sys.modules under its full
    # name; without the entry, a later ``import scipy.linalg`` loads its own
    # module object (sharing these functions) and binds it as the package's
    # ``_flapack`` attribute
    sys.modules.pop(name, None)
    return module


flapack = _load_flapack()


@dataclass(frozen=True)
class Grid:
    """Uniform mesh x_i = x_min + i*h, i = 0..n-1, h = (x_max-x_min)/(n-1)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 9:
            raise ValueError(f"need n >= 9 for biased 4th-order stencils, got {self.n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n > MAX_NODES:
            raise ValueError(f"grid of n={self.n} nodes (h={self.h:g} on "
                             f"[{self.x_min:g}, {self.x_max:g}]) exceeds "
                             f"the {MAX_NODES} node limit")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)


def make_grid(x_min: float, x_max: float, h_target: float) -> Grid:
    """Grid with spacing <= h_target, endpoints snapped outward to multiples
    of h_target so that x = 0 is a node whenever it lies inside the domain."""
    if not 0.0 < h_target < math.inf:
        raise ValueError(f"grid spacing must be positive and finite, got h={h_target}")
    try:   # the 1e-9 nudges absorb roundoff when x/h is already an integer
        k_lo = math.floor(x_min / h_target + 1e-9)
        k_hi = math.ceil(x_max / h_target - 1e-9)
    except (OverflowError, ValueError):   # x/h is inf or nan
        raise ValueError(f"grid bounds [{x_min}, {x_max}] at h={h_target} must be finite, "
                         f"with finite x/h") from None
    return Grid(x_min=k_lo * h_target, x_max=k_hi * h_target, n=k_hi - k_lo + 1)


class BandedMatrix:
    """Square banded matrix, diagonally-indexed storage.

    ``data[bandwidth + i - j, j]`` holds entry (i, j), LAPACK's banded
    layout, which ``solve_banded`` factors.  The sparsity pattern is symmetric
    (same width above and below) although the values need not be.
    """

    def __init__(self, n: int, bandwidth: int, data: np.ndarray | None = None):
        """Zero band, or one that wraps ``data`` of shape (2 bandwidth + 1, n)."""
        if bandwidth > MAX_BANDWIDTH:
            raise ValueError(f"bandwidth {bandwidth} exceeds stencil bound {MAX_BANDWIDTH}")
        self.n = n
        self.bandwidth = bandwidth
        self.data = np.zeros((2 * bandwidth + 1, n)) if data is None else data

    def copy(self) -> "BandedMatrix":
        return BandedMatrix(self.n, self.bandwidth, self.data.copy())

    def set_identity_row(self, i: int) -> None:
        for j in range(max(0, i - self.bandwidth), min(self.n, i + self.bandwidth + 1)):
            self.data[self.bandwidth + i - j, j] = 0.0
        self.data[self.bandwidth, i] = 1.0

    def matvec(self, u: np.ndarray) -> np.ndarray:
        if u.shape != (self.n,):
            raise ValueError(f"vector length {u.shape} does not match n={self.n}")
        return _band_product(self.data, self.bandwidth, u)


def _band_product(data: np.ndarray, p: int, u: np.ndarray) -> np.ndarray:
    """A u for the band ``data`` of half-width p (BandedMatrix layout)."""
    out = np.zeros(u.size)
    for d in range(-p, p + 1):
        i0 = max(0, d)
        i1 = u.size + min(0, d)
        if i1 > i0:
            out[i0:i1] += data[p + d, i0 - d:i1 - d] * u[i0 - d:i1 - d]
    return out


class SingularMatrixError(np.linalg.LinAlgError):
    """A banded LU factorization met an unusable pivot or failed its check."""


def _check_backward_error(a: BandedMatrix, x: np.ndarray, b: np.ndarray, solver: str,
                          diagonal: np.ndarray | None = None) -> None:
    """Raise SingularMatrixError, naming ``solver``, n and both norms, unless ||A x - b||_inf
    <= 1e-9 (||A||_1 ||x||_inf + ||b||_inf) for A = a + diag(diagonal); a NaN x fails."""
    backward = np.abs(_band_product(a.data, a.bandwidth, x) - b
                      + (0.0 if diagonal is None else diagonal * x)).max()
    col_abs = np.abs(a.data)
    if diagonal is not None:
        col_abs[a.bandwidth] = np.abs(a.data[a.bandwidth] + diagonal)
    scale = col_abs.sum(axis=0).max() * np.abs(x).max() + np.abs(b).max()
    if not backward <= 1e-9 * scale:
        raise SingularMatrixError(f"{solver}, n={a.n}: backward error {backward:.3e} "
                                  f"exceeds 1e-9 * {scale:.3e}")


def solve_banded(a: BandedMatrix, b: np.ndarray,
                 diagonal: np.ndarray | None = None) -> np.ndarray:
    """Solve (a + diag(diagonal)) x = b by banded LU with partial pivoting: one
    dgbsv call, never storing the sum.  A non-finite input is a ValueError; a zero
    pivot, or an x failing ``_check_backward_error``, is a SingularMatrixError naming n."""
    b = np.asarray_chkfinite(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError(f"vector length {b.shape} does not match n={a.n}")
    p = a.bandwidth
    # p extra rows above the band hold U's fill-in; Fortran order avoids a copy
    ab = np.zeros((3 * p + 1, a.n), order="F")
    ab[p:] = np.asarray_chkfinite(a.data)
    if diagonal is not None:
        ab[2 * p] += np.asarray_chkfinite(diagonal)
    x, info = flapack.dgbsv(p, p, ab, b, overwrite_ab=True)[2:]
    del ab   # the factors, freed before the check allocates, for a lower peak memory
    if info > 0:
        raise SingularMatrixError(f"singular matrix, n={a.n}: zero pivot in column {info - 1}")
    _check_backward_error(a, x, b, "banded solve", diagonal)
    return x


class UnpivotedBandedLU:
    """LU factors of a BandedMatrix without row interchanges, so L and U keep
    its bandwidth.  U is held as D U1 (pivots D, U1 unit upper), so a solve
    is two unit-diagonal LAPACK dtbtrs sweeps and a scaling by 1/D: no sweep
    divides.  Stable only while growth is small (Higham, Accuracy and
    Stability, 2nd ed., 9.3), which a probe solve checks as ``solve_banded`` does."""

    def __init__(self, a: BandedMatrix):
        p = a.bandwidth
        n = self.n = a.n
        w = np.array(np.asarray_chkfinite(a.data), order="F")
        f = memoryview(w.reshape(-1, order="F"))   # entry (i, j) at p + i + 2p j
        for k in range(n):
            d = p + k + 2 * p * k
            pivot = f[d]
            if not (pivot != 0.0 and math.isfinite(pivot)):
                raise SingularMatrixError(f"unpivoted LU, n={n}: pivot {pivot:g} in column {k}")
            m = min(p, n - 1 - k)
            for i in range(d + 1, d + m + 1):   # rows k+1..k+m of column k
                if f[i]:
                    mult = f[i] = f[i] / pivot
                    for o in range(2 * p, 2 * p * m + 1, 2 * p):
                        f[i + o] -= mult * f[d + o]
        for s in range(1, p + 1):   # U's row i over its pivot: (i, i + s) is w[p - s, i + s]
            w[p - s, s:] /= w[p, :n - s]
        self._dinv = 1.0 / w[p]
        w[p] = 1.0
        self._upper, self._lower = np.asfortranarray(w[:p + 1]), np.asfortranarray(w[p:])
        del f, w   # freed before the probe allocates, for a lower peak memory
        _check_backward_error(a, self.solve(np.ones(n)), np.ones(n), "unpivoted LU")

    def solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape != (self.n,):
            raise ValueError(f"vector length {b.shape} does not match n={self.n}")
        y = flapack.dtbtrs(self._lower, b, uplo="L", diag="U")[0]
        y *= self._dinv
        return flapack.dtbtrs(self._upper, y, diag="U", overwrite_b=1)[0]


class UniformSpline:
    """Not-a-knot cubic spline through ``values`` at x0 + i h, i = 0..n-1.

    The nodal second derivatives M satisfy M[i-1] + 4 M[i] + M[i+1] =
    6 (y[i-1] - 2 y[i] + y[i+1]) / h^2 at the interior nodes.  Not-a-knot
    (one cubic across the first two and across the last two intervals)
    gives M[0] = 2 M[1] - M[2] and its mirror, which reduces the first and
    last interior rows to 6 M[i] = rhs[i]; ``solve_banded`` solves the
    remaining tridiagonal system (de Boor, A Practical Guide to Splines,
    ch. IV).
    Points outside the nodes are extrapolated by the end cubics.
    """

    def __init__(self, x0: float, h: float, values: np.ndarray):
        y = np.asarray(values, dtype=float)
        n = y.size
        if n < 4:
            raise ValueError(f"not-a-knot spline needs >= 4 nodes, got {n}")
        a = BandedMatrix(n - 2, 1)
        a.data[:] = [[1.0], [4.0], [1.0]]
        a.data[1, [0, -1]] = 6.0
        a.data[0, 1] = a.data[2, -2] = 0.0   # entries (0, 1) and (n-3, n-4)
        m = np.empty(n)
        m[1:-1] = solve_banded(a, 6.0 / h ** 2 * (y[:-2] - 2.0 * y[1:-1] + y[2:]))
        m[0] = 2.0 * m[1] - m[2]
        m[-1] = 2.0 * m[-2] - m[-3]
        self.h = h
        self.nodes = x0 + h * np.arange(n)
        self._y = y
        self._m = m

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nodes = self.nodes
        i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
        b = (x - nodes[i]) / self.h
        a = 1.0 - b
        y, m = self._y, self._m
        return (a * y[i] + b * y[i + 1]
                + self.h ** 2 / 6.0 * ((a ** 3 - a) * m[i] + (b ** 3 - b) * m[i + 1]))


def fd_weights(z: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z on nodes xs
    (Fornberg's recursion)."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)   # the bands use eight windows in all
def _stencil(offsets: tuple[int, ...], m: int) -> np.ndarray:
    """Weights of the m-th derivative on nodes at ``offsets`` (unit
    spacing); memoised, so read-only."""
    w = fd_weights(0.0, np.array(offsets, dtype=float), m)
    w.flags.writeable = False
    return w


def _frozen_band(n: int, m: int, scale: float, windows) -> BandedMatrix:
    """Read-only band of m-th derivative weights times ``scale``: each row i
    in [r0, r1) of a window (r0, r1, offsets) gets weights on nodes
    i + offsets, filled one diagonal slice per offset."""
    band = BandedMatrix(n, MAX_BANDWIDTH)
    for r0, r1, offsets in windows:
        for o, w in zip(offsets, _stencil(offsets, m) * scale):
            band.data[MAX_BANDWIDTH - o, r0 + o:r1 + o] = w
    band.data.flags.writeable = False
    return band


# Not cached: the solver keeps only bvp.equation_band, so each call builds afresh.
def d2_band(g: Grid) -> BandedMatrix:
    """Banded second-derivative operator; boundary rows are zero.  Fresh and
    read-only: callers that modify it must take a ``copy()``."""
    n = g.n
    return _frozen_band(n, 2, 1.0 / g.h ** 2, [
        (1, 2, (-1, 0, 1, 2, 3, 4)), (2, n - 2, (-2, -1, 0, 1, 2)),
        (n - 2, n - 1, (-4, -3, -2, -1, 0, 1))])


def d1_band(g: Grid, upwind_sign: int) -> BandedMatrix:
    """Banded first-derivative operator; boundary rows are zero.

    upwind_sign > 0 shifts the window one node to +x (characteristics of the
    drift term c*u_x enter from the right when c > 0), upwind_sign < 0
    mirrors that, 0 keeps the stencil centered.  Windows are clamped at the
    boundaries; all variants use 5 points and stay fourth order.  Fresh and
    read-only: callers that modify it must take a ``copy()``.
    """
    n, lo = g.n, int(np.sign(upwind_sign)) - 2   # lo: window offset of unclamped rows
    windows = [(-lo, n - 4 - lo, lo)]    # rows i with 0 <= i + lo <= n - 5
    windows += [(i, i + 1, min(max(i + lo, 0), n - 5) - i)
                for i in [*range(1, -lo), *range(n - 4 - lo, n - 1)]]
    return _frozen_band(n, 1, 1.0 / g.h,
                        [(r0, r1, tuple(range(o, o + 5))) for r0, r1, o in windows])
